"""Property tests for the dominator tree, loop forest and strongly
connected components (hypothesis).

The static recurrence bounds rest on three structural facts: dominance
("a dominates b" = every entry-to-b path passes a), natural-loop
membership and the cyclic strongly connected components that Johnson's
cycle enumeration and the irreducible-region flags both read.  Each has
a direct brute-force definition over small random graphs, so the fast
algorithms are checked against those definitions on arbitrary CFG
shapes, not just the handwritten cases.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import DominatorTree, LoopForest
from repro.lint.cycles import cyclic_components


class FakeCFG:
    """Duck-typed CFG: ``n``, ``entry``, ``successors`` and ``preds``
    is all the dominator/loop machinery reads."""

    def __init__(self, n, succ):
        self.n = n
        self.entry = 0
        self._succ = succ
        self.preds = [[u for u in range(n) if v in succ.get(u, ())]
                      for v in range(n)]

    def successors(self, node):
        return self._succ.get(node, ())


@st.composite
def cfgs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=24))
    succ = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    return FakeCFG(n, {u: tuple(sorted(vs)) for u, vs in succ.items()})


def reachable_from(cfg, start, banned=()):
    seen = set()
    if start in banned:
        return seen
    stack = [start]
    seen.add(start)
    while stack:
        node = stack.pop()
        for s in cfg.successors(node):
            if s not in seen and s not in banned:
                seen.add(s)
                stack.append(s)
    return seen


def dominates_bf(cfg, reach, a, b):
    """Brute-force dominance: b is unreachable once a is removed."""
    if a not in reach or b not in reach:
        return False
    if a == b:
        return True
    return b not in reachable_from(cfg, cfg.entry, banned={a})


@settings(max_examples=200, deadline=None)
@given(cfgs())
def test_dominates_matches_path_enumeration(cfg):
    dom = DominatorTree(cfg)
    reach = reachable_from(cfg, cfg.entry)
    for a in range(cfg.n):
        for b in range(cfg.n):
            assert dom.dominates(a, b) \
                == dominates_bf(cfg, reach, a, b), (a, b)


@settings(max_examples=200, deadline=None)
@given(cfgs())
def test_loops_match_naive_back_edge_search(cfg):
    forest = LoopForest(cfg)
    reach = reachable_from(cfg, cfg.entry)
    naive = {}
    for tail in reach:
        for head in cfg.successors(tail):
            if dominates_bf(cfg, reach, head, tail):
                naive.setdefault(head, set()).add((tail, head))
    assert {loop.header for loop in forest.loops} == set(naive)
    preds = {}
    for u in range(cfg.n):
        for v in cfg.successors(u):
            preds.setdefault(v, []).append(u)
    for loop in forest.loops:
        assert set(loop.back_edges) == naive[loop.header]
        # Standard body construction: reach a tail backwards without
        # passing the header.
        body = {loop.header}
        stack = [tail for tail, _ in loop.back_edges]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            stack.extend(p for p in preds.get(node, ()))
        assert loop.body == body


@settings(max_examples=150, deadline=None)
@given(cfgs())
def test_irreducible_edges_are_undominated_retreats(cfg):
    forest = LoopForest(cfg)
    reach = reachable_from(cfg, cfg.entry)
    for tail, head in forest.irreducible_edges:
        assert not dominates_bf(cfg, reach, head, tail)
        # The edge closes a cycle: its head reaches its tail.
        assert tail in reachable_from(cfg, head)


@settings(deadline=None)
@given(cfgs())
def test_cyclic_components_are_the_cyclic_reachability_classes(cfg):
    graph = {u: list(cfg.successors(u)) for u in range(cfg.n)}
    reach = {u: reachable_from(cfg, u) for u in range(cfg.n)}
    expected = set()
    for u in range(cfg.n):
        mutual = frozenset(v for v in reach[u] if u in reach[v])
        if len(mutual) > 1 or u in cfg.successors(u):
            expected.add(mutual)
    found = cyclic_components(graph)
    assert len(found) == len(expected)
    assert set(found) == expected


# ---------------------------------------------------------------------
# value-predictability class lattice (repro.lint.valueflow)
#
# The soundness of every merge in the valueflow classification rests on
# class_join being a real join over the class_leq order: merging control
# paths may only weaken a claim, never strengthen it.

from repro.lint.valueflow import (        # noqa: E402 (grouped section)
    ALL_CLASSES,
    CLASS_AFFINE,
    CLASS_STRIDE,
    CLASS_UNKNOWN,
    class_join,
    class_leq,
)

classes = st.sampled_from(ALL_CLASSES)


@given(classes, classes)
def test_join_commutative_and_upper(a, b):
    j = class_join(a, b)
    assert j == class_join(b, a)
    assert class_leq(a, j) and class_leq(b, j)


@given(classes, classes, classes)
def test_join_associative(a, b, c):
    assert class_join(class_join(a, b), c) \
        == class_join(a, class_join(b, c))


@given(classes)
def test_join_idempotent_and_top(a):
    assert class_join(a, a) == a
    assert class_join(a, CLASS_UNKNOWN) == CLASS_UNKNOWN
    assert class_leq(a, CLASS_UNKNOWN)


@given(classes, classes, classes)
def test_leq_is_a_partial_order(a, b, c):
    assert class_leq(a, a)
    if class_leq(a, b) and class_leq(b, a):
        assert a == b
    if class_leq(a, b) and class_leq(b, c):
        assert class_leq(a, c)


@given(classes, classes)
def test_join_is_least_upper_bound(a, b):
    """class_join(a, b) is below every common upper bound — the
    brute-force LUB definition over the full (tiny) lattice."""
    j = class_join(a, b)
    for u in ALL_CLASSES:
        if class_leq(a, u) and class_leq(b, u):
            assert class_leq(j, u), (a, b, u)


@given(classes, classes, classes)
def test_join_monotone(a, b, c):
    """a ⊑ b implies a ⊔ c ⊑ b ⊔ c: refining one input can never
    coarsen the merge."""
    if class_leq(a, b):
        assert class_leq(class_join(a, c), class_join(b, c))


def test_claim_strength_chain():
    assert class_leq(CLASS_STRIDE, CLASS_AFFINE)
    assert class_leq(CLASS_AFFINE, CLASS_UNKNOWN)
    assert not class_leq(CLASS_AFFINE, CLASS_STRIDE)


# ---------------------------------------------------------------------
# branch-predictability class lattice (repro.lint.branchflow)
#
# Same contract as the valueflow lattice above: every merge in the
# branch classification goes through branch_class_join, so its
# soundness rests on the join being the real LUB of branch_class_leq —
# merging control paths may only weaken a predictability claim.

from repro.lint.branchflow import (     # noqa: E402 (grouped section)
    ALL_BRANCH_CLASSES,
    CLASS_EXIT,
    CLASS_TRIP,
    CLASS_UNKNOWN as BRANCH_UNKNOWN,
    branch_class_join,
    branch_class_leq,
)

branch_classes = st.sampled_from(ALL_BRANCH_CLASSES)


@given(branch_classes, branch_classes)
def test_branch_join_commutative_and_upper(a, b):
    j = branch_class_join(a, b)
    assert j == branch_class_join(b, a)
    assert branch_class_leq(a, j) and branch_class_leq(b, j)


@given(branch_classes, branch_classes, branch_classes)
def test_branch_join_associative(a, b, c):
    assert branch_class_join(branch_class_join(a, b), c) \
        == branch_class_join(a, branch_class_join(b, c))


@given(branch_classes)
def test_branch_join_idempotent_and_top(a):
    assert branch_class_join(a, a) == a
    assert branch_class_join(a, BRANCH_UNKNOWN) == BRANCH_UNKNOWN
    assert branch_class_leq(a, BRANCH_UNKNOWN)


@given(branch_classes, branch_classes, branch_classes)
def test_branch_leq_is_a_partial_order(a, b, c):
    assert branch_class_leq(a, a)
    if branch_class_leq(a, b) and branch_class_leq(b, a):
        assert a == b
    if branch_class_leq(a, b) and branch_class_leq(b, c):
        assert branch_class_leq(a, c)


@given(branch_classes, branch_classes)
def test_branch_join_is_least_upper_bound(a, b):
    """branch_class_join(a, b) is below every common upper bound — the
    brute-force LUB definition over the full (tiny) lattice."""
    j = branch_class_join(a, b)
    for u in ALL_BRANCH_CLASSES:
        if branch_class_leq(a, u) and branch_class_leq(b, u):
            assert branch_class_leq(j, u), (a, b, u)


@given(branch_classes, branch_classes)
def test_branch_join_matches_brute_force_lub(a, b):
    """The lattice is a tree, so the set of common upper bounds has a
    unique minimum; branch_class_join must return exactly it."""
    uppers = [u for u in ALL_BRANCH_CLASSES
              if branch_class_leq(a, u) and branch_class_leq(b, u)]
    minimal = [u for u in uppers
               if not any(branch_class_leq(v, u) and v != u
                          for v in uppers)]
    assert minimal == [branch_class_join(a, b)], (a, b, uppers)


@given(branch_classes, branch_classes, branch_classes)
def test_branch_join_monotone(a, b, c):
    """a ⊑ b implies a ⊔ c ⊑ b ⊔ c: refining one input can never
    coarsen the merge."""
    if branch_class_leq(a, b):
        assert branch_class_leq(branch_class_join(a, c),
                                branch_class_join(b, c))


def test_branch_claim_strength_chain():
    assert branch_class_leq(CLASS_TRIP, CLASS_EXIT)
    assert branch_class_leq(CLASS_EXIT, BRANCH_UNKNOWN)
    assert not branch_class_leq(CLASS_EXIT, CLASS_TRIP)


def brute_force_period(imm, start):
    """Cycle length of the value iteration ``v -> v ^ imm``."""
    seen = {start: 0}
    value = start
    for step in range(1, 8):
        value = (value ^ imm) & 0xFFFFFFFF
        if value in seen:
            return step - seen[value]
        seen[value] = step
    raise AssertionError("toggle never cycled")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=0xFFFFFFFF),
       st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_toggle_brute_force_period_is_two(imm, start):
    assert brute_force_period(imm, start) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4095),
       st.integers(min_value=0, max_value=4095))
def test_periodic_class_agrees_with_brute_force(imm, start):
    """The analysis's periodic(k) claim for an XOR-toggle loop must
    equal the brute-forced cycle length of its value stream."""
    from repro.asm import assemble
    from repro.lint import ValueFlowAnalysis
    from repro.lint.valueflow import CLASS_PERIODIC

    source = """
        .text
main:   mov     8, %%g1
        mov     %d, %%o1
loop:   xor     %%o1, %d, %%o1
        subcc   %%g1, 1, %%g1
        bne     loop
        halt
""" % (start, imm)
    ana = ValueFlowAnalysis(assemble(source))
    toggle = next(site for site in ana.sites
                  if site.cls == CLASS_PERIODIC)
    assert toggle.period == brute_force_period(imm, start)
