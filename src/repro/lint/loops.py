"""Dominator tree and natural-loop detection over the lint CFG.

Built on the *strict* successor relation of
:class:`~repro.lint.cfg.ControlFlowGraph` (the walk the emulator
actually takes, minus computed jumps whose continuation belongs to the
caller).  Instruction granularity keeps the machinery uniform with the
dataflow passes: programs here are a few hundred instructions, so the
simple iterative dominator fixpoint (Cooper/Harvey/Kennedy over reverse
postorder) is plenty fast.

A *natural loop* is the classic construct: a back edge ``t -> h`` whose
target ``h`` dominates its source ``t``, plus every node that can reach
``t`` without passing through ``h``.  Back edges sharing a header are
merged into one loop.  A retreating edge whose target does **not**
dominate its source marks an *irreducible* region (multiple-entry
cycle); those edges are reported separately and the address
classification treats everything reachable in such a region
conservatively.
"""

from .cycles import cyclic_components


class DominatorTree:
    """Immediate dominators for the reachable part of a strict CFG."""

    def __init__(self, cfg):
        self.cfg = cfg
        n = cfg.n
        #: reverse postorder of reachable nodes (entry first)
        self.rpo = self._reverse_postorder()
        self._rpo_index = {node: i for i, node in enumerate(self.rpo)}
        #: immediate dominator per instruction (None when unreachable;
        #: the entry dominates itself)
        self.idom = [None] * n
        self._compute()

    def _reverse_postorder(self):
        cfg = self.cfg
        if not cfg.n:
            return []
        seen = set()
        order = []
        # Iterative DFS with an explicit post stack.
        stack = [(cfg.entry, iter(cfg.successors(cfg.entry)))]
        seen.add(cfg.entry)
        while stack:
            node, succs = stack[-1]
            advanced = False
            for s in succs:
                if s < cfg.n and s not in seen:
                    seen.add(s)
                    stack.append((s, iter(cfg.successors(s))))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    def _compute(self):
        cfg = self.cfg
        rpo = self.rpo
        if not rpo:
            return
        preds = cfg.preds
        idom = self.idom
        entry = cfg.entry
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for node in rpo:
                if node == entry:
                    continue
                new_idom = None
                for p in preds[node]:
                    if idom[p] is None:
                        continue
                    if new_idom is None:
                        new_idom = p
                    else:
                        new_idom = self._intersect(new_idom, p)
                if new_idom is not None and idom[node] != new_idom:
                    idom[node] = new_idom
                    changed = True

    def _intersect(self, a, b):
        index = self._rpo_index
        idom = self.idom
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def dominates(self, a, b):
        """True when ``a`` dominates ``b`` (reflexive)."""
        idom = self.idom
        if idom[b] is None or idom[a] is None:
            return False
        entry = self.cfg.entry
        node = b
        while True:
            if node == a:
                return True
            if node == entry:
                return False
            node = idom[node]


class Loop:
    """One natural loop: header, merged back edges, body, nesting."""

    __slots__ = ("header", "body", "back_edges", "parent", "children",
                 "depth")

    def __init__(self, header, body, back_edges):
        self.header = header
        self.body = frozenset(body)
        self.back_edges = tuple(sorted(back_edges))
        self.parent = None
        self.children = []
        self.depth = 1

    def __contains__(self, node):
        return node in self.body

    def __repr__(self):
        return "<Loop header=%d depth=%d |body|=%d>" % (
            self.header, self.depth, len(self.body))


class LoopForest:
    """All natural loops of one program, nested into a forest.

    Attributes
    ----------
    loops: list of :class:`Loop`, sorted by header index
    irreducible_edges: retreating edges ``(tail, head)`` whose head does
        not dominate the tail — entries into a multiple-entry cycle
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.dom = DominatorTree(cfg)
        self.irreducible_edges = []
        self.loops = self._find_loops()
        self._nest()
        self._innermost = self._map_innermost()
        self._irreducible = self._irreducible_nodes()

    # ------------------------------------------------------------------

    def _find_loops(self):
        cfg = self.cfg
        dom = self.dom
        back_by_header = {}
        # A retreating edge goes from a node to one at an equal-or-
        # earlier reverse-postorder position; it is a back edge (and
        # delimits a natural loop) only when the head dominates the
        # tail.
        rpo_index = dom._rpo_index
        for tail in dom.rpo:
            for head in cfg.successors(tail):
                if head >= cfg.n or head not in rpo_index:
                    continue
                if rpo_index[head] <= rpo_index[tail]:
                    if dom.dominates(head, tail):
                        back_by_header.setdefault(head, []).append(
                            (tail, head))
                    else:
                        self.irreducible_edges.append((tail, head))
        loops = []
        for header, edges in back_by_header.items():
            loops.append(Loop(header, self._loop_body(header, edges),
                              edges))
        loops.sort(key=lambda loop: loop.header)
        return loops

    def _loop_body(self, header, back_edges):
        """Nodes that reach a back-edge tail without passing the
        header, plus the header itself (the standard construction over
        reversed edges)."""
        preds = self.cfg.preds
        body = {header}
        stack = [tail for tail, _ in back_edges]
        while stack:
            node = stack.pop()
            if node in body:
                continue
            body.add(node)
            stack.extend(p for p in preds[node] if p not in body)
        return body

    def _nest(self):
        """Parent each loop under the smallest strictly-containing
        loop; loops with the same header were already merged."""
        by_size = sorted(self.loops, key=lambda loop: len(loop.body))
        for i, inner in enumerate(by_size):
            for outer in by_size[i + 1:]:
                if inner.header in outer.body \
                        and inner.body <= outer.body \
                        and inner is not outer:
                    inner.parent = outer
                    outer.children.append(inner)
                    break
        for loop in self.loops:
            depth = 1
            parent = loop.parent
            while parent is not None:
                depth += 1
                parent = parent.parent
            loop.depth = depth

    def _map_innermost(self):
        innermost = {}
        for loop in sorted(self.loops, key=lambda l: -len(l.body)):
            for node in loop.body:
                innermost[node] = loop
        return innermost

    # ------------------------------------------------------------------

    def loop_of(self, node):
        """Innermost loop containing ``node``, or None."""
        return self._innermost.get(node)

    def in_irreducible_region(self, node):
        """True when ``node`` can be part of a multiple-entry cycle.

        Conservative: any node that reaches (or is reached from) the
        head of an irreducible retreating edge within the cycle would
        need a full SCC computation; we flag the whole SCC of each
        irreducible edge head instead.
        """
        return node in self._irreducible

    def _irreducible_nodes(self):
        """Union of the strongly connected components containing each
        irreducible retreating edge (over the strict CFG)."""
        if not self.irreducible_edges:
            return frozenset()
        cfg = self.cfg
        sccs = cyclic_components(
            {i: [s for s in cfg.successors(i) if s < cfg.n]
             for i in range(cfg.n)})
        flagged = set()
        for tail, head in self.irreducible_edges:
            for scc in sccs:
                if head in scc and tail in scc:
                    flagged |= scc
        return frozenset(flagged)


__all__ = ["DominatorTree", "Loop", "LoopForest"]
