"""Static branch-predictability classification per innermost loop.

Completes the static-twin program of the linter: addresses
(:mod:`repro.lint.addrclass`), memory dependences
(:mod:`repro.lint.memdep`) and result values
(:mod:`repro.lint.valueflow`) all have sound static classifications
cross-checked against their dynamic predictors — this pass does the
same for conditional branches.  Every static conditional branch is
placed in a predictability lattice relative to its innermost reducible
loop:

========== ========================================================
``trip``   loop-exit branch governed by a basic induction variable
           compared against an immediate, with an exactly-recovered
           initial value: the trip count is computable, so the
           branch misbehaves at most once per loop run
``exit``   loop-exit branch (exactly one edge leaves the body)
           without a computable trip count
``invariant`` condition-code cone is loop-invariant: one direction
           per loop run
``periodic`` cone is a self-XOR toggle: direction alternates with
           period 2
``history`` cone is induction-variable-correlated: the direction
           pattern repeats with the iteration pattern
``load``   cone terminates in one or more loads (subclassified by
           the load's ``lint.addrclass`` class): predictability is
           the loaded value's predictability
``straight`` not inside any loop
``unknown`` irreducible region, call-derived condition, or a cone
           the walker cannot bound
========== ========================================================

The lattice is the tree ``trip <= exit <= unknown``, ``invariant <=
history <= unknown``, ``periodic <= history <= unknown``, ``load <=
unknown``, ``straight <= unknown`` — joins are unique least upper
bounds (:func:`branch_class_join`, property-tested against the
brute-force LUB).

Three sound per-workload quantities fall out and are proven against
dynamic evidence by :func:`branchflow_cross_check` (CLI
``repro lint --branch-check``, violations exit 2):

1. **per-PC trip floors** — a ``trip`` branch with trip count ``t``
   exits its loop at most once per ``t`` executions, so the dynamic
   exit-direction count obeys ``exits <= count // t + 1`` whatever
   the predictor does;
2. **class-capped coverage** — :data:`BRANCH_COVERAGE_CAP` bounds the
   fraction of dynamic branches a confidence gate may cover with a
   correct prediction, per class (audited constants, same contract as
   ``VALUE_COVERAGE_CAP``), so the capped static mix dominates the
   measured confident coverage;
3. **cold-start accuracy ceiling** — a static conditional branch
   whose PC is unaliased in the combining predictor's PC-indexed
   bimodal *and* chooser tables is guaranteed mispredicted on its
   first dynamic execution when that outcome is taken (the untouched
   chooser selects the untouched, weakly-not-taken bimodal counter),
   giving ``accuracy <= 1 - floor / conditional`` as a theorem; the
   floor also refines the fetch side of ``lint.ipcbound`` — a config-C
   machine pays at least one fetch-stall cycle per guaranteed
   misprediction, so ``cycles >= floor``.

The load-driven half (Sridhar et al.'s LDBP, PAPERS.md) statically
identifies ``exit`` branches whose compare cone is fed by a single
stride/affine-classified load; :meth:`BranchFlowAnalysis.plan` packages
them as a :class:`BranchPlan` that machine configuration J (config I +
load-driven exit-branch prediction) consumes: when the governing
load's value prediction was confident and correct, the dependent exit
branch resolves at address-generation time and its fetch fence is
waived.  The chain ``static ceiling >= measured combining accuracy >=
config-J early-resolution coverage`` closes the cross-check.
"""

from ..isa.opcodes import Opcode
from ..trace.records import BRC
from .addrclass import (
    CLASS_AFFINE as ADDR_AFFINE,
    CLASS_STRIDE as ADDR_STRIDE,
    AddressClassification,
)
from .dae import static_signature
from .findings import _REL_TOL, CheckResult
from .induction import INV, IV
from .memdep import _BOUND_BRANCHES, _is_exact, _join, governing_cc
from .sites import Site, SiteClassification, lattice

#: branch predictability classes
CLASS_TRIP = "trip"
CLASS_EXIT = "exit"
CLASS_INVARIANT = "invariant"
CLASS_PERIODIC = "periodic"
CLASS_HISTORY = "history"
CLASS_LOAD = "load"
CLASS_STRAIGHT = "straight"
CLASS_UNKNOWN = "unknown"

ALL_BRANCH_CLASSES = (CLASS_TRIP, CLASS_EXIT, CLASS_INVARIANT,
                      CLASS_PERIODIC, CLASS_HISTORY, CLASS_LOAD,
                      CLASS_STRAIGHT, CLASS_UNKNOWN)

#: classes with a structural handle a history predictor can exploit
BRANCH_PREDICTABLE_CLASSES = frozenset(
    (CLASS_TRIP, CLASS_EXIT, CLASS_INVARIANT, CLASS_PERIODIC,
     CLASS_HISTORY))

#: upward closure of every class in the predictability lattice — a
#: tree rooted at ``unknown``, so pairwise joins are unique LUBs
_UP = {
    CLASS_TRIP: frozenset((CLASS_TRIP, CLASS_EXIT, CLASS_UNKNOWN)),
    CLASS_EXIT: frozenset((CLASS_EXIT, CLASS_UNKNOWN)),
    CLASS_INVARIANT: frozenset((CLASS_INVARIANT, CLASS_HISTORY,
                                CLASS_UNKNOWN)),
    CLASS_PERIODIC: frozenset((CLASS_PERIODIC, CLASS_HISTORY,
                               CLASS_UNKNOWN)),
    CLASS_HISTORY: frozenset((CLASS_HISTORY, CLASS_UNKNOWN)),
    CLASS_LOAD: frozenset((CLASS_LOAD, CLASS_UNKNOWN)),
    CLASS_STRAIGHT: frozenset((CLASS_STRAIGHT, CLASS_UNKNOWN)),
    CLASS_UNKNOWN: frozenset((CLASS_UNKNOWN,)),
}

#: ``branch_class_leq(a, b)``: class ``a`` is at least as predictable
#: as ``b``; ``branch_class_join(a, b)``: their least upper bound
branch_class_leq, branch_class_join = lattice(_UP)


#: Per-class upper bound on the fraction of dynamic branches whose
#: prediction a confidence gate may both open for *and* get right.
#: Sub-1.0 caps are audited empirical contracts, not theorems: across
#: all seven workloads at scales 0.03/0.05 the ``load`` class's
#: confident-correct fraction peaks at 0.58 (go) and ``unknown`` at
#: 0.39 (vortex); the caps leave a 1.5-1.9x margin, the same contract
#: style as ``VALUE_COVERAGE_CAP``.  Structural classes keep the
#: trivial 1.0 bound: a trip/exit/invariant branch can legitimately be
#: near-perfectly covered (compress's invariant sites hit 0.99).
BRANCH_COVERAGE_CAP = {
    CLASS_TRIP: 1.0,
    CLASS_EXIT: 1.0,
    CLASS_INVARIANT: 1.0,
    CLASS_PERIODIC: 1.0,
    CLASS_HISTORY: 1.0,
    CLASS_LOAD: 0.85,
    CLASS_STRAIGHT: 1.0,
    CLASS_UNKNOWN: 0.75,
}

#: default predictor geometry the floor reasons over: the combining
#: predictor's PC-indexed bimodal and chooser tables are both 2^13
#: entries with the same ``(pc >> 2) & mask`` index function
_PC_TABLE_ENTRIES = 8192

#: backward-cone walk budget (distinct (register, site) states)
_CONE_BUDGET = 64

#: exit-taken loop-exit branches: the *continue* condition is the
#: negation of the branch condition (``bge exit`` continues while
#: ``iv <= C - 1``); mirrors memdep's ``_BOUND_BRANCHES`` for the
#: fall-through-exit (branch-taken-continues) orientation
_EXIT_BOUND_BRANCHES = {
    Opcode.BGE: ("hi", -1),    # exit when iv >= C -> continue iv <= C-1
    Opcode.BG: ("hi", 0),      # exit when iv > C  -> continue iv <= C
    Opcode.BLE: ("lo", 1),     # exit when iv <= C -> continue iv >= C+1
    Opcode.BL: ("lo", 0),      # exit when iv < C  -> continue iv >= C
}

_XOR_OPS = frozenset((Opcode.XOR, Opcode.XORCC))
_CALL_OPS = frozenset((Opcode.CALL, Opcode.JMPL))


class BranchSite(Site):
    """Classification of one static conditional branch."""

    __slots__ = ("trip", "period", "exit_taken", "load_index", "load_cls")

    def __init__(self, index, line, pc, cls, trip=None, period=None,
                 loop=None, exit_taken=None, load_index=None,
                 load_cls=None, note=""):
        Site.__init__(self, index, line, pc, cls, loop, note)
        self.trip = trip            # computed trip count (trip class)
        self.period = period        # toggle period (periodic class)
        #: for loop-exit branches: True when the *taken* edge leaves
        self.exit_taken = exit_taken
        #: unique governing load, when the cc cone is load-fed
        self.load_index = load_index
        self.load_cls = load_cls    # that load's addrclass class

    def __repr__(self):
        return "<BranchSite #%d %s trip=%r load=%r>" % (
            self.index, self.cls, self.trip, self.load_index)


class BranchFlowAnalysis(SiteClassification):
    """Per-program predictability classification of every conditional
    branch, relative to its innermost reducible loop."""

    CLASSES = ALL_BRANCH_CLASSES
    COVERAGE_CAP = BRANCH_COVERAGE_CAP
    TABLE_ENTRIES = _PC_TABLE_ENTRIES

    def __init__(self, program, addr_classes=None):
        if addr_classes is None:
            addr_classes = AddressClassification(program)
        SiteClassification.__init__(self, program, addr_classes.values)
        self.addr_classes = addr_classes
        self.table = self.cfg.table
        self._classify()

    def _classify(self):
        for i, ins in enumerate(self.program.instructions):
            if not ins.is_cond_branch:
                continue
            site = self._classify_branch(i, ins)
            self.sites.append(site)
            self.by_index[i] = site

    def _classify_branch(self, i, ins):
        line = ins.line
        pc = self.program.address_of_index(i)
        loop = self.forest.loop_of(i)
        if loop is None:
            return BranchSite(i, line, pc, CLASS_STRAIGHT)
        if self.forest.in_irreducible_region(i):
            return BranchSite(i, line, pc, CLASS_UNKNOWN, loop=loop,
                              note="irreducible region")
        target_in = ins.target in loop.body
        fall = i + 1
        fall_in = fall < self.cfg.n and fall in loop.body
        exit_taken = not target_in
        is_exit = exit_taken != (not fall_in)
        kind, load_index, load_cls, period, note = self._cone(i, loop)
        if is_exit:
            trip = self._trip_count(i, ins, loop, exit_taken)
            if trip is not None:
                return BranchSite(i, line, pc, CLASS_TRIP, trip=trip,
                                  loop=loop, exit_taken=exit_taken,
                                  note="iv-governed, bound recovered")
            return BranchSite(i, line, pc, CLASS_EXIT, loop=loop,
                              exit_taken=exit_taken,
                              load_index=load_index, load_cls=load_cls,
                              note=note or ("%s cone" % kind))
        return BranchSite(i, line, pc, kind, period=period, loop=loop,
                          load_index=load_index, load_cls=load_cls,
                          note=note)

    # -- trip-count recovery -------------------------------------------

    def _trip_count(self, branch, ins, loop, exit_taken):
        """Exact executions-per-run lower bound for an IV-governed
        loop-exit branch, or None.

        The governing ``subcc iv, C`` immediately precedes the branch;
        the IV steps by ``s`` exactly once per iteration
        (``find_basic_ivs`` guarantees the update dominates every
        back-edge tail) and enters every run with the same exact
        constant value ``i0``.  The continue bound ``H`` comes from the
        branch opcode (memdep's table for branch-taken-continues,
        :data:`_EXIT_BOUND_BRANCHES` for branch-taken-exits).  The
        compare may sit before or after the update within the
        iteration, so the branch executes ``(H - i0) // s + 1`` or one
        more time per full run — the returned ``t`` is the sound lower
        bound.  Kernel index values are small integers (same 32-bit
        non-wrapping assumption memdep documents); the dynamic floor
        check would catch a wrap loudly.
        """
        bounds = _EXIT_BOUND_BRANCHES if exit_taken \
            else _BOUND_BRANCHES
        side = bounds.get(ins.opcode)
        if side is None:
            return None
        if not loop.back_edges:
            return None
        dom = self.forest.dom
        # Executes exactly once per iteration: it dominates every
        # back-edge tail and has no inner cycle around it (innermost).
        if not all(dom.dominates(branch, tail)
                   for tail, _ in loop.back_edges):
            return None
        cc_index = governing_cc(self.program.instructions, branch, loop)
        if cc_index is None:
            return None
        cc = self.program.instructions[cc_index]
        if cc.opcode is not Opcode.SUBCC:
            return None
        iv = self.values.ivs_of(loop).get(cc.rs1)
        if iv is None or not iv.step:
            return None
        limit = self._compare_limit(cc, cc_index)
        if limit is None:
            return None
        which, delta = side
        if which == "hi" and iv.step < 0:
            return None
        if which == "lo" and iv.step > 0:
            return None
        bound = limit + delta
        i0 = self._entry_value(cc.rs1, loop, iv)
        if i0 is None:
            return None
        q = (bound - i0) // iv.step
        if q < 1:
            return None
        return q + 1

    def _compare_limit(self, cc, cc_index):
        """Exact constant the compare tests the IV against: either an
        immediate or a register the memdep resolver proves holds a
        single program constant at the compare site (which also makes
        it loop-invariant — an in-loop redefinition to a different
        value would break exactness)."""
        if cc.imm is not None:
            return cc.imm
        if cc.rs2 < 0:
            return None
        form = self.values.resolver.value_at(cc.rs2, cc_index)
        if not _is_exact(form):
            return None
        anchor, _, lo, hi = form
        if lo != anchor or hi != anchor:
            return None
        return anchor

    def _entry_value(self, reg, loop, iv):
        """Exact constant value ``reg`` holds on every loop entry, or
        None: the join of every non-IV definition reaching the loop
        *header* must be a single exact program constant.  (Reading at
        the compare site would miss the seed whenever the IV update
        precedes the compare within the iteration — the update kills
        the seed definition on every path to the compare.)"""
        resolver = self.values.resolver
        state = resolver.reach[loop.header]
        if state is None:
            return None
        writers = state[reg]
        if writers & (1 << self.cfg.n):
            return None             # live-in at the entry point
        form = None
        seeded = False
        mask = writers
        while mask:
            low = mask & -mask
            w = low.bit_length() - 1
            mask ^= low
            if w in iv.sites:
                continue
            if w in loop.body:
                return None         # a second in-body writer
            f = resolver._def_value(w, set())
            if f is None:
                return None
            form = f if not seeded else _join(form, f)
            seeded = True
        if not seeded or not _is_exact(form):
            return None
        anchor, _, lo, hi = form
        if lo != anchor or hi != anchor:
            return None
        return anchor

    # -- condition-code cone classification ----------------------------

    def _cone(self, branch, loop):
        """Classify the backward cone of the branch's condition codes.

        Returns ``(kind, load_index, load_cls, period, note)``.  The
        walk follows reaching definitions inside the loop body;
        leaves are loop-invariant values (outside definitions,
        constants, entry live-ins), basic-IV self-updates, self-XOR
        toggles, and loads.  Calls or an exhausted budget force
        ``unknown`` — unresolved means unpredictable, never the
        reverse.
        """
        instrs = self.program.instructions
        cc_index = governing_cc(instrs, branch, loop)
        if cc_index is None:
            return (CLASS_UNKNOWN, None, None, None,
                    "no in-loop cc writer")
        cc = instrs[cc_index]
        stack = []
        if cc.rs1 >= 0:
            stack.append((cc.rs1, cc_index))
        if cc.imm is None and cc.rs2 >= 0:
            stack.append((cc.rs2, cc_index))
        reach = self.values.reach
        entry_bit = 1 << self.cfg.n
        ivs = self.values.ivs_of(loop)
        kinds = set()
        loads = set()
        visited = set()
        while stack:
            reg, site = stack.pop()
            if (reg, site) in visited:
                continue
            visited.add((reg, site))
            if len(visited) > _CONE_BUDGET:
                return (CLASS_UNKNOWN, None, None, None,
                        "cone budget exhausted")
            if reg == 0:
                continue            # %g0 is hardwired zero
            state = reach[site]
            if state is None:
                return (CLASS_UNKNOWN, None, None, None,
                        "unreachable cone site")
            writers = state[reg]
            if writers & entry_bit:
                kinds.add(INV)
            mask = writers & ~entry_bit
            while mask:
                low = mask & -mask
                w = low.bit_length() - 1
                mask ^= low
                if w not in loop.body:
                    kinds.add(INV)
                    continue
                ins = instrs[w]
                iv = ivs.get(reg)
                if iv is not None and w in iv.sites:
                    kinds.add(IV)
                    continue
                if ins.is_load:
                    loads.add(w)
                    continue
                if ins.opcode in _CALL_OPS:
                    return (CLASS_UNKNOWN, None, None, None,
                            "call-derived condition")
                if ins.opcode in _XOR_OPS and ins.rd == reg \
                        and ins.rs1 == reg and ins.imm is not None:
                    kinds.add(CLASS_PERIODIC)
                    continue
                if ins.opcode is Opcode.SETHI:
                    kinds.add(INV)
                    continue
                pushed = False
                if ins.rs1 >= 0:
                    stack.append((ins.rs1, w))
                    pushed = True
                if ins.imm is None and ins.rs2 >= 0:
                    stack.append((ins.rs2, w))
                    pushed = True
                if not pushed:
                    kinds.add(INV)  # pure-immediate definition
        if loads:
            load_index = load_cls = None
            if len(loads) == 1:
                load_index = next(iter(loads))
                load_site = self.addr_classes.by_index.get(load_index)
                load_cls = load_site.cls if load_site is not None \
                    else None
            note = "fed by load #%s (%s)" % (
                load_index if load_index is not None
                else "%d sites" % len(loads), load_cls or "mixed")
            return (CLASS_LOAD, load_index, load_cls, None, note)
        if CLASS_PERIODIC in kinds and IV not in kinds:
            return (CLASS_PERIODIC, None, None, 2, "self-xor toggle")
        if not kinds or kinds <= {INV}:
            return (CLASS_INVARIANT, None, None, None, "")
        return (CLASS_HISTORY, None, None, None, "iv-correlated")

    # -- aggregate views -----------------------------------------------

    def misprediction_floor(self, trace,
                            table_entries=_PC_TABLE_ENTRIES):
        """Guaranteed cold-start mispredictions of the default combining
        predictor on ``trace``, with the conditional-branch count.

        Counts static conditional branches whose PC is unaliased in
        *both* PC-indexed tables (bimodal and chooser share the
        ``(pc >> 2) & 8191`` index) and whose first dynamic outcome is
        taken: the untouched chooser counter (1, below threshold 2)
        selects bimodal, whose untouched counter (1, weakly not-taken)
        predicts not-taken — a guaranteed misprediction whatever other
        branches did to the gshare side.  The aliasing restriction is
        what keeps this sound: a gshare-indexed floor would not be,
        since ``(pc ^ history)`` collisions are outcome-dependent.
        """
        aliased = self.aliased_indices(table_entries)
        cls = trace.static.cls
        taken = trace.taken
        seen = set()
        floor = 0
        conditional = 0
        by_index = self.by_index
        for pos, s in enumerate(trace.sidx):
            if cls[s] != BRC:
                continue
            conditional += 1
            if s in seen:
                continue
            seen.add(s)
            if s in by_index and s not in aliased and taken[pos]:
                floor += 1
        return floor, conditional

    def summary_rows(self):
        """Rows (index, line, class, trip, period, exit edge, load,
        note) for the CLI ``--branch`` table."""
        rows = []
        for site in self.sites:
            exit_edge = "-"
            if site.exit_taken is not None:
                exit_edge = "taken" if site.exit_taken else "fall"
            rows.append([
                site.index,
                site.line if site.line is not None else 0,
                site.cls,
                site.trip if site.trip is not None else "-",
                site.period if site.period is not None else "-",
                exit_edge,
                site.load_cls if site.load_cls is not None else "-",
                site.note or "-",
            ])
        return rows

    # -- the dynamic-side contract (config J) --------------------------

    def plan(self):
        """Build the :class:`BranchPlan` configuration J consumes: every
        ``exit`` branch whose compare cone is fed by exactly one
        stride/affine-classified load."""
        resolves = {}
        for site in self.sites:
            if site.cls != CLASS_EXIT or site.load_index is None:
                continue
            if site.load_cls not in (ADDR_STRIDE, ADDR_AFFINE):
                continue
            resolves[site.index] = site.load_index
        return BranchPlan(static_signature(self.table),
                          dict(sorted(resolves.items())))


class BranchPlan:
    """The static load-driven exit-branch contract handed to the
    scheduler.

    ``resolves`` maps exit-branch static index -> governing-load static
    index.  Duck-typed by :class:`repro.core.scheduler.WindowScheduler`
    and :class:`repro.lint.sanitize.SchedulerSanitizer`.
    """

    __slots__ = ("signature", "resolves")

    def __init__(self, signature, resolves):
        for branch, load in resolves.items():
            if branch == load:
                raise ValueError(
                    "branch plan maps branch #%d to itself" % (branch,))
        self.signature = signature
        self.resolves = resolves

    def validate(self, static):
        """Raise ValueError when ``static`` (a StaticTable) is not the
        program this plan was derived from."""
        if static_signature(static) != self.signature:
            raise ValueError(
                "branch plan does not match the trace's static program; "
                "rebuild the plan from the same workload and scale")

    def __repr__(self):
        return "<BranchPlan %d load-driven exit branches>" % (
            len(self.resolves),)


# ----------------------------------------------------------------------
# Dynamic cross-check
# ----------------------------------------------------------------------


class BranchflowCheck(CheckResult):
    """Outcome of :func:`branchflow_cross_check`."""

    __slots__ = ("conditional", "sites", "floors_checked",
                 "coverage_bound", "confident_coverage", "floor",
                 "ceiling", "accuracy", "sim_cycles", "refined_ipc",
                 "early_coverage", "plan_branches", "sim")

    def __init__(self):
        CheckResult.__init__(self)
        self.conditional = 0
        self.sites = 0
        self.floors_checked = 0
        self.coverage_bound = 1.0
        self.confident_coverage = 0.0
        self.floor = 0              # guaranteed mispredictions
        self.ceiling = 1.0          # static accuracy ceiling
        self.accuracy = 0.0         # measured combining accuracy
        self.sim_cycles = None      # config-C cycles (fetch side)
        self.refined_ipc = None     # fetch-refined IPC ceiling
        self.early_coverage = None  # config-J early resolves / branch
        self.plan_branches = 0
        self.sim = {}               # letter -> SimResult


def branchflow_cross_check(branchflow, trace, result=None,
                           sim_results=None,
                           table_entries=_PC_TABLE_ENTRIES):
    """Prove the static branch claims against dynamic evidence.

    ``result`` is a :class:`repro.bpred.runner.BranchRunResult` with
    per-PC histograms (computed here when absent).  ``sim_results``
    supplies the ``{"C": .., "I": .., "J": ..}`` simulations of one
    issue width (config J run with this analysis's plan); without it
    the fetch-side and config-J links are skipped.

    Checks, in soundness-chain order:

    1. per-PC trip floors — ``exits <= count // trip + 1`` for every
       ``trip`` site (over raw outcomes, so truncated traces and early
       exits through other branches stay sound);
    2. class-capped static coverage >= measured confident-correct
       coverage;
    3. static accuracy ceiling >= measured combining accuracy
       (a theorem given the cold-start floor);
    4. config-C cycles >= the guaranteed misprediction floor (the
       ``lint.ipcbound`` fetch-side refinement);
    5. config J never takes more cycles than config I (the plan only
       waives fences), and its early-resolution coverage stays below
       the measured accuracy, closing the chain
       ``ceiling >= accuracy >= early coverage``.
    """
    from ..bpred.runner import run_branch_predictor

    check = BranchflowCheck()
    check.sites = len(branchflow.sites)
    if result is None or result.per_pc is None:
        result = run_branch_predictor(trace, per_pc=True)
    check.conditional = result.conditional
    if not result.conditional:
        return check

    # ---- link 1: per-PC trip floors
    per_pc = result.per_pc
    for site in branchflow.sites:
        if site.cls != CLASS_TRIP:
            continue
        stat = per_pc.get(site.pc)
        if stat is None:
            continue
        exits = stat.taken if site.exit_taken \
            else stat.count - stat.taken
        allowed = stat.count // site.trip + 1
        check.floors_checked += 1
        if exits > allowed:
            check.violations.append(
                "trip branch #%d (line %s): %d exit outcomes over %d "
                "executions exceeds the trip-count floor %d "
                "(trip=%d) — the recovered bound is wrong"
                % (site.index, site.line, exits, stat.count, allowed,
                   site.trip))

    # ---- link 2: class-capped coverage >= confident coverage
    check.coverage_bound = branchflow.coverage_bound(trace)
    check.confident_coverage = \
        result.confident_correct / result.conditional
    if check.coverage_bound * (1 + _REL_TOL) < check.confident_coverage:
        check.violations.append(
            "class-capped static coverage %.4f < measured "
            "confident-correct coverage %.4f — a BRANCH_COVERAGE_CAP "
            "entry is too tight"
            % (check.coverage_bound, check.confident_coverage))

    # ---- link 3: static ceiling >= measured accuracy
    floor, conditional = branchflow.misprediction_floor(trace,
                                                        table_entries)
    check.floor = floor
    if conditional != result.conditional:
        check.violations.append(
            "trace has %d conditional branches but the predictor run "
            "saw %d — mismatched trace/result pair"
            % (conditional, result.conditional))
        return check
    check.ceiling = 1.0 - floor / conditional
    check.accuracy = result.accuracy
    if check.ceiling * (1 + _REL_TOL) < check.accuracy:
        check.violations.append(
            "static accuracy ceiling %.4f < measured combining "
            "accuracy %.4f — a guaranteed misprediction was predicted"
            % (check.ceiling, check.accuracy))

    # ---- links 4 and 5: simulated fetch floor and config J
    check.plan_branches = len(branchflow.plan().resolves)
    if sim_results:
        check.sim = dict(sim_results)
        from .ipcbound import fetch_refined_ipc
        sim_c = sim_results.get("C")
        if sim_c is not None:
            check.sim_cycles = sim_c.cycles
            check.refined_ipc = fetch_refined_ipc(
                len(trace), sim_c.cycles, floor)
            if sim_c.cycles < floor:
                check.violations.append(
                    "config C finished in %d cycles, below the "
                    "guaranteed-misprediction fetch floor %d"
                    % (sim_c.cycles, floor))
        sim_i = sim_results.get("I")
        sim_j = sim_results.get("J")
        if sim_i is not None and sim_j is not None \
                and sim_j.cycles > sim_i.cycles:
            check.violations.append(
                "config J took %d cycles vs config I's %d — waiving "
                "fetch fences must never slow the machine down"
                % (sim_j.cycles, sim_i.cycles))
        if sim_j is not None and sim_j.branch_spec is not None:
            bspec = sim_j.branch_spec
            check.early_coverage = \
                bspec.early_resolved / result.conditional
            if check.accuracy * (1 + _REL_TOL) < check.early_coverage:
                check.violations.append(
                    "config-J early-resolution coverage %.4f exceeds "
                    "the measured combining accuracy %.4f — the "
                    "soundness chain ceiling >= accuracy >= coverage "
                    "is broken"
                    % (check.early_coverage, check.accuracy))
    return check


__all__ = ["ALL_BRANCH_CLASSES", "BRANCH_COVERAGE_CAP",
           "BRANCH_PREDICTABLE_CLASSES", "BranchFlowAnalysis",
           "BranchPlan", "BranchSite", "BranchflowCheck",
           "CLASS_EXIT", "CLASS_HISTORY", "CLASS_INVARIANT",
           "CLASS_LOAD", "CLASS_PERIODIC", "CLASS_STRAIGHT",
           "CLASS_TRIP", "CLASS_UNKNOWN", "branch_class_join",
           "branch_class_leq", "branchflow_cross_check"]
