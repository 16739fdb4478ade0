"""Static per-instruction result-value predictability classification.

The address-classification pass (:mod:`repro.lint.addrclass`) asks
*where* a load will point; this pass asks *what value* an instruction
will produce — the static side of the Sazeides & Smith value-locality
taxonomy, and the input to recurrence variant **V**
(:mod:`repro.lint.recurrence`), which prices loop recurrences under
result-value speculation (machine config I).

Every result-producing instruction is classified relative to its
innermost natural loop using the loop-relative value forms of
:mod:`repro.lint.induction` plus the bounded-congruence address
machinery of :mod:`repro.lint.memdep`:

============= =========================================================
``constant``    an immediate materialization (``mov rd, imm`` /
                ``sethi``): the same value every execution
``invariant``   loop-invariant during any single run — for non-loads a
                computation over invariant inputs; for loads an
                invariant address whose word no store in the loop can
                touch (every in-body store proved word-disjoint by the
                bounded-congruence resolver)
``stride``      a basic induction variable's update (``r = r ± imm``
                once per iteration): consecutive results differ by the
                constant step
``affine``      an affine function of a basic IV: constant
                per-iteration result stride (possibly statically
                unknown)
``periodic``    a provable short cycle — currently the XOR toggle
                ``xor r, imm -> r`` executing once per iteration
                (period 2); stride predictors cannot lock onto it, FCM
                predictors can
``load``        the result is (or is derived from) a load the loop
                produced: value known only to memory
``unknown``     everything else (hash mixing, multiple reaching
                definitions, call results, irreducible regions)
``straight``    not inside any natural loop: no per-PC pattern to claim
============= =========================================================

The classes form a join-semilattice ordered by claim strength
(``constant ⊑ invariant ⊑ stride ⊑ affine ⊑ unknown``,
``constant ⊑ periodic ⊑ unknown``, ``load ⊑ unknown``); ``class_join``
returns the weakest claim covering both operands, so merging control
paths can only *lose* precision — the soundness direction.

Two artifacts are derived:

- a **static coverage upper bound** on the stride *value* predictor's
  confident coverage per load PC: the invariant class predicts exact
  steady-state behaviour (misses confined to warmup plus re-lock after
  loop re-entries), every other class carries an audited coverage cap;
  :func:`valueflow_cross_check` asserts both directions against the
  dynamic per-PC histograms of ``repro.vpred``;

- the **variant-V cut set** (:meth:`ValueFlowAnalysis.cut_indices`):
  static indices whose result a value-speculating machine may bypass —
  every load (config I attempts any confident load) plus every
  statically stride/invariant-predictable non-load producer.  Both the
  static recMII variant V and the dynamic graph V cut exactly this
  set, which is what makes the static ceiling a theorem over the
  simulated config-I IPC (see :func:`valueflow_cross_check`).
"""

from ..isa.opcodes import Opcode
from .addrclass import LoadStreamCheck, _check_load_stream
from .dataflow import reg_defs
from .findings import _REL_TOL
from .induction import AFFINE, INV, IV, LOAD, LoopValues
from .memdep import _disjoint
from .sites import Site, SiteClassification, lattice

CLASS_CONSTANT = "constant"
CLASS_INVARIANT = "invariant"
CLASS_STRIDE = "stride"
CLASS_AFFINE = "affine"
CLASS_PERIODIC = "periodic"
CLASS_LOAD = "load"
CLASS_UNKNOWN = "unknown"
CLASS_STRAIGHT = "straight"

ALL_CLASSES = (CLASS_CONSTANT, CLASS_INVARIANT, CLASS_STRIDE,
               CLASS_AFFINE, CLASS_PERIODIC, CLASS_LOAD, CLASS_UNKNOWN,
               CLASS_STRAIGHT)

#: classes whose result stream a two-delta stride predictor locks onto
#: in steady state (constant per-execution delta within a run)
VALUE_PREDICTABLE_CLASSES = frozenset(
    (CLASS_CONSTANT, CLASS_INVARIANT, CLASS_STRIDE, CLASS_AFFINE))

#: upward-closure of each class in the claim-strength order; the join
#: of two classes is the lowest common member.
_UP = {
    CLASS_CONSTANT: frozenset((CLASS_CONSTANT, CLASS_INVARIANT,
                               CLASS_STRIDE, CLASS_AFFINE,
                               CLASS_PERIODIC, CLASS_UNKNOWN)),
    CLASS_INVARIANT: frozenset((CLASS_INVARIANT, CLASS_STRIDE,
                                CLASS_AFFINE, CLASS_UNKNOWN)),
    CLASS_STRIDE: frozenset((CLASS_STRIDE, CLASS_AFFINE, CLASS_UNKNOWN)),
    CLASS_AFFINE: frozenset((CLASS_AFFINE, CLASS_UNKNOWN)),
    CLASS_PERIODIC: frozenset((CLASS_PERIODIC, CLASS_UNKNOWN)),
    CLASS_LOAD: frozenset((CLASS_LOAD, CLASS_UNKNOWN)),
    CLASS_STRAIGHT: frozenset((CLASS_STRAIGHT, CLASS_UNKNOWN)),
    CLASS_UNKNOWN: frozenset((CLASS_UNKNOWN,)),
}

#: ``class_leq(a, b)``: class ``a`` makes at least as strong a claim as
#: ``b`` (``a ⊑ b``); ``class_join(a, b)``: the least upper bound, the
#: weakest claim soundly covering both
class_leq, class_join = lattice(_UP)


#: per-class upper bound on the fraction of dynamic loads whose stride
#: value prediction the confidence gate opens for.  1.0 for classes
#: with no negative claim; the ``load`` cap is an audited empirical
#: bound over the registered workloads (see docs/LINT.md) — memory
#: content can be arbitrarily regular (zero fills, sequential IDs), so
#: the cap encodes how regular the suite's actually is, and a violation
#: means the audit needs redoing.  Audit (stride predictor, per-class
#: confident coverage, scales 0.03/0.05/0.2): the ``load`` class peaks
#: at 0.233 (compress @ 0.03); 0.5 doubles that margin.
VALUE_COVERAGE_CAP = {
    CLASS_CONSTANT: 1.0,
    CLASS_INVARIANT: 1.0,
    CLASS_STRIDE: 1.0,
    CLASS_AFFINE: 1.0,
    CLASS_PERIODIC: 1.0,
    CLASS_LOAD: 0.5,
    CLASS_UNKNOWN: 1.0,
    CLASS_STRAIGHT: 1.0,
}

_CALL_OPS = frozenset((Opcode.CALL, Opcode.JMPL))
_TOGGLE_OPS = frozenset((Opcode.XOR, Opcode.XORCC))
_CONST_OPS = frozenset((Opcode.SETHI,))


class ValueSite(Site):
    """One static result-producing instruction with its value class."""

    __slots__ = ("stride", "period")

    def __init__(self, index, line, pc, cls, stride=None, period=None,
                 loop=None, note=""):
        Site.__init__(self, index, line, pc, cls, loop, note)
        self.stride = stride    # per-iteration result stride when known
        self.period = period    # period k for the periodic class

    def __repr__(self):
        return "<ValueSite #%d %s stride=%r period=%r>" % (
            self.index, self.cls, self.stride, self.period)


class ValueFlowAnalysis(SiteClassification):
    """Per-program result-value classification of every instruction
    that writes a register."""

    CLASSES = ALL_CLASSES
    COVERAGE_CAP = VALUE_COVERAGE_CAP
    TABLE_ENTRIES = 4096

    def __init__(self, program, values=None):
        SiteClassification.__init__(
            self, program,
            values if values is not None else LoopValues(program))
        self.load_sites = []        # the cross-check universe
        self._store_forms = {}      # loop header -> [(index, form)]
        self._classify()

    def _classify(self):
        for i, ins in enumerate(self.program.instructions):
            if ins.is_store or ins.rd <= 0:
                continue            # no architectural result (%g0 sinks)
            site = self._classify_site(i, ins)
            self.sites.append(site)
            self.by_index[i] = site
            if ins.is_load:
                self.load_sites.append(site)

    def _classify_site(self, i, ins):
        line = ins.line
        pc = self.program.address_of_index(i)
        loop = self.forest.loop_of(i)
        if loop is None:
            return ValueSite(i, line, pc, CLASS_STRAIGHT)
        if self.forest.in_irreducible_region(i):
            return ValueSite(i, line, pc, CLASS_UNKNOWN, loop=loop,
                             note="irreducible region")
        if ins.is_load:
            return self._classify_load(i, ins, loop)
        if ins.opcode in _CALL_OPS:
            return ValueSite(i, line, pc, CLASS_UNKNOWN, loop=loop,
                             note="call result")
        kind, stride = self.values.def_form(i, loop)
        if kind == INV:
            if ins.opcode in _CONST_OPS \
                    or (ins.opcode is Opcode.MOV and ins.imm is not None):
                return ValueSite(i, line, pc, CLASS_CONSTANT, stride=0,
                                 loop=loop)
            return ValueSite(i, line, pc, CLASS_INVARIANT, stride=0,
                             loop=loop)
        if kind == IV:
            return ValueSite(i, line, pc, CLASS_STRIDE, stride=stride,
                             loop=loop)
        if kind == AFFINE:
            iv = self.values.ivs_of(loop).get(ins.rd)
            if iv is not None and i in iv.sites:
                # The IV's own update: results walk the step exactly.
                return ValueSite(i, line, pc, CLASS_STRIDE,
                                 stride=stride, loop=loop)
            return ValueSite(i, line, pc, CLASS_AFFINE, stride=stride,
                             loop=loop)
        if kind == LOAD:
            return ValueSite(i, line, pc, CLASS_LOAD, loop=loop)
        period = self._toggle_period(i, ins, loop)
        if period is not None:
            return ValueSite(i, line, pc, CLASS_PERIODIC, period=period,
                             loop=loop)
        return ValueSite(i, line, pc, CLASS_UNKNOWN, loop=loop)

    # -- loads: invariant value iff invariant address + no in-loop write

    def _classify_load(self, i, ins, loop):
        line = ins.line
        pc = self.program.address_of_index(i)
        if ins.rs1 >= 0:
            base, offset = self.values.address_forms(i, loop)
            if base[0] != INV or offset[0] != INV:
                return ValueSite(i, line, pc, CLASS_LOAD, loop=loop,
                                 note="address varies in loop")
        if self._loop_has_call(loop):
            return ValueSite(i, line, pc, CLASS_LOAD, loop=loop,
                             note="call in loop may store")
        form = self.values.resolver.address_form(i)
        if form is None:
            return ValueSite(i, line, pc, CLASS_LOAD, loop=loop,
                             note="address unresolved")
        for store, store_form in self._stores_of(loop):
            if store_form is None \
                    or not _disjoint(form, store_form):
                return ValueSite(i, line, pc, CLASS_LOAD, loop=loop,
                                 note="store #%d may alias" % (store,))
        return ValueSite(i, line, pc, CLASS_INVARIANT, stride=0,
                         loop=loop)

    def _loop_has_call(self, loop):
        instrs = self.program.instructions
        return any(instrs[s].opcode in _CALL_OPS for s in loop.body)

    def _stores_of(self, loop):
        forms = self._store_forms.get(loop.header)
        if forms is None:
            instrs = self.program.instructions
            address_form = self.values.resolver.address_form
            forms = [(s, address_form(s))
                     for s in sorted(loop.body) if instrs[s].is_store]
            self._store_forms[loop.header] = forms
        return forms

    # -- periodic(k): the XOR toggle ------------------------------------

    def _toggle_period(self, i, ins, loop):
        """Period of a provable value cycle at ``i``, or None.

        Currently the XOR toggle: ``xor r, imm -> r`` (imm != 0) as the
        only in-body definition of ``r``, executing exactly once per
        iteration, in a loop no call can clobber.  The input of each
        execution is the previous execution's output (the entry value
        on iteration one, invariant per run), so results alternate with
        period 2 within every run.
        """
        if ins.opcode not in _TOGGLE_OPS or ins.imm is None \
                or ins.imm == 0 or ins.rs1 != ins.rd:
            return None
        instrs = self.program.instructions
        reg = ins.rd
        for s in loop.body:
            if s != i and reg in reg_defs(instrs[s]):
                return None
        if self._loop_has_call(loop):
            return None
        if self.forest.loop_of(i) is not loop:
            return None
        dom = self.forest.dom
        if not all(dom.dominates(i, tail)
                   for tail, _ in loop.back_edges):
            return None
        return 2

    @property
    def observed(self):
        """The load sites: the value predictor observes loads only."""
        return self.load_sites

    # -- derived artifacts ----------------------------------------------

    def cut_indices(self):
        """Static indices whose out-arcs (register, condition-code and
        store-data, never memory) recurrence variant V and dynamic
        graph V cut: every load, plus every non-load producer whose
        result class is stride/invariant-predictable.  The soundness of
        the V chain needs only that the static and dynamic graphs cut
        the *same* set; this method is that single source of truth."""
        cut = set()
        for i, ins in enumerate(self.program.instructions):
            if ins.is_load:
                cut.add(i)
        for site in self.sites:
            if site.cls in VALUE_PREDICTABLE_CLASSES \
                    and site.index not in cut:
                cut.add(site.index)
        return cut

    def summary_rows(self):
        """Rows (index, line, class, stride/period, loop-header line,
        depth) for the CLI ``--value`` table."""
        rows = []
        for site in self.sites:
            if site.cls == CLASS_PERIODIC:
                detail = "k=%d" % (site.period,)
            elif site.cls in VALUE_PREDICTABLE_CLASSES:
                detail = site.stride if site.stride is not None else "?"
            else:
                detail = "-"
            rows.append(self._row(site, detail))
        return rows


# ----------------------------------------------------------------------
# Dynamic cross-check: per-PC histograms + the variant-V IPC chain.
# ----------------------------------------------------------------------

class ValueflowCheck(LoadStreamCheck):
    """Result of :func:`valueflow_cross_check` for one
    (program, trace) pair."""

    __slots__ = ("static_floor", "static_bound", "graph_cp", "graph_ipc",
                 "sim_ipc", "widest", "runs_checked")

    def __init__(self):
        LoadStreamCheck.__init__(self)
        #: largest single-run variant-V recurrence floor (cycles)
        self.static_floor = 0
        #: n / floor, None when no run produced a floor (unbounded)
        self.static_bound = None
        self.graph_cp = 0
        self.graph_ipc = 0.0
        self.sim_ipc = None
        self.widest = 0
        self.runs_checked = 0


def valueflow_cross_check(valueflow, trace, result=None, recurrence=None,
                          sim_ipc=None, widest=2048, table_entries=4096):
    """Verify the static value claims against the dynamic machinery.

    Two halves, matching the acceptance inequalities:

    - **per PC** — ``result`` (or a fresh
      ``run_value_predictor(trace, predictor="stride", per_pc=True)``
      pass) must respect every predictable-class load's soundness
      floor and stability budget, and the trace-weighted class caps
      must dominate the dynamic confident coverage (the check the
      address classification runs);

    - **variant V** — with ``recurrence`` (a
      :class:`~repro.lint.recurrence.RecurrenceAnalysis` built over
      this ``valueflow``), the chain *static variant-V ceiling >=
      graph-V dataflow IPC >= simulated config-I IPC at width
      ``widest``* is asserted: link 1 checks each run's static per-lap
      latency against the anchor's depth growth in graph V, link 2
      checks the floor against graph V's issue-based critical path,
      and link 3 checks ``sim_ipc``, the simulated config-I IPC at
      width ``widest``, when given.  Both
      sides cut exactly :meth:`ValueFlowAnalysis.cut_indices`, so a
      violation means a must-edge failed to materialize or the
      scheduler outran its own dependence graph.
    """
    check = ValueflowCheck()
    check.widest = widest
    if result is None:
        from ..vpred.runner import run_value_predictor
        result = run_value_predictor(trace, predictor="stride",
                                     per_pc=True)
    if result.per_pc is None:
        raise ValueError("valueflow_cross_check needs per-PC stats: run "
                         "the predictor with per_pc=True")
    _check_load_stream(
        check, valueflow, VALUE_PREDICTABLE_CLASSES, trace, result,
        table_entries,
        relock="line %s: load #%d (%s) broke the stride-value re-lock "
               "bound: %d/%d correct, floor %d with %d stride changes",
        unstable="line %s: load #%d classified %s but its value stream "
                 "changed stride %d times over %d loads across %d loop "
                 "entries (budget %d) — statically claimed invariance "
                 "does not hold within the loop",
        capped="static value-coverage bound %.3f < dynamic stride "
               "predictor coverage %.3f — the load-class cap is "
               "violated or loads are misclassified")

    # ---- variant V: static ceiling >= graph V >= simulated config I
    if recurrence is None:
        return check
    from ..analysis import restructured_depths
    from ..analysis.depgraph import issue_cycles
    from .ipcbound import _lap, _scan_runs

    depths = restructured_depths(trace, collapse=True,
                                 cut_value_producers=recurrence.value_cut)
    n = len(trace)
    check.graph_cp = issue_cycles(trace, depths)
    check.graph_ipc = n / check.graph_cp if check.graph_cp else 0.0

    for rec, anchors in _scan_runs(recurrence, trace, ("V",)):
        lap = _lap(rec, anchors, "V", depths)
        if lap is None:
            continue
        best, laps, cycle_lat, growth = lap
        check.runs_checked += 1
        need = laps * cycle_lat
        if growth < need:
            check.violations.append(
                "loop@%d variant V: static recurrence floor %d cycles "
                "(%d laps x %d) exceeds graph-V depth growth %d at "
                "anchor #%d"
                % (rec.loop.header, need, laps, cycle_lat, growth,
                   best.anchor))
        if need > check.static_floor:
            check.static_floor = need
    if check.static_floor:
        check.static_bound = n / check.static_floor
        if check.static_floor > check.graph_cp:
            check.violations.append(
                "variant V: static cycle floor %d exceeds the graph-V "
                "critical path %d — static IPC ceiling %.3f undercuts "
                "the dataflow limit %.3f"
                % (check.static_floor, check.graph_cp,
                   check.static_bound, check.graph_ipc))

    if sim_ipc is not None:
        check.sim_ipc = sim_ipc
        if check.graph_ipc * (1 + _REL_TOL) < sim_ipc:
            check.violations.append(
                "variant V: graph-V dataflow limit %.3f IPC < simulated "
                "config-I %.3f IPC at width %d — the scheduler outran "
                "its own dependence graph"
                % (check.graph_ipc, sim_ipc, widest))
        if check.static_bound is not None \
                and check.static_bound * (1 + _REL_TOL) < sim_ipc:
            check.violations.append(
                "variant V: static IPC ceiling %.3f < simulated "
                "config-I %.3f IPC at width %d"
                % (check.static_bound, sim_ipc, widest))
    return check


__all__ = [
    "ALL_CLASSES", "CLASS_AFFINE", "CLASS_CONSTANT", "CLASS_INVARIANT",
    "CLASS_LOAD", "CLASS_PERIODIC", "CLASS_STRAIGHT", "CLASS_STRIDE",
    "CLASS_UNKNOWN", "VALUE_COVERAGE_CAP", "VALUE_PREDICTABLE_CLASSES",
    "ValueFlowAnalysis", "ValueSite", "ValueflowCheck", "class_join",
    "class_leq", "valueflow_cross_check",
]
