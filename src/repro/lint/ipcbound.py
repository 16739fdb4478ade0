"""Dynamic and simulated cross-checks of the static recurrence bounds.

:mod:`repro.lint.recurrence` derives, from program text alone, the
per-iteration recurrence latency of every innermost reducible loop
under four graph variants (base A, collapsed C, load-speculated E,
value-speculated V).  This module asserts the full soundness chain
against one trace of the same program:

1. **static <= dynamic growth** — for every run of an analyzed loop
   and every variant, the static per-lap recurrence latency is at most
   the observed depth growth of the recurrence's anchor instruction in
   the matching dynamic dependence graph: the base graph
   (:meth:`DependenceGraph.depths`) for A, the freely-contracted graph
   (:func:`restructured_depths`) for C, and the contracted graph with
   the *statically predictable* loads' address arcs cut for E.

2. **static IPC bound >= dataflow IPC** — the per-workload static
   ceiling ``instructions / (best single-run recurrence floor)``
   dominates the matching graph's dataflow-limit IPC.  Graph IPC uses
   the *issue-based* critical path (the latest earliest-issue time plus
   one, :func:`~repro.analysis.depgraph.issue_cycles`), matching the
   simulator's cycle count (cycles end at the last issue, not the last
   completion); the floor is a difference of same-instruction depths —
   i.e. of issue times — so it never exceeds that path.

3. **dataflow IPC >= simulated IPC at the widest machine** — each
   restructured graph's limit dominates the matching simulated
   configuration: A against config A, contracted against config C,
   and — because ideal speculation in the simulator breaks *every*
   load's address dependences, not only the statically predictable
   ones — the contracted graph with **all** load address arcs cut
   against config E.  The statically-cut E graph is bridged to the
   ideal one by ``CP(static cut) >= CP(all cut)``.  Variant V checks
   against config I (stride value speculation with squash/replay):
   the V graph cuts every out-arc of the static value cut set — all
   loads plus stride/invariant-predictable producers — a strict
   superset of the arcs config I's machine ever bypasses (only
   confidently-predicted loads, and wrong predictions replay), so
   ``graph V IPC >= simulated config-I IPC`` is a theorem.

A violation anywhere in the chain means a static must-edge does not
materialize, a latency is mismodeled, or the scheduler outruns its
own dependence graph — each worth a loud failure (exit code 2 in
``repro lint --recur-check``).
"""

from ..analysis import DependenceGraph, restructured_depths
from ..analysis.depgraph import issue_cycles
from .addrclass import PREDICTABLE_CLASSES
from .findings import _REL_TOL, CheckResult
from .recurrence import VARIANTS

#: simulated machine letter per graph variant
SIM_LETTERS = {"A": "A", "C": "C", "E": "E", "V": "I"}
#: dynamic graph each variant's simulated IPC is checked against (E's
#: machine speculates every load, so its graph cuts every load's arcs)
SIM_GRAPHS = {"A": "A", "C": "C", "E": "E_ideal", "V": "V"}


class RecurrenceCheck(CheckResult):
    """Result of :func:`recurrence_cross_check` for one
    (program, trace) pair."""

    __slots__ = ("n", "cp", "ipc", "sim", "widest", "static_floor",
                 "static_bound", "loops_checked", "runs_checked")

    def __init__(self):
        CheckResult.__init__(self)
        self.n = 0
        #: variant -> critical path of the matching dynamic graph
        #: (plus "E_ideal" for the all-loads-cut graph)
        self.cp = {}
        self.ipc = {}
        self.sim = {}               # variant -> simulated IPC @ widest
        self.widest = 0
        #: variant -> largest single-run recurrence floor (cycles)
        self.static_floor = dict.fromkeys(VARIANTS, 0)
        #: variant -> n / floor, None when no run produced a floor
        self.static_bound = dict.fromkeys(VARIANTS, None)
        self.loops_checked = 0
        self.runs_checked = 0


def variant_depth_arrays(trace, classes, value_cut=None):
    """The dynamic depth arrays the chain compares against: ``A``
    (base), ``C`` (freely contracted), ``E`` (contracted + statically
    predictable loads cut), ``E_ideal`` (contracted + every load cut,
    the sound bound on ideal speculation) and — when ``value_cut``
    (the static value-speculation cut set) is given — ``V``
    (contracted + every out-arc of the cut set removed, the sound
    bound on config I's result-value speculation)."""
    predictable = {index for index, site in classes.by_index.items()
                   if site.cls in PREDICTABLE_CLASSES}
    arrays = {
        "A": DependenceGraph(trace).depths(),
        "C": restructured_depths(trace, collapse=True),
        "E": restructured_depths(trace, collapse=True,
                                 cut_addr_loads=predictable),
        "E_ideal": restructured_depths(trace, collapse=True,
                                       cut_all_loads=True),
    }
    if value_cut is not None:
        arrays["V"] = restructured_depths(trace, collapse=True,
                                          cut_value_producers=value_cut)
    return arrays


def _scan_runs(analysis, trace, variants):
    """Per-loop runs of the trace: consecutive positions inside one
    analyzed loop's body, with the positions of the anchor instruction
    of each of ``variants``.  A loop that none of them bounds gives no
    runs.  Returns a list of ``(rec, anchors)``."""
    body_loop = {}
    anchor_sets = {}
    for rec in analysis.loops:
        anchors = {rec.best[v].anchor for v in variants
                   if rec.best[v] is not None}
        if not anchors:
            continue
        anchor_sets[id(rec)] = anchors
        for i in rec.loop.body:
            body_loop[i] = rec
    runs = []
    current_rec = None
    current_anchors = None
    for pos, s in enumerate(trace.sidx):
        rec = body_loop.get(s)
        if rec is not current_rec:
            if current_rec is not None:
                runs.append((current_rec, current_anchors))
            current_rec = rec
            current_anchors = {} if rec is not None else None
        if rec is not None and s in anchor_sets[id(rec)]:
            current_anchors.setdefault(s, []).append(pos)
    if current_rec is not None:
        runs.append((current_rec, current_anchors))
    return runs


def _lap(rec, anchors, variant, depths):
    """Link 1's evidence for one run of ``rec`` (``anchors`` from
    :func:`_scan_runs`) in ``variant``, whose dynamic graph has the
    per-position ``depths``: ``(best, laps, lat, growth)`` — the
    variant's best cycle, the whole laps of it the run completed, its
    static per-lap latency and the anchor's depth growth over those
    laps — or None when the variant constrains the run not at all."""
    best = rec.best[variant]
    if best is None:
        return None
    lat = best.latency[variant]
    if not lat:
        return None                 # fully contracted: no constraint
    positions = anchors.get(best.anchor, ())
    laps = (len(positions) - 1) // best.dist
    if laps < 1:
        return None
    growth = depths[positions[laps * best.dist]] - depths[positions[0]]
    return best, laps, lat, growth


def recurrence_cross_check(analysis, trace, sim_ipcs=None, widest=2048):
    """Assert the static/dynamic/simulated soundness chain.

    ``analysis`` is a :class:`repro.lint.recurrence.RecurrenceAnalysis`
    of the program that produced ``trace``.  ``sim_ipcs`` supplies the
    simulated ``{"A": ipc, "C": ipc, "E": ipc, "V": ipc}`` of the
    matching configurations (config I for variant V) at width
    ``widest``; without it link 3 is skipped.
    """
    check = RecurrenceCheck()
    check.n = len(trace)
    check.widest = widest
    depths = variant_depth_arrays(trace, analysis.classes,
                                  value_cut=analysis.value_cut)
    for key, array in depths.items():
        check.cp[key] = issue_cycles(trace, array)
        check.ipc[key] = check.n / check.cp[key] if check.cp[key] \
            else 0.0

    # ---- link 1: static per-lap latency <= dynamic depth growth
    checked_loops = set()
    for rec, anchors in _scan_runs(analysis, trace, VARIANTS):
        check.runs_checked += 1
        checked_loops.add(id(rec))
        for variant in VARIANTS:
            lap = _lap(rec, anchors, variant, depths[variant])
            if lap is None:
                continue
            best, laps, lat, growth = lap
            need = laps * lat
            if growth < need:
                check.violations.append(
                    "loop@%d variant %s: static recurrence floor %d "
                    "cycles (%d laps x %d) exceeds dynamic depth "
                    "growth %d at anchor #%d"
                    % (rec.loop.header, variant, need, laps, lat,
                       growth, best.anchor))
            if need > check.static_floor[variant]:
                check.static_floor[variant] = need
    check.loops_checked = len(checked_loops)

    # ---- link 2: static IPC bound >= dataflow IPC (matching graph)
    for variant in VARIANTS:
        floor = check.static_floor[variant]
        if not floor:
            continue
        check.static_bound[variant] = check.n / floor
        if floor > check.cp[variant]:
            check.violations.append(
                "variant %s: static cycle floor %d exceeds the "
                "dataflow critical path %d — static IPC bound %.3f "
                "undercuts the dataflow limit %.3f"
                % (variant, floor, check.cp[variant],
                   check.static_bound[variant], check.ipc[variant]))

    # ---- link 3: dataflow IPC >= simulated IPC at the widest machine
    if sim_ipcs:
        check.sim = dict(sim_ipcs)
        for variant, graph_key in SIM_GRAPHS.items():
            sim = sim_ipcs.get(variant)
            if sim is None:
                continue
            limit = check.ipc[graph_key]
            if limit * (1 + _REL_TOL) < sim:
                check.violations.append(
                    "variant %s: dataflow limit %.3f IPC (graph %s) < "
                    "simulated %.3f IPC at width %d — the scheduler "
                    "outran its own dependence graph"
                    % (variant, limit, graph_key, sim, widest))
        if check.cp["E"] < check.cp["E_ideal"]:
            check.violations.append(
                "cutting every load's address arcs lengthened the "
                "critical path (%d -> %d) — impossible for a pure "
                "edge removal"
                % (check.cp["E"], check.cp["E_ideal"]))
        if "V" in check.cp and check.cp["V"] > check.cp["C"]:
            check.violations.append(
                "cutting the value-speculated producers' out-arcs "
                "lengthened the critical path (%d -> %d) — impossible "
                "for a pure edge removal"
                % (check.cp["C"], check.cp["V"]))
    return check


def fetch_refined_ipc(instructions, cycles, mispredict_floor):
    """Fetch-side IPC refinement from the branchflow cold-start floor.

    A realistic-fetch machine (config C and up) pays at least one
    fetch-stall cycle per *guaranteed* misprediction
    (:meth:`repro.lint.branchflow.BranchFlowAnalysis
    .misprediction_floor`), so its cycle count can never drop below the
    floor and the achievable IPC is at most
    ``instructions / max(cycles, floor)``.
    """
    denominator = max(cycles, mispredict_floor)
    if denominator <= 0:
        return float(instructions)
    return instructions / denominator


__all__ = ["RecurrenceCheck", "SIM_GRAPHS", "SIM_LETTERS",
           "fetch_refined_ipc", "recurrence_cross_check",
           "variant_depth_arrays"]
