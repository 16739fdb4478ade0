"""Beyond-paper extension experiments.

The paper sketches two ideas it does not simulate:

- **node elimination** (Figure 1.f): a collapsed producer whose result is
  not needed elsewhere need not execute;
- **load-value speculation** (Figure 1.d, citing Lipasti et al. [9]):
  predict the value a load returns, not just its address.

This driver quantifies both on top of configuration D, bounded above by
configuration E (ideal address speculation).
"""

from ..collapse.rules import CollapseRules
from ..core.config import LOAD_SPEC_REAL, WIDTH_LABELS, MachineConfig
from ..core.results import MECHANISM_STATS
from ..metrics.means import harmonic_mean, mean_ipc, mean_speedup
from .exhibit import Exhibit, register_exhibit

_VARIANTS = (
    ("D", False, False),
    ("D+elim", True, False),
    ("D+vspec", False, True),
    ("D+both", True, True),
)


def _variant_config(width, elim, vspec):
    return MachineConfig(width, collapse_rules=CollapseRules.paper(),
                         load_spec=LOAD_SPEC_REAL,
                         node_elimination=elim, value_spec=vspec)


def _merged(results, field):
    """The ``field`` stats records of ``results`` merged into one, and
    the factor scaling its counts to events per 1k instructions."""
    merged = dict(MECHANISM_STATS)[field]()
    for result in results:
        stats = getattr(result, field)
        if stats is not None:
            merged.merge(stats)
    return merged, 1000.0 / max(1, sum(r.instructions for r in results))


def extension_figure(runner):
    """Harmonic-mean speedup over A of D and its extensions, plus E."""
    headers = ["width"] + [label for label, _, _ in _VARIANTS] + ["E"]
    rows = []
    for width in runner.widths:
        row = [WIDTH_LABELS.get(width, str(width))]
        baselines = {name: runner.result(name, "A", width)
                     for name in runner.names}
        for label, elim, vspec in _VARIANTS:
            config = _variant_config(width, elim, vspec)
            ratios = []
            for name in runner.names:
                result = runner.simulate(name, config)
                ratios.append(result.speedup_over(baselines[name]))
            row.append(harmonic_mean(ratios))
        e_ratios = [runner.result(name, "E", width)
                    .speedup_over(baselines[name])
                    for name in runner.names]
        row.append(harmonic_mean(e_ratios))
        rows.append(row)
    return Exhibit(
        "Extension", "Node elimination and value speculation on top of D",
        headers, rows,
        note="harmonic-mean speedup over A; E bounds address speculation")


def dataflow_limits(runner):
    """Section 1's theoretical minimum vs. the simulated machines.

    Per workload: the dataflow-limit IPC (critical path of the true
    dependence graph, unbounded resources, perfect control), the same
    limit with greedy collapsing applied to the graph (Figure 1.e), and
    the simulated IPC of configurations A and C at the widest machine.
    """
    from ..analysis import DependenceGraph, collapsed_critical_path
    width = runner.widths[-1]
    headers = ["workload", "dataflow IPC", "collapsed-dataflow IPC",
               "A @ widest", "C @ widest", "E @ widest"]
    rows = []
    for name in runner.names:
        def compute(name=name):
            trace = runner.trace(name)
            graph = DependenceGraph(trace)
            return [len(trace), graph.critical_path(),
                    collapsed_critical_path(trace, CollapseRules.paper())]

        length, plain, collapsed = runner.cached_blob(
            "dataflow-limits",
            {"name": name, "scale": repr(runner.scale),
             "rules": CollapseRules.paper().fingerprint()},
            compute)
        rows.append([
            name,
            length / plain if plain else 0.0,
            length / collapsed if collapsed else 0.0,
            runner.result(name, "A", width).ipc,
            runner.result(name, "C", width).ipc,
            runner.result(name, "E", width).ipc,
        ])
    return Exhibit(
        "Dataflow", "Critical-path limits vs. simulated machines "
        "(widest width: %d)" % width, headers, rows,
        note="dataflow limits assume unbounded resources and perfect "
             "control; simulated machines add windows and real branch "
             "prediction; the greedy collapsed limit is an estimate, "
             "not a bound on E — see the recurrence exhibit")


def recurrence_bounds(runner):
    """Static loop-recurrence IPC ceilings vs the restructured
    dependence graphs vs the simulated machines.

    Per workload and graph variant (A base, C collapsed, E
    d-speculated, V value-speculated): the static ceiling
    ``instructions / recurrence floor`` derived from program text by
    :mod:`repro.lint.recurrence`, the dataflow-limit IPC of the
    matching restructured trace graph, and the simulated IPC at the
    widest machine (variant V checks against configuration I).
    ``graph E`` cuts only the loads the static pass classifies
    predictable (realizable speculation); ``graph E*`` cuts every
    load's address arcs — the oracle configuration E actually models,
    and the graph its simulated IPC is checked against.  ``graph V``
    cuts every out-arc of the static value cut set (all loads plus
    stride/invariant-predictable producers), the sound envelope of
    configuration I's squash/replay speculation.
    """
    from ..lint.ipcbound import SIM_LETTERS
    from ..lint.recurrence import VARIANTS
    width = runner.widths[-1]
    graph_keys = ("A", "C", "E", "E_ideal", "V")
    headers = (["workload", "loops"]
               + ["static %s" % v for v in VARIANTS]
               + ["graph A", "graph C", "graph E", "graph E*",
                  "graph V"]
               + ["%s @ widest" % SIM_LETTERS[v] for v in VARIANTS]
               + ["check"])
    rows = []
    for name in runner.names:
        def compute(name=name):
            # The whole soundness chain of `repro lint --recur-check`,
            # against this runner's cells at the widest machine.
            check = runner.lint_check("recurrence", name, width)
            return [check.n, check.loops_checked,
                    [check.static_floor[v] for v in VARIANTS],
                    [check.cp[k] for k in graph_keys], check.ok]

        n, loops, floors, paths, ok = runner.cached_blob(
            "recurrence-bounds",
            {"name": name, "scale": repr(runner.scale),
             "variants": "".join(VARIANTS), "width": width}, compute)
        graph_ipc = [n / cp if cp else 0.0 for cp in paths]
        sims = [runner.result(name, SIM_LETTERS[v], width).ipc
                for v in VARIANTS]
        rows.append([name, loops]
                    + [(n / f if f else "inf") for f in floors]
                    + graph_ipc + sims
                    + ["ok" if ok else "FAILED"])
    return Exhibit(
        "Recurrence", "Static recMII ceilings vs dependence-graph "
        "limits vs simulated machines (widest width: %d)" % width,
        headers, rows,
        note="per variant: static ceiling >= matching graph limit >= "
             "simulated IPC (E via graph E*, all address arcs cut; "
             "V via graph V against configuration I); 'inf' = no "
             "once-per-iteration must-recurrence survives")


def predictor_comparison(runner, width=16):
    """The paper's future-work question: better load-address predictors.

    Configuration D speedup over A per workload, with the load table
    swapped between the paper's two-delta (configuration D itself), a
    Markov correlation table, a two-delta+Markov hybrid, and the ideal
    predictor (configuration E's bound).
    """
    from ..addrpred import HybridTable, MarkovTable
    from ..addrpred.runner import run_address_predictor
    tables = (("markov", MarkovTable),
              ("hybrid", HybridTable))
    headers = (["workload", "two-delta"] + [label for label, _ in tables]
               + ["ideal (E)"])
    rows = []
    config = MachineConfig(width, collapse_rules=CollapseRules.paper(),
                           load_spec=LOAD_SPEC_REAL)
    for name in runner.names:
        baseline = runner.result(name, "A", width)
        row = [name, runner.result(name, "D", width).speedup_over(baseline)]
        for label, factory in tables:
            result = runner.simulate(
                name, config, extra_key={"addrpred": label},
                load_prediction=lambda n=name, f=factory:
                run_address_predictor(runner.trace(n), f()))
            row.append(result.speedup_over(baseline))
        row.append(runner.result(name, "E", width)
                   .speedup_over(baseline))
        rows.append(row)
    return Exhibit(
        "Future work", "Load-address predictor comparison "
        "(configuration D, width %d)" % width, headers, rows,
        note="speedup over configuration A; 'ideal' is configuration E")


def elimination_counts(runner, width=16):
    """Per-workload eliminated-instruction fractions at one width."""
    rows = []
    config = _variant_config(width, elim=True, vspec=False)
    for name in runner.names:
        result = runner.simulate(name, config)
        rows.append([name,
                     result.collapse.eliminated,
                     100.0 * result.collapse.eliminated
                     / max(1, result.instructions),
                     result.ipc])
    return Exhibit(
        "Extension", "Eliminated instructions (Figure 1.f) at width %d"
        % width,
        ["workload", "eliminated", "% of trace", "IPC"], rows)


@register_exhibit(
    "memory_speculation", order=60, letters=("A", "C", "F", "G"),
    note="The paper assumes perfect memory disambiguation throughout; "
         "configurations F (A + MDPT store-set predictor) and G (F + "
         "collapsing) replace it with realistic speculation: loads "
         "issue past unresolved stores, mispredictions squash and "
         "replay the dependent slice (docs/MODEL.md).  Shape: F <= A "
         "and G <= C at every width (up to the ~2% slot-stealing "
         "anomaly: speculative issue lets the window advance early); "
         "the gap is the price of realism, and violation rates fall "
         "as the MDPT trains.")
def memory_speculation(runner):
    """Realistic memory disambiguation: MDPT store-set configs F/G."""
    headers = ["width", "A", "F", "G", "F/A", "G/C",
               "viol/1k", "sync/1k", "flush cyc/1k"]
    rows = []
    for width in runner.widths:
        a = runner.results("A", width)
        c = runner.results("C", width)
        f = runner.results("F", width)
        g = runner.results("G", width)
        merged, per_1k = _merged(f, "memdep")
        rows.append([
            WIDTH_LABELS.get(width, str(width)),
            mean_ipc(a), mean_ipc(f), mean_ipc(g),
            mean_speedup(f, a), mean_speedup(g, c),
            per_1k * merged.violations,
            per_1k * merged.synchronized,
            per_1k * merged.flush_cycles,
        ])
    return Exhibit(
        "Memory speculation",
        "MDPT store-set disambiguation (F) and collapsing on top (G)",
        headers, rows, precision=3,
        note="harmonic-mean IPC; F/A and G/C harmonic-mean ratios "
             "(<= 1: realistic disambiguation cannot beat perfect "
             "memory); violation / MDST-sync / flush-cycle rates per "
             "1k instructions, configuration F, summed over the suite")


@register_exhibit(
    "value_speculation", order=63, letters=("C", "E", "I"),
    note="Configuration I (C + stride result-value speculation with "
         "squash/replay, docs/MODEL.md): consumers of "
         "predicted-confident loads issue on the predicted value, the "
         "load's completion verifies it, and every consumer that rode "
         "a wrong value is squashed and replayed once after the flush "
         "penalty.  Shape: I <= E at every width (oracle value "
         "speculation bounds any realizable predictor), and I may dip "
         "below C at small widths/scales — a wrong confident "
         "prediction costs a squash plus the flush penalty where "
         "configuration C would merely have waited.")
def value_speculation(runner):
    """Stride value speculation (I) between C and the oracle E."""
    headers = ["width", "C", "I", "E", "I/C", "I/E",
               "bypass/1k", "spec/1k", "squash/1k", "late/1k"]
    rows = []
    for width in runner.widths:
        c = runner.results("C", width)
        e = runner.results("E", width)
        i = runner.results("I", width)
        merged, per_1k = _merged(i, "value_spec")
        rows.append([
            WIDTH_LABELS.get(width, str(width)),
            mean_ipc(c), mean_ipc(i), mean_ipc(e),
            mean_speedup(i, c), mean_speedup(i, e),
            per_1k * merged.bypassed,
            per_1k * merged.speculated,
            per_1k * merged.squashes,
            per_1k * merged.late,
        ])
    return Exhibit(
        "Value speculation",
        "Stride result-value speculation with squash/replay (I)",
        headers, rows, precision=3,
        note="harmonic-mean IPC; I/C and I/E harmonic-mean ratios "
             "(I/E <= 1: the oracle bounds the mechanism); "
             "bypassed-arc / wrong-speculation / squash / "
             "late-consumer rates per 1k instructions, configuration "
             "I, summed over the suite")


@register_exhibit(
    "load_driven_branches", order=64, letters=("I", "J"),
    note="Configuration J (I + load-driven exit-branch prediction, "
         "docs/MODEL.md): a loop-exit branch the static branchflow "
         "pass proves governed by a classified load resolves at the "
         "load's address-generation time whenever the load's stride "
         "value prediction is confident and correct, waiving the "
         "misprediction fetch fence.  Shape: J <= I in cycles (a "
         "waived fence can only unblock fetch earlier) so J/I >= 1 "
         "in speedup; gains are confined to workloads whose kernels "
         "expose a load-governed exit (the suite's pointer/table "
         "kernels mostly do not), so most rows show J == I exactly.")
def load_driven_branches(runner):
    """Load-driven exit-branch prediction (J) over its base (I)."""
    headers = ["width", "I", "J", "J/I", "exit br/1k", "early/1k",
               "missed/1k", "early frac"]
    rows = []
    for width in runner.widths:
        i = runner.results("I", width)
        j = runner.results("J", width)
        merged, per_1k = _merged(j, "branch_spec")
        resolved = merged.early_resolved + merged.missed
        rows.append([
            WIDTH_LABELS.get(width, str(width)),
            mean_ipc(i), mean_ipc(j),
            mean_speedup(j, i),
            per_1k * merged.exit_branches,
            per_1k * merged.early_resolved,
            per_1k * merged.missed,
            (merged.early_resolved / resolved) if resolved else 0.0,
        ])
    return Exhibit(
        "Load-driven branches",
        "Load-driven exit-branch prediction on top of value "
        "speculation (J)",
        headers, rows, precision=3,
        note="harmonic-mean IPC; J/I harmonic-mean speedup (>= 1: a "
             "waived fence only helps); planned-exit-branch / "
             "early-resolved / missed rates per 1k instructions and "
             "the fraction of mispredicted planned exits resolved "
             "early, summed over the suite")


#: MDPT geometry sweep for the sensitivity exhibit: entry counts x
#: store-set sizes around the defaults (512 entries, 4-entry sets).
_MDPT_ENTRIES = (64, 128, 512, 1024)
_MDPT_STORE_SETS = (2, 4, 8)


@register_exhibit(
    "mdpt_sensitivity", order=61, letters=("A",), widths=(8,),
    note="Sensitivity of the MDPT store-set predictor to its table "
         "geometry at width 8 (default: 512 entries x 4-entry sets). "
         "The table only holds loads that actually violated, and the "
         "~70-instruction kernels train a handful of load PCs, so "
         "every geometry down to 64 entries behaves identically — "
         "the working set of violating loads fits the smallest "
         "table.  Degenerate tables (e.g. 1x1) do diverge, which is "
         "how the plumbing is unit-tested; at SPEC-binary scale the "
         "smaller geometries would alias.")
def mdpt_sensitivity(runner, width=8):
    """IPC and misspeculation rates across MDPT table geometries."""
    from ..core.config import paper_config
    headers = ["entries", "set size", "F", "F/A", "viol/1k", "sync/1k",
               "flush cyc/1k"]
    baselines = [runner.result(name, "A", width) for name in runner.names]
    rows = []
    for entries in _MDPT_ENTRIES:
        for store_set in _MDPT_STORE_SETS:
            config = paper_config("F", width, mdpt_entries=entries,
                                  mdpt_store_set=store_set)
            results = [runner.simulate(name, config)
                       for name in runner.names]
            merged, per_1k = _merged(results, "memdep")
            rows.append([
                entries, store_set, mean_ipc(results),
                mean_speedup(results, baselines),
                per_1k * merged.violations,
                per_1k * merged.synchronized,
                per_1k * merged.flush_cycles,
            ])
    return Exhibit(
        "MDPT sensitivity",
        "Store-set predictor geometry ablation (configuration F, "
        "width 8)",
        headers, rows, precision=3,
        note="harmonic-mean IPC over the suite; F/A against perfect "
             "memory; violation / sync / flush rates per 1k "
             "instructions summed over the suite")


@register_exhibit(
    "decoupled_streams", order=62, letters=("A", "H"),
    note="Configuration H (A + decoupled access/execute streams, "
         "docs/MODEL.md): loops the static slicer (repro.lint.dae) "
         "proves free of load-address chasing run their address "
         "slices ahead through bounded FIFO value queues, relaxing "
         "window occupancy.  Shape: H >= A everywhere, with the gain "
         "concentrated on stride-dominated (non pointer-chasing) "
         "workloads; pointer chasers have no clean loops to decouple "
         "and run exactly as A.")
def decoupled_streams(runner):
    """Decoupled access/execute (H) versus the base machine (A)."""
    from ..workloads.registry import NON_POINTER_CHASING
    headers = ["width", "A", "H", "H/A", "H/A (stride)", "bypass/1k",
               "enq/1k", "chase/1k", "peak q"]
    stride = [name for name in runner.names
              if name in NON_POINTER_CHASING]
    rows = []
    for width in runner.widths:
        a = runner.results("A", width)
        h = runner.results("H", width)
        a_stride = runner.results("A", width, stride)
        h_stride = runner.results("H", width, stride)
        merged, per_1k = _merged(h, "dae")
        rows.append([
            WIDTH_LABELS.get(width, str(width)),
            mean_ipc(a), mean_ipc(h),
            mean_speedup(h, a),
            mean_speedup(h_stride, a_stride),
            per_1k * merged.bypassed,
            per_1k * merged.enqueued,
            per_1k * merged.chase_deps,
            merged.peak,
        ])
    return Exhibit(
        "Decoupled streams",
        "Static access/execute decoupling (H) over the base machine",
        headers, rows, precision=3,
        note="harmonic-mean IPC; H/A harmonic-mean speedup over the "
             "full suite and over the stride-dominated (non "
             "pointer-chasing) subset; access-bypass / queue-enqueue "
             "/ chase-dependence rates per 1k instructions and peak "
             "queue occupancy, summed over the suite")
