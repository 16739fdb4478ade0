"""Cross-verification of the scheduler against the dependence graph.

These tests check the *whole schedule* (every instruction's issue cycle)
against independently computed constraints: issue-width limits, true
dependence edges from :class:`DependenceGraph`, misprediction fences, and
speculation semantics.  They are the strongest correctness net in the
suite — any dependence-tracking bug in the scheduler breaks them.
"""

from collections import Counter

from helpers import make_load_prediction, sim

from repro.analysis import DependenceGraph
from repro.collapse import CollapseRules
from repro.core import branch_outcomes
from repro.trace.records import LD
from repro.trace.synth import random_trace
from repro.workloads import cached_trace

PAPER = CollapseRules.paper()


def completion(trace, issue_cycles, position):
    return issue_cycles[position] + trace.static.lat[trace.sidx[position]]


def test_every_instruction_issues_exactly_once():
    trace = random_trace(400, seed=13)
    result = sim(trace, width=4)
    assert len(result.issue_cycles) == len(trace)
    assert all(cycle >= 0 for cycle in result.issue_cycles)


def test_issue_width_never_exceeded():
    for width in (1, 2, 4, 16):
        trace = random_trace(400, seed=17)
        result = sim(trace, width=width)
        per_cycle = Counter(result.issue_cycles)
        assert max(per_cycle.values()) <= width


def test_base_schedule_respects_every_dependence_edge():
    """Config A: for every true-dependence edge p -> c, c issues no
    earlier than p completes."""
    for seed in (1, 2, 3):
        trace = random_trace(500, seed=seed)
        result = sim(trace, width=8)
        issue = result.issue_cycles
        graph = DependenceGraph(trace)
        for c, plist in enumerate(graph.preds):
            for p, _kind in plist:
                assert issue[c] >= completion(trace, issue, p), \
                    "edge %d->%d violated" % (p, c)


def test_base_schedule_on_real_workload_edges():
    trace = cached_trace("eqntott", 0.03)
    result = sim(trace, width=8)
    issue = result.issue_cycles
    graph = DependenceGraph(trace)
    for c, plist in enumerate(graph.preds):
        for p, _kind in plist:
            assert issue[c] >= completion(trace, issue, p)


def test_mispredicted_branch_fences_followers():
    trace = random_trace(300, seed=21, branch_frac=0.25)
    branch = branch_outcomes(trace)
    result = sim(trace, width=8,
                 mispredicted=sorted(branch.mispredicted))
    issue = result.issue_cycles
    for position in sorted(branch.mispredicted):
        fence = issue[position]
        for later in range(position + 1, len(trace)):
            assert issue[later] > fence


def test_collapsed_schedule_respects_memory_and_data_edges():
    """Collapsing may relax register/cc edges but never memory or store
    data edges."""
    trace = random_trace(500, seed=23)
    result = sim(trace, width=8, collapse=PAPER)
    issue = result.issue_cycles
    graph = DependenceGraph(trace)
    for c, plist in enumerate(graph.preds):
        for p, kind in plist:
            if kind in ("mem", "data"):
                assert issue[c] >= completion(trace, issue, p)


def test_speculated_load_respects_memory_edges_only():
    trace = cached_trace("ijpeg", 0.05)
    from repro.core import paper_config, simulate_trace
    result = simulate_trace(trace, paper_config("D", 8))
    issue = result.issue_cycles
    graph = DependenceGraph(trace)
    cls = trace.static.cls
    for c, plist in enumerate(graph.preds):
        if cls[trace.sidx[c]] != LD:
            continue
        for p, kind in plist:
            if kind == "mem":
                assert issue[c] >= completion(trace, issue, p)


def test_wrong_prediction_schedule_identical_to_base():
    """A load with a wrong prediction must produce exactly the base
    machine's schedule (only stats differ)."""
    trace = random_trace(300, seed=29, load_frac=0.3)
    loads = [i for i, s in enumerate(trace.sidx)
             if trace.static.cls[s] == LD]
    prediction = make_load_prediction(
        attempted={p: True for p in loads},
        correct={p: False for p in loads})
    base = sim(trace, width=4)
    wrong = sim(trace, width=4, load_spec="real", load_pred=prediction)
    assert wrong.issue_cycles == base.issue_cycles


def test_collapsing_makes_no_instruction_later_in_readiness():
    """Weaker per-instruction property that *is* monotone: the collapsed
    machine's total cycles stay within the greedy-anomaly slack."""
    for seed in (31, 37):
        trace = random_trace(400, seed=seed)
        base = sim(trace, width=2048)   # no width contention
        collapsed = sim(trace, width=2048, collapse=PAPER)
        assert collapsed.cycles <= base.cycles
        # With unbounded width, greedy == dataflow, so per-instruction
        # monotonicity holds too.
        for b, c in zip(base.issue_cycles, collapsed.issue_cycles):
            assert c <= b
