"""Property tests of the scheduler's squash/replay recovery (hypothesis).

Two mechanisms squash issued instructions and replay them: MDPT memory
speculation (configs F and G), when a load issued before the store it
reads from completes, and value replay (config I), when a consumer
issued on a wrong confident value prediction.  The drawn programs touch
at most eight memory words, so store-to-load conflicts are common, and
repeat a loop body so the MDPT sees the same load and store PCs again.

Every run carries the sanitizer, which re-checks each squash, each
replay and the final schedule from its own bookkeeping.  The oracle
value mode (``value_spec=True``) must schedule exactly like the replay
mode fed only the prediction's correct entries.
"""

from helpers import build_trace, make_branch_result, prediction_pass, programs

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.analysis import DependenceGraph
from repro.collapse import CollapseRules
from repro.core import MachineConfig, WindowScheduler, paper_config
from repro.core.config import VALUE_SPEC_REPLAY
from repro.core.simulator import make_sanitizer
from repro.trace.records import LD


def run(trace, config, mispredicted, values=None):
    branch_result = make_branch_result(trace, mispredicted)
    sanitizer = make_sanitizer(trace, config, branch_result)
    return WindowScheduler(trace, config, branch_result,
                           value_prediction=values,
                           sanitizer=sanitizer).run()


def assert_keeps_edges(trace, result):
    """Every dependence edge holds in the final schedule: the consumer
    issues once the producer completed.  (Not a property of every F
    run: a load re-violated by its store's replay leaves the consumers
    that issued on its first value in place; see ROADMAP.md.)"""
    issue = result.issue_cycles
    lat = trace.static.lat
    for c, producers in enumerate(DependenceGraph(trace).preds):
        for p, kind in producers:
            assert issue[c] >= issue[p] + lat[trace.sidx[p]], \
                "%s edge %d -> %d" % (kind, p, c)


def value_config(width, value_spec, collapse, elim):
    return MachineConfig(
        width, collapse_rules=CollapseRules.paper() if collapse else None,
        node_elimination=elim, value_spec=value_spec)


widths = st.sampled_from([1, 2, 4, 8])


@settings(deadline=None)
@given(programs(), st.sampled_from("FG"), widths)
def test_memory_speculation_recovers(program, letter, width):
    trace, mispredicted, _ = program
    result = run(trace, paper_config(letter, width), mispredicted)
    event("violations" if result.memdep.violations else "no violation")
    assert min(result.issue_cycles) >= 0
    assert result.memdep.loads == sum(
        1 for i in range(len(trace))
        if trace.static.cls[trace.sidx[i]] == LD)


@settings(deadline=None)
@given(programs(), widths, st.booleans(), st.booleans())
def test_value_replay_recovers_exactly_once(program, width, collapse,
                                            elim):
    trace, mispredicted, outcomes = program
    config = value_config(width, VALUE_SPEC_REPLAY, collapse,
                          collapse and elim)
    result = run(trace, config, mispredicted, prediction_pass(outcomes))
    vspec = result.value_spec
    event("squashes" if vspec.squashes else "no squash")
    assert vspec.replays == vspec.squashes
    assert vspec.squashes <= vspec.speculated


@settings(deadline=None)
@given(programs(), widths, st.booleans(), st.booleans())
def test_oracle_value_mode_is_replay_on_correct_predictions(
        program, width, collapse, elim):
    trace, mispredicted, outcomes = program
    elim = collapse and elim
    oracle = run(trace, value_config(width, True, collapse, elim),
                 mispredicted, prediction_pass(outcomes))
    replay = run(trace, value_config(width, VALUE_SPEC_REPLAY, collapse,
                                     elim),
                 mispredicted, prediction_pass(outcomes, narrowed=True))
    assert oracle.issue_cycles == replay.issue_cycles
    assert oracle.eliminated_positions == replay.eliminated_positions
    assert oracle.collapse.to_payload() == replay.collapse.to_payload()
    assert oracle.loads.to_payload() == replay.loads.to_payload()


def test_fixed_program_reaches_both_recovery_engines():
    """A store whose data waits on a divide, then a load of the same
    word with its address ready at entry and a chain of consumers: F
    issues the load early and violates, and the replayed chain keeps
    its order; I, predicting the load's value wrongly, issues the
    consumer early and squashes it."""
    body = [("div", 1, 1), ("store", 1, 2), ("load", 3, 2),
            ("add", 4, 3, 0), ("add", 5, 4, 0)]
    trace = build_trace(body, 3, [0], [False])
    result = run(trace, paper_config("F", 4), [])
    assert result.memdep.violations > 0
    assert_keeps_edges(trace, result)
    loads = [i for i in range(len(trace))
             if trace.static.cls[trace.sidx[i]] == LD]
    result = run(trace, paper_config("I", 4), [],
                 prediction_pass(dict.fromkeys(loads, 1)))
    assert result.value_spec.squashes > 0
    assert result.value_spec.replays == result.value_spec.squashes
