"""Scheduler sanitizer tests (repro.lint.sanitize).

Two directions: real sanitized runs must pass on every configuration
(the scheduler obeys its own model), and a sanitizer driven with
deliberately wrong hook sequences must object (the checks have teeth).
"""

import pytest

from helpers import make_branch_result
from synth import TraceBuilder, random_trace

from repro.collapse import CollapseRules
from repro.core import MachineConfig
from repro.core.config import config_letters, paper_config
from repro.core.simulator import make_sanitizer, simulate_trace
from repro.lint import SanitizeError, SchedulerSanitizer
from repro.workloads import cached_trace

SCALE = 0.04


# ----------------------------------------------------------------------
# Clean runs: the scheduler holds its own invariants.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("letter", config_letters())
def test_paper_configs_pass_sanitized(letter):
    trace = cached_trace("eqntott", SCALE)
    result = simulate_trace(trace, paper_config(letter, 8),
                            sanitize=True)
    assert result.cycles > 0


@pytest.mark.parametrize("name", ["li", "vortex"])
def test_pointer_chasers_pass_sanitized(name):
    trace = cached_trace(name, SCALE)
    result = simulate_trace(trace, paper_config("D", 16), sanitize=True)
    assert result.cycles > 0


def test_extension_variants_pass_sanitized():
    trace = cached_trace("compress", SCALE)
    for config in (
        MachineConfig(8, collapse_rules=CollapseRules.paper(),
                      node_elimination=True),
        MachineConfig(8, collapse_rules=CollapseRules.paper(),
                      value_spec=True),
        MachineConfig(8, collapse_rules=CollapseRules.no_zero_detection(),
                      load_spec="ideal"),
        MachineConfig(4, collapse_rules=CollapseRules.consecutive_only()),
    ):
        result = simulate_trace(trace, config, sanitize=True)
        assert result.cycles > 0


def test_random_trace_passes_sanitized():
    trace = random_trace(800, seed=3)
    config = paper_config("C", 4)
    result = simulate_trace(trace, config, sanitize=True)
    assert result.cycles > 0


def test_sanitizer_counters_report_work():
    trace = cached_trace("eqntott", SCALE)
    config = paper_config("C", 8)
    sanitizer = make_sanitizer(trace, config)
    from repro.core.scheduler import WindowScheduler
    from repro.core.simulator import branch_outcomes
    WindowScheduler(trace, config, branch_outcomes(trace),
                    sanitizer=sanitizer).run()
    assert sanitizer.checked_instructions == len(trace)
    assert sanitizer.checked_merges > 0
    assert sanitizer.violation_count == 0


# ----------------------------------------------------------------------
# Violation detection: drive the hooks with broken sequences.
# ----------------------------------------------------------------------

def chain_trace(n=4):
    """r1 = move; then n-1 dependent adds."""
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    for i in range(1, n):
        builder.add(dest=i + 1, src1=i, imm=True)
    return builder.build()


def fresh(trace, width=4, window=None, mispredicted=None, rules=None):
    config = MachineConfig(width, window_size=window,
                           collapse_rules=rules)
    branch = make_branch_result(trace, mispredicted)
    return SchedulerSanitizer(trace, config, branch.mispredicted)


def finish_error(san):
    with pytest.raises(SanitizeError) as excinfo:
        san.finish()
    return str(excinfo.value)


def test_clean_manual_run_passes():
    trace = chain_trace(3)
    san = fresh(trace)
    for i in range(3):
        san.on_enter(i, 0)
    for i in range(3):
        san.on_issue(i, i)                  # unit-latency chain
    san.finish()                            # no raise
    assert san.violation_count == 0


def test_issue_before_producer_completes():
    trace = chain_trace(3)
    san = fresh(trace)
    for i in range(3):
        san.on_enter(i, 0)
    san.on_issue(0, 0)
    san.on_issue(1, 0)                      # same cycle as its producer
    message = finish_error(san)
    assert "before producer" in message


def test_issue_without_producer_issued():
    trace = chain_trace(2)
    san = fresh(trace)
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_issue(1, 0)                      # producer never issued
    san.on_issue(0, 1)
    assert any("before its producer" in v for v in san.violations)


def test_width_violation():
    trace = TraceBuilder()
    for i in range(3):
        trace.move(dest=i + 1, imm=True)
    trace = trace.build()
    san = fresh(trace, width=2)
    for i in range(3):
        san.on_enter(i, 0)
    for i in range(3):
        san.on_issue(i, 0)                  # 3 issues, width 2
    message = finish_error(san)
    assert "width 2" in message


def test_window_occupancy_violation():
    trace = chain_trace(5)
    san = fresh(trace, width=2, window=4)
    for i in range(5):
        san.on_enter(i, 0)                  # 5 in a 4-entry window
    assert any("occupancy" in v for v in san.violations)


def test_double_enter_and_double_issue():
    trace = chain_trace(2)
    san = fresh(trace)
    san.on_enter(0, 0)
    san.on_enter(0, 0)
    assert any("entered the window twice" in v for v in san.violations)
    san2 = fresh(trace)
    san2.on_enter(0, 0)
    san2.on_issue(0, 0)
    san2.on_issue(0, 1)
    assert any("issued twice" in v for v in san2.violations)


def test_fetch_past_unissued_mispredicted_branch():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    builder.move(dest=2, imm=True)
    trace = builder.build()
    san = fresh(trace, mispredicted=[1])
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_enter(2, 0)                      # fetched past the fence
    assert any("fetched past" in v for v in san.violations)


def test_issue_not_after_mispredicted_branch():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    builder.move(dest=2, imm=True)
    trace = builder.build()
    san = fresh(trace, mispredicted=[1])
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_issue(0, 0)
    san.on_issue(1, 1)                      # branch resolves at cycle 1
    san.on_enter(2, 1)
    san.on_issue(2, 1)                      # must be strictly after
    assert any("not after" in v for v in san.violations)


def test_collapse_of_undefined_arc_flagged():
    trace = chain_trace(3)
    rules = CollapseRules.paper()
    san = fresh(trace, rules=rules)
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_enter(2, 0)
    san.on_collapse(2, 0, 1, 2, 3, 3)       # 2's producer is 1, not 0
    assert any("model does not define" in v for v in san.violations)


def test_legal_collapse_transfers_dependence():
    trace = chain_trace(3)
    rules = CollapseRules.paper()
    san = fresh(trace, rules=rules)
    for i in range(3):
        san.on_enter(i, 0)
    san.on_collapse(1, 0, 1, 2, 2, 2)       # 1 absorbs 0: arc relaxed
    assert san.relaxed_arcs == 1
    san.on_issue(0, 0)
    san.on_issue(1, 0)                      # same cycle: now legal
    san.on_issue(2, 1)
    san.finish()


def test_oversized_group_flagged():
    trace = chain_trace(5)
    rules = CollapseRules.paper()
    san = fresh(trace, width=8, rules=rules)
    for i in range(5):
        san.on_enter(i, 0)
    san.on_collapse(4, 3, 1, 4, 2, 2)       # 4 members, no zeros
    assert any("members" in v or "not justified" in v
               for v in san.violations)


def test_collapse_with_collapsing_disabled_flagged():
    trace = chain_trace(2)
    san = fresh(trace)                      # no collapse rules
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_collapse(1, 0, 1, 2, 3, 3)
    assert any("collapsing disabled" in v for v in san.violations)


def test_eliminate_with_waiting_dependent_flagged():
    trace = chain_trace(3)
    san = fresh(trace, rules=CollapseRules.paper())
    for i in range(3):
        san.on_enter(i, 0)
    san.on_eliminate(0, 0)                  # position 1 still depends
    assert any("still depend" in v for v in san.violations)


def test_unissued_position_reported_at_finish():
    trace = chain_trace(2)
    san = fresh(trace)
    san.on_enter(0, 0)
    san.on_issue(0, 0)
    message = finish_error(san)
    assert "never entered" in message


def test_error_message_caps_recorded_violations():
    trace = chain_trace(2)
    san = fresh(trace)
    san.on_enter(0, 0)
    san.on_enter(1, 0)
    san.on_issue(0, 0)
    san.on_issue(1, 1)
    for _ in range(SchedulerSanitizer.MAX_RECORDED + 5):
        san._violate("synthetic violation")
    message = finish_error(san)
    assert "and 5 more" in message
    assert message.count("synthetic violation") \
        == SchedulerSanitizer.MAX_RECORDED
