"""Scale-sensitivity driver and issue-distribution metric tests."""

import pytest

from helpers import sim
from synth import TraceBuilder, dependent_chain, independent_stream

from repro.errors import ReproError
from repro.experiments.sensitivity import max_drift, scale_sensitivity
from repro.metrics import issue_distribution


def test_issue_distribution_full_width():
    result = sim(independent_stream(16), width=4)
    distribution = issue_distribution(result)
    assert distribution == {4: 1.0}


def test_issue_distribution_serial():
    result = sim(dependent_chain(10), width=4)
    distribution = issue_distribution(result)
    assert distribution == {1: 1.0}


def test_issue_distribution_counts_idle_cycles():
    builder = TraceBuilder()
    builder.move(dest=2, imm=True)
    builder.div(dest=1, src1=2, imm=True)   # 12-cycle gap
    builder.add(dest=3, src1=1, imm=True)
    result = sim(builder.build(), width=4)
    distribution = issue_distribution(result)
    assert distribution[0] > 0.5            # mostly idle
    assert abs(sum(distribution.values()) - 1.0) < 1e-12


def test_issue_distribution_requires_schedule():
    result = sim(independent_stream(8), width=4)
    result.issue_cycles = None
    with pytest.raises(ReproError):
        issue_distribution(result)


def test_issue_distribution_excludes_eliminated_instructions():
    """Regression: eliminated instructions carry their fold-away cycle
    in issue_cycles, so counting them let a cycle appear to issue more
    than issue_width instructions."""
    from helpers import make_branch_result
    from repro.collapse import CollapseRules
    from repro.core import MachineConfig
    from repro.core.scheduler import WindowScheduler
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: eliminable
    builder.add(dest=2, src1=1, imm=True)       # 1: collapses 0
    builder.add(dest=1, src1=9, imm=True)       # 2: overwrites r1
    builder.add(dest=3, src1=2, imm=True)       # 3
    trace = builder.build()
    config = MachineConfig(1, window_size=8,
                           collapse_rules=CollapseRules.paper(),
                           node_elimination=True)
    result = WindowScheduler(trace, config,
                             make_branch_result(trace)).run()
    assert result.collapse.eliminated >= 1
    assert result.eliminated_positions
    distribution = issue_distribution(result)
    # Width 1: no cycle may appear to issue more than one instruction.
    assert max(distribution) <= 1
    assert abs(sum(distribution.values()) - 1.0) < 1e-12


def test_issue_distribution_idle_bucket_in_sorted_position():
    builder = TraceBuilder()
    builder.move(dest=2, imm=True)
    builder.div(dest=1, src1=2, imm=True)       # 12-cycle gap
    builder.add(dest=3, src1=1, imm=True)
    result = sim(builder.build(), width=4)
    distribution = issue_distribution(result)
    assert 0 in distribution
    assert list(distribution) == sorted(distribution)


def test_scale_sensitivity_structure():
    exhibit = scale_sensitivity("eqntott", scales=(0.02, 0.04), width=8)
    assert len(exhibit.rows) == 2
    lengths = exhibit.column("instructions")
    assert lengths[1] > lengths[0]
    # Rate metrics stay in-range at every scale.
    for row in exhibit.rows:
        assert 0.0 <= row[4] <= 100.0
        assert 0.0 <= row[5] <= 100.0


def test_scale_sensitivity_drift_helper():
    exhibit = scale_sensitivity("ijpeg", scales=(0.05, 0.1), width=8)
    drift = max_drift(exhibit, "D IPC")
    assert drift >= 0.0
    # ijpeg is loop-dominated: its IPC stabilises very quickly.
    assert drift < 0.25
