"""Configuration J: load-driven exit-branch prediction in the
scheduler, its stats object, and the sanitizer's exactly-once-recovery
replica of the fence-waiving protocol."""

import os

import pytest

from repro.asm import assemble
from repro.core.branchspecstats import BranchSpecStats
from repro.core.config import ConfigError, MachineConfig, paper_config
from repro.core.results import SimResult
from repro.core.simulator import simulate_trace
from repro.emu import trace_program
from repro.lint import BranchFlowAnalysis
from repro.lint.sanitize import SchedulerSanitizer

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def example_setup():
    """exit_branch.s assembled, traced and statically planned."""
    with open(os.path.join(EXAMPLES, "exit_branch.s")) as handle:
        program = assemble(handle.read())
    trace, _, _ = trace_program(program, name="exit_branch")
    plan = BranchFlowAnalysis(program).plan()
    return trace, plan


def positions_of(trace, sidx):
    return [i for i in range(len(trace)) if trace.sidx[i] == sidx]


# ---------------------------------------------------------------- stats

def test_stats_merge_accumulates():
    a, b = BranchSpecStats(), BranchSpecStats()
    a.exit_branches, a.early_resolved, a.missed = 10, 3, 2
    b.exit_branches, b.early_resolved, b.missed = 4, 1, 1
    assert a.merge(b) is a
    assert (a.exit_branches, a.early_resolved, a.missed) == (14, 4, 3)
    assert (b.exit_branches, b.early_resolved, b.missed) == (4, 1, 1)


def test_stats_payload_round_trip():
    stats = BranchSpecStats()
    stats.exit_branches, stats.early_resolved, stats.missed = 7, 2, 5
    loaded = BranchSpecStats.from_payload(stats.to_payload())
    for field in BranchSpecStats.__slots__:
        assert getattr(loaded, field) == getattr(stats, field)
    assert "exit_branches=7" in repr(stats)


@pytest.mark.parametrize("record", [
    "repro.core.branchspecstats.BranchSpecStats",
    "repro.core.vspecstats.ValueSpecStats",
    "repro.core.daestats.DAELoopStats",
    "repro.memdep.stats.MemDepStats",
])
def test_every_counter_record_round_trips_and_merges(record):
    import importlib
    module, name = record.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    stats = cls()
    counters = cls.counters()
    for value, field in enumerate(counters, start=1):
        setattr(stats, field, value)
    payload = stats.to_payload()
    loaded = cls.from_payload(payload)
    assert loaded.to_payload() == payload
    # from_payload coerces counters to int, like every other codec
    coerced = cls.from_payload({field: str(value)
                                for field, value in payload.items()
                                if field in counters})
    assert [getattr(coerced, field) for field in counters] \
        == list(range(1, len(counters) + 1))
    assert stats.merge(loaded) is stats
    for value, field in enumerate(counters, start=1):
        expected = value if field in cls.MAXIMA else 2 * value
        assert getattr(stats, field) == expected
    assert "%s=%d" % (counters[0], 2) in repr(stats)


def test_sim_result_payload_round_trips_branch_spec():
    trace, plan = example_setup()
    result = simulate_trace(trace, paper_config("J", 2),
                            branch_plan=plan)
    assert result.branch_spec is not None
    loaded = SimResult.from_payload(result.to_payload())
    assert loaded.cycles == result.cycles
    for field in BranchSpecStats.__slots__:
        assert getattr(loaded.branch_spec, field) \
            == getattr(result.branch_spec, field)
    # a plain run carries no stats, and the payload keeps that None
    base = simulate_trace(trace, paper_config("I", 2))
    assert base.branch_spec is None
    assert SimResult.from_payload(base.to_payload()).branch_spec is None


# ------------------------------------------------------------ scheduler

def test_config_j_without_plan_degenerates_to_i():
    """No plan means no mechanism: J must time exactly like I."""
    trace, _ = example_setup()
    base = simulate_trace(trace, paper_config("I", 2))
    ldbp = simulate_trace(trace, paper_config("J", 2))
    assert ldbp.branch_spec is None
    assert ldbp.cycles == base.cycles


def test_config_j_with_empty_plan_is_armed_but_idle():
    trace, plan = example_setup()
    empty = type(plan)(plan.signature, {})
    result = simulate_trace(trace, paper_config("J", 2),
                            branch_plan=empty, sanitize=True)
    stats = result.branch_spec
    assert stats is not None
    assert (stats.exit_branches, stats.early_resolved, stats.missed) \
        == (0, 0, 0)


def test_config_j_waives_the_planned_fence_sanitized():
    """On exit_branch.s the warm scan exit resolves at its governing
    load's address-generation time; the chase exit never enters the
    stats.  The sanitized run proves the waive obeyed the protocol."""
    trace, plan = example_setup()
    base = simulate_trace(trace, paper_config("I", 2))
    ldbp = simulate_trace(trace, paper_config("J", 2),
                          branch_plan=plan, sanitize=True)
    stats = ldbp.branch_spec
    assert ldbp.cycles <= base.cycles
    assert stats.early_resolved >= 1
    # every dynamic instance of the planned scan exit is counted
    (scan_sidx,) = plan.resolves
    assert stats.exit_branches == len(positions_of(trace, scan_sidx))


def test_branch_spec_requires_replay_value_spec():
    with pytest.raises(ConfigError, match="branch_spec requires"):
        MachineConfig(8, branch_spec=True)


# ------------------------------------------------------------ sanitizer

def mispredicted_scan_exit(trace, plan):
    """A (branch position, governing load position) pair for the
    planned scan exit, plus the plan's static indices."""
    (scan_sidx,) = plan.resolves
    load_sidx = plan.resolves[scan_sidx]
    branch = positions_of(trace, scan_sidx)[-1]
    load = max(p for p in positions_of(trace, load_sidx) if p < branch)
    return branch, load


def armed_sanitizer(trace, plan, mispredicted, upto):
    # huge window: the hook tests enter a long prefix in one cycle
    config = MachineConfig(8, window_size=4096, value_spec="replay",
                           branch_spec=True)
    san = SchedulerSanitizer(trace, config,
                             dict.fromkeys(mispredicted, True),
                             branch_plan=plan)
    for i in range(upto + 1):
        san.on_enter(i, 0)
    return san


def test_sanitizer_accepts_a_clean_waive():
    trace, plan = example_setup()
    branch, load = mispredicted_scan_exit(trace, plan)
    san = armed_sanitizer(trace, plan, [branch], branch)
    san.on_branch_resolve(branch, load, 0)
    assert san.violation_count == 0
    assert san.branch_resolves == 1


def test_sanitizer_rejects_unplanned_branch():
    """Waiving the chase exit's fence must violate: the plan excludes
    pointer-governed exits."""
    trace, plan = example_setup()
    chase_sites = sorted(set(trace.sidx[i] for i in range(len(trace)))
                         - set(plan.resolves))
    ana_branch = None
    for sidx in chase_sites:
        positions = positions_of(trace, sidx)
        if positions and trace.static.cls[sidx] \
                == trace.static.cls[next(iter(plan.resolves))]:
            ana_branch = positions[-1]
            break
    assert ana_branch is not None
    san = armed_sanitizer(trace, plan, [ana_branch], ana_branch)
    san.on_branch_resolve(ana_branch, 0, 0)
    assert any("does not map" in v for v in san.violations)


def test_sanitizer_rejects_wrong_governor():
    trace, plan = example_setup()
    branch, load = mispredicted_scan_exit(trace, plan)
    san = armed_sanitizer(trace, plan, [branch], branch)
    wrong = load - 1                # earlier, entered, not the governor
    assert trace.sidx[wrong] != trace.sidx[load]
    san.on_branch_resolve(branch, wrong, 0)
    assert any("the plan names load" in v for v in san.violations)


def test_sanitizer_rejects_later_or_unentered_governor():
    trace, plan = example_setup()
    branch, load = mispredicted_scan_exit(trace, plan)
    san = armed_sanitizer(trace, plan, [branch], branch)
    later = max(p for p in positions_of(trace, trace.sidx[load]))
    if later <= branch:
        later = branch + 1          # synthesize a not-entered position
    san.on_branch_resolve(branch, later, 0)
    assert any("earlier entered" in v for v in san.violations)


def test_sanitizer_rejects_double_resolve():
    trace, plan = example_setup()
    branch, load = mispredicted_scan_exit(trace, plan)
    san = armed_sanitizer(trace, plan, [branch], branch)
    san.on_branch_resolve(branch, load, 0)
    san.on_branch_resolve(branch, load, 0)
    assert any("resolved twice" in v for v in san.violations)


def test_sanitizer_rejects_waive_of_unraised_fence():
    """Resolving a correctly-predicted branch waives a fence that was
    never raised."""
    trace, plan = example_setup()
    branch, load = mispredicted_scan_exit(trace, plan)
    san = armed_sanitizer(trace, plan, [], branch)
    san.on_branch_resolve(branch, load, 0)
    assert any("never raised" in v for v in san.violations)
