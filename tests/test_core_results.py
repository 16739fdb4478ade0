"""LoadStats / SimResult unit tests."""

import pytest

from repro.core import LOAD_CATEGORIES, LoadStats, MachineConfig
from repro.core.results import SimResult


def test_load_stats_record_and_total():
    stats = LoadStats()
    stats.record("ready")
    stats.record("ready")
    stats.record("not_predicted")
    assert stats.total == 3
    assert stats.counts["ready"] == 2


def test_load_stats_fractions():
    stats = LoadStats()
    for category in LOAD_CATEGORIES:
        stats.record(category)
    fractions = stats.fractions()
    assert all(abs(f - 0.25) < 1e-12 for f in fractions.values())


def test_load_stats_empty_fractions_safe():
    fractions = LoadStats().fractions()
    assert sum(fractions.values()) == 0.0


def test_load_stats_merge():
    a, b = LoadStats(), LoadStats()
    a.record("ready")
    b.record("ready")
    b.record("predicted_correctly")
    a.merge(b)
    assert a.counts["ready"] == 2
    assert a.total == 3


def test_load_stats_rejects_unknown_category():
    with pytest.raises(KeyError):
        LoadStats().record("maybe")


def _result(cycles, trace_name="t"):
    from repro.collapse import CollapseStats
    return SimResult(MachineConfig(8), trace_name, 100, cycles,
                     LoadStats(), CollapseStats(), None)


def test_sim_result_ipc():
    assert _result(50).ipc == 2.0
    assert _result(0).ipc == 0.0


def test_sim_result_speedup():
    fast, slow = _result(50), _result(100)
    assert fast.speedup_over(slow) == 2.0
    assert slow.speedup_over(fast) == 0.5


def test_sim_result_speedup_guards_trace_identity():
    with pytest.raises(ValueError):
        _result(10, "a").speedup_over(_result(10, "b"))


def test_sim_result_repr_mentions_ipc():
    assert "ipc=2.000" in repr(_result(50))


def test_sim_result_carries_config_metadata():
    result = _result(10)
    assert result.issue_width == 8
    assert result.window_size == 16


def test_dae_stats_round_trip_through_payload():
    from repro.core.daestats import DAEStats
    stats = DAEStats()
    stats.bypassed = 5
    stats.degraded = 1
    loop = stats.loop(26)
    loop.runs = 3
    loop.enqueued = 12
    loop.popped = 11
    loop.peak = 4
    loop.full_stalls = 2
    loop.chase_deps = 0
    loop.chase_stalls = 0
    stats.loop(40).chase_deps = 7

    result = _result(10)
    result.dae = stats
    payload = result.to_payload()
    back = SimResult.from_payload(payload)
    assert back.dae is not None
    assert back.dae.to_payload() == stats.to_payload()
    assert back.dae.loops[26].peak == 4
    assert back.dae.peak == 4
    assert back.dae.chase_deps == 7

    plain = SimResult.from_payload(_result(10).to_payload())
    assert plain.dae is None

    # merge returns the record; a loop's peak merges by maximum
    other = DAEStats()
    other.bypassed = 2
    other.loop(26).peak = 3
    other.loop(26).enqueued = 1
    assert back.dae.merge(other) is back.dae
    assert back.dae.bypassed == 7
    assert back.dae.loops[26].peak == 4
    assert back.dae.loops[26].enqueued == 13


def test_value_and_memdep_stats_round_trip_through_payload():
    from repro.core.vspecstats import ValueSpecStats
    from repro.memdep import MemDepStats
    vspec = ValueSpecStats()
    vspec.bypassed, vspec.speculated, vspec.squashes = 9, 4, 3
    vspec.replays = 3
    memdep = MemDepStats()
    memdep.loads = 20
    memdep.record_violation(0x1040, 0x1010, 3, 5)
    result = _result(10)
    result.value_spec = vspec
    result.memdep = memdep
    back = SimResult.from_payload(result.to_payload())
    assert back.value_spec.to_payload() == vspec.to_payload()
    assert back.memdep.to_payload() == memdep.to_payload()
    assert back.memdep.violation_pairs == {(0x1040, 0x1010): 1}
    plain = SimResult.from_payload(_result(10).to_payload())
    assert plain.value_spec is None and plain.memdep is None
