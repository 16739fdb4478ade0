"""Two-delta address predictor tests (Section 3 semantics)."""

import pytest

from synth import TraceBuilder, pointer_chase_loop, strided_load_loop

from repro.addrpred import (
    LastStrideTable,
    TwoDeltaTable,
    run_address_predictor,
)


def feed(table, pc, addresses):
    return [table.observe(pc, a) for a in addresses]


def test_constant_stride_becomes_predictable():
    table = TwoDeltaTable()
    outcomes = feed(table, 0x1000, [100, 104, 108, 112, 116, 120])
    # After two identical strides the prediction is correct from then on.
    assert [correct for _, correct, _ in outcomes[3:]] == [True] * 3


def test_confidence_gate_opens_after_two_correct():
    table = TwoDeltaTable()
    outcomes = feed(table, 0x1000, [100, 104, 108, 112, 116, 120, 124])
    used = [would_use for would_use, _, _ in outcomes]
    # Confidence starts at 0; +1 per correct prediction; usable when >1.
    assert used[0] is False
    assert used[-1] is True
    first_use = used.index(True)
    correct_before = sum(
        1 for _, correct, _ in outcomes[:first_use] if correct)
    assert correct_before >= 2


def test_wrong_prediction_penalised_twice_as_fast():
    table = TwoDeltaTable()
    entry = table.entry(0x1000)
    feed(table, 0x1000, [100, 104, 108, 112, 116])
    assert entry.confidence >= 2
    confidence_before = entry.confidence
    table.observe(0x1000, 999999)      # break the stride
    assert entry.confidence == max(0, confidence_before - 2)


def test_two_delta_needs_stride_twice():
    """One odd stride must not replace the predicting stride."""
    table = TwoDeltaTable()
    feed(table, 0x1000, [100, 104, 108, 112])   # stride 4 locked in
    entry = table.entry(0x1000)
    assert entry.stride == 4
    table.observe(0x1000, 300)                  # stride 188, once
    assert entry.stride == 4                    # still predicting 4
    table.observe(0x1000, 304)                  # back to stride 4
    assert entry.stride == 4


def test_last_stride_table_promotes_immediately():
    table = LastStrideTable()
    feed(table, 0x1000, [100, 104, 108, 112])
    table.observe(0x1000, 300)
    assert table.entry(0x1000).stride == (300 - 112) & 0xFFFFFFFF


def test_direct_mapped_aliasing():
    table = TwoDeltaTable(entries=16)
    assert table.index_of(0x1000) == table.index_of(0x1000 + 16 * 4)


def test_index_uses_14_lsbs_of_default_table():
    table = TwoDeltaTable()
    assert table.entries == 4096
    assert table.index_of(0x0) == 0
    assert table.index_of(1 << 14) == 0          # bit 14 ignored
    assert table.index_of(0x3FFC) == 4095


def test_wraparound_addresses():
    table = TwoDeltaTable()
    outcomes = feed(table, 0x1000,
                    [0xFFFFFFF8, 0xFFFFFFFC, 0x0, 0x4, 0x8])
    assert outcomes[-1][1] is True               # stride survives wrap


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        TwoDeltaTable(entries=100)


# ---------------------------------------------------------------- runner

def test_runner_strided_loop_mostly_correct():
    result = run_address_predictor(strided_load_loop(300))
    assert result.loads == 300
    assert result.raw_accuracy > 0.95
    attempted = sum(1 for used in result.attempted.values() if used)
    assert attempted > 0.9 * result.loads


def test_runner_pointer_chase_mostly_not_attempted():
    result = run_address_predictor(pointer_chase_loop(300))
    attempted = sum(1 for used in result.attempted.values() if used)
    # Confidence never builds on an effectively random walk.
    assert attempted < 0.1 * result.loads
    assert result.raw_accuracy < 0.1


def test_runner_only_tracks_loads():
    builder = TraceBuilder()
    builder.add(dest=1, src1=1, imm=True)
    builder.store(datasrc=1, addr_reg=1, addr=0x10)
    builder.load(dest=2, addr_reg=1, addr=0x20)
    result = run_address_predictor(builder.build())
    assert result.loads == 1
    assert set(result.attempted) == {2}


# ------------------------------------------------------- per-PC stats

def test_steady_accuracy_excludes_first_access_per_pc():
    result = run_address_predictor(strided_load_loop(300))
    # One static load PC: exactly one structural cold miss.
    assert result.first_misses == 1
    assert result.steady_accuracy >= result.raw_accuracy
    assert result.warm_would_correct <= result.loads - 1


def test_per_pc_disabled_by_default():
    result = run_address_predictor(strided_load_loop(50))
    assert result.per_pc is None


def test_per_pc_histogram_strided():
    result = run_address_predictor(strided_load_loop(200), per_pc=True)
    assert len(result.per_pc) == 1
    (stat,) = result.per_pc.values()
    assert stat.count == 200
    # A constant-stride stream never changes delta and is near-perfect
    # once warm.
    assert stat.delta_changes == 0
    assert stat.steady_accuracy == 1.0
    assert stat.coverage > 0.9
    assert stat.correct == sum(
        1 for ok in result.correct.values() if ok)


def test_per_pc_histogram_pointer_chase():
    result = run_address_predictor(pointer_chase_loop(200), per_pc=True)
    (stat,) = result.per_pc.values()
    # A random walk changes delta nearly every access and stays
    # unpredictable.
    assert stat.delta_changes > 0.8 * stat.count
    assert stat.accuracy < 0.1
    assert stat.coverage < 0.1


def test_per_pc_relock_bound_holds_on_stride_change():
    """The two-delta theorem: misses <= warmup + 2 * delta changes."""

    builder = TraceBuilder()
    position = builder.load(dest=2, addr_reg=1, addr=0)
    address = 0
    # Three regimes: stride 4, then 16, then 4 again.
    for stride in (4, 16, 4):
        for _ in range(40):
            address += stride
            builder.repeat(position, eff_addr=address)
    result = run_address_predictor(builder.build(), per_pc=True)
    (stat,) = result.per_pc.values()
    assert stat.delta_changes == 2
    misses = stat.count - stat.correct
    assert misses <= 3 + 2 * stat.delta_changes
