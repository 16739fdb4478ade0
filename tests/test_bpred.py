"""Branch predictor unit tests: counters, bimodal, gshare, combining."""

import pytest

from synth import TraceBuilder

from repro.bpred import (
    BimodalPredictor,
    BranchRunResult,
    CombiningPredictor,
    CounterTable,
    GsharePredictor,
    PerfectPredictor,
    run_branch_predictor,
)


# ---------------------------------------------------------------- counters

def test_counter_table_saturation():
    table = CounterTable(4, bits=2)
    for _ in range(10):
        table.increment(0)
    assert table.value(0) == 3
    for _ in range(10):
        table.decrement(0)
    assert table.value(0) == 0


def test_counter_table_threshold():
    table = CounterTable(4, bits=2, initial=0)
    assert not table.is_set(0)
    table.increment(0, 2)
    assert table.is_set(0)


def test_counter_table_requires_power_of_two():
    with pytest.raises(ValueError):
        CounterTable(3)


def test_counter_cost_bytes():
    assert CounterTable(8192, bits=2).cost_bytes == 2048


# ---------------------------------------------------------------- bimodal

def test_bimodal_learns_direction():
    predictor = BimodalPredictor(entries=16)
    pc = 0x1000
    for _ in range(4):
        predictor.update(pc, True)
    assert predictor.predict(pc) is True
    for _ in range(4):
        predictor.update(pc, False)
    assert predictor.predict(pc) is False


def test_bimodal_aliasing_is_modulo_table():
    predictor = BimodalPredictor(entries=16)
    for _ in range(4):
        predictor.update(0x1000, True)
    # 0x1000 and 0x1000 + 16*4 alias in a 16-entry table.
    assert predictor.predict(0x1000 + 64) is True


# ---------------------------------------------------------------- gshare

def test_gshare_learns_alternating_pattern_bimodal_cannot():
    """A strict T/N alternation defeats bimodal but gshare locks on."""
    gshare = GsharePredictor(entries=64)
    bimodal = BimodalPredictor(entries=64)
    pc = 0x2000
    outcome = True
    gshare_correct = bimodal_correct = 0
    for i in range(400):
        if i >= 200:     # measure after warmup
            gshare_correct += gshare.predict(pc) == outcome
            bimodal_correct += bimodal.predict(pc) == outcome
        gshare.update(pc, outcome)
        bimodal.update(pc, outcome)
        outcome = not outcome
    assert gshare_correct == 200
    assert bimodal_correct < 150


def test_gshare_history_masked():
    gshare = GsharePredictor(entries=16)
    for _ in range(100):
        gshare.update(0x100, True)
    assert gshare.history <= gshare.history_mask


# ---------------------------------------------------------------- combining

def test_combining_cost_is_8kb():
    assert CombiningPredictor().cost_bytes == 8192


def test_combining_beats_both_components_on_mixed_workload():
    """Two branches: one heavily biased (bimodal-friendly), one strictly
    alternating (gshare-friendly).  The chooser should route each to the
    right component, approaching the better accuracy on both."""
    combining = CombiningPredictor(n=8)
    biased_pc, alt_pc = 0x4000, 0x8000
    correct = total = 0
    alternating = True
    for i in range(600):
        measure = i >= 300
        if measure:
            correct += combining.predict(biased_pc) is True
            total += 1
        combining.update(biased_pc, True)
        if measure:
            correct += combining.predict(alt_pc) == alternating
            total += 1
        combining.update(alt_pc, alternating)
        alternating = not alternating
    assert correct / total > 0.95


# ---------------------------------------------------------------- runner

def _loop_trace(iterations, period=None):
    """A loop branch taken every iteration except the exit; optionally a
    second branch alternating with the given period."""
    builder = TraceBuilder()
    cmp_pos = builder.cmp(src1=1, imm=True)
    branch_pos = builder.branch(taken=True)
    for i in range(1, iterations):
        builder.repeat(cmp_pos)
        builder.repeat(branch_pos, taken=i < iterations - 1)
    return builder.build()


def test_runner_counts_conditionals():
    result = run_branch_predictor(_loop_trace(50))
    assert result.conditional == 50
    assert result.trace_length == 100
    assert abs(result.cond_branch_fraction - 0.5) < 1e-12


def test_runner_high_accuracy_on_biased_loop():
    result = run_branch_predictor(_loop_trace(200))
    assert result.accuracy > 0.95
    # Mispredicted positions must actually be conditional branches.
    trace = _loop_trace(200)
    for position in result.mispredicted:
        assert trace.static.reads_cc[trace.sidx[position]]


def test_perfect_predictor_never_mispredicts():
    result = run_branch_predictor(_loop_trace(50), PerfectPredictor())
    assert result.accuracy == 1.0
    assert result.mispredicted == {}


def test_runner_empty_trace_denominators_raise():
    """A trace with no conditional branches has no defined accuracy or
    branch fraction: both raise an actionable ReproError instead of
    dividing by zero or inventing a value."""
    from repro.errors import ReproError
    result = run_branch_predictor(TraceBuilder().build())
    assert result.conditional == 0
    with pytest.raises(ReproError, match="no.*conditional branches"):
        result.accuracy
    with pytest.raises(ReproError, match="trace.*is empty"):
        result.cond_branch_fraction


def test_runner_zero_branch_trace_denominators_raise():
    """Non-empty trace, zero conditional branches: accuracy still
    raises, but the branch fraction is well-defined (0.0)."""
    from repro.errors import ReproError
    builder = TraceBuilder()
    builder.alu(0, dest=2, src1=1, imm=True)
    builder.alu(0, dest=3, src1=2, imm=True)
    result = run_branch_predictor(builder.build())
    assert result.conditional == 0
    assert result.trace_length == 2
    with pytest.raises(ReproError):
        result.accuracy
    assert result.cond_branch_fraction == 0.0


def test_run_result_payload_round_trip():
    """BranchRunResult -> payload -> BranchRunResult is lossless,
    including the per-PC histograms the branchflow cross-check reads."""
    result = run_branch_predictor(_loop_trace(60), per_pc=True)
    clone = BranchRunResult.from_payload(result.to_payload())
    assert clone.mispredicted == result.mispredicted
    assert list(clone.mispredicted) == list(result.mispredicted)
    for field in ("conditional", "correct", "trace_length",
                  "confident", "confident_correct"):
        assert getattr(clone, field) == getattr(result, field), field
    assert set(clone.per_pc) == set(result.per_pc)
    for pc, stat in result.per_pc.items():
        other = clone.per_pc[pc]
        for field in stat.__slots__:
            assert getattr(other, field) == getattr(stat, field), \
                (hex(pc), field)
    assert clone.accuracy == result.accuracy


def test_run_result_payload_without_per_pc():
    result = run_branch_predictor(_loop_trace(10))
    assert result.per_pc is None
    clone = BranchRunResult.from_payload(result.to_payload())
    assert clone.per_pc is None
    assert clone.correct == result.correct
