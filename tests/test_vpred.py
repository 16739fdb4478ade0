"""Value-prediction extension tests (paper Figure 1.d, reference [9])."""

import pytest

from helpers import make_branch_result

from repro.core import MachineConfig
from repro.core.scheduler import WindowScheduler
from repro.core.simulator import simulate_trace, value_outcomes
from repro.trace.records import TraceBuilder
from repro.vpred import LastValueTable, run_value_predictor


# --------------------------------------------------------------- table

def test_last_value_learns_invariant():
    table = LastValueTable()
    outcomes = [table.observe(0x100, 42) for _ in range(5)]
    assert [correct for _, correct, _ in outcomes] == \
        [False, True, True, True, True]
    # Confidence gate opens after enough correct predictions.
    assert outcomes[-1][0] is True


def test_last_value_varies_never_confident():
    table = LastValueTable()
    for value in range(1, 51):
        would_use, correct, _ = table.observe(0x100, value)
        assert not correct
    assert table.entry(0x100).confidence == 0


def test_wrong_penalty_double():
    table = LastValueTable()
    for _ in range(5):
        table.observe(0x100, 7)
    confidence = table.entry(0x100).confidence
    table.observe(0x100, 8)
    assert table.entry(0x100).confidence == max(0, confidence - 2)


def test_rejects_bad_sizes():
    with pytest.raises(ValueError):
        LastValueTable(entries=12)


# --------------------------------------------------------------- runner

def invariant_load_trace(iterations=30, value=42):
    builder = TraceBuilder()
    load = builder.load(dest=2, addr_reg=9, addr=0x100, value=value)
    consumer = builder.add(dest=3, src1=2, imm=True)
    for _ in range(iterations - 1):
        builder.repeat(load, eff_addr=0x100, value=value)
        builder.repeat(consumer)
    return builder.build()


def test_runner_invariant_loads():
    result = run_value_predictor(invariant_load_trace())
    assert result.loads == 30
    assert result.raw_accuracy > 0.9


def test_runner_varying_loads():
    builder = TraceBuilder()
    load = builder.load(dest=2, addr_reg=9, addr=0x100, value=0)
    for i in range(40):
        builder.repeat(load, eff_addr=0x100, value=i)
    result = run_value_predictor(builder.build())
    assert result.raw_accuracy < 0.1


# ------------------------------------------------------------ timing

def slow_load_consumer_trace():
    """Address chain -> load (invariant value) -> consumer.

    Base: chain @0,1,2; load @3 completes @5; consumer @5 (6 cycles).
    With correct value speculation the consumer issues @0 but the load
    still executes to verify (@3): 4 cycles.
    """
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.load(dest=2, addr_reg=1, addr=0x100, value=42)
    builder.add(dest=3, src1=2, imm=True)
    return builder.build()


def vsim(trace, attempted, correct):
    from repro.addrpred.runner import LoadPredictionResult
    prediction = LoadPredictionResult()
    prediction.attempted = attempted
    prediction.correct = correct
    config = MachineConfig(4, value_spec=True)
    scheduler = WindowScheduler(trace, config, make_branch_result(trace),
                                value_prediction=prediction)
    return scheduler.run()


def test_correct_value_prediction_breaks_load_use():
    trace = slow_load_consumer_trace()
    base = vsim(trace, {}, {})
    assert base.cycles == 6
    specced = vsim(trace, {3: True}, {3: True})
    assert specced.cycles == 4       # load (verification) still issues @3


def test_wrong_value_prediction_keeps_base_timing():
    trace = slow_load_consumer_trace()
    result = vsim(trace, {3: True}, {3: False})
    assert result.cycles == 6


def test_unconfident_prediction_not_used():
    trace = slow_load_consumer_trace()
    result = vsim(trace, {3: False}, {3: True})
    assert result.cycles == 6


def test_simulate_trace_runs_value_pass_automatically():
    trace = invariant_load_trace(iterations=40)
    config = MachineConfig(8, value_spec=True)
    result = simulate_trace(trace, config)
    assert result.instructions == len(trace)


def test_value_outcomes_convenience():
    result = value_outcomes(invariant_load_trace())
    assert result.loads == 30


def test_scheduler_requires_value_prediction_when_enabled():
    trace = invariant_load_trace()
    config = MachineConfig(8, value_spec=True)
    with pytest.raises(ValueError):
        WindowScheduler(trace, config, make_branch_result(trace))


def test_value_spec_never_slows():
    from repro.trace.synth import random_trace
    from repro.core import branch_outcomes
    for seed in range(4):
        trace = random_trace(300, seed=seed)
        branch = branch_outcomes(trace)
        base = WindowScheduler(trace, MachineConfig(4), branch).run()
        specced = simulate_trace(trace, MachineConfig(4, value_spec=True),
                                 branch_result=branch)
        assert specced.cycles <= base.cycles


# --------------------------------------------------- predictor family

def test_stride_table_locks_onto_sequence():
    from repro.addrpred import TwoDeltaTable
    table = TwoDeltaTable()
    outcomes = [table.observe(0x200, 100 + 8 * i) for i in range(8)]
    # Two-delta warmup: seed value, see the stride twice, then perfect.
    assert [correct for _, correct, _ in outcomes[3:]] == [True] * 5
    assert outcomes[-1][0] is True       # confidence gate open
    assert table.entry(0x200).stride == 8


def test_stride_wraps_32_bits():
    from repro.addrpred import TwoDeltaTable
    table = TwoDeltaTable()
    values = [(0xFFFFFFF0 + 8 * i) & 0xFFFFFFFF for i in range(8)]
    outcomes = [table.observe(0x200, v) for v in values]
    assert all(correct for _, correct, _ in outcomes[3:])


def test_fcm_learns_alternation_stride_cannot():
    from repro.addrpred import MarkovTable, TwoDeltaTable
    fcm = MarkovTable()
    stride = TwoDeltaTable()
    pattern = [7, 13] * 12
    fcm_hits = sum(fcm.observe(0x300, v)[1] for v in pattern)
    stride_hits = sum(stride.observe(0x300, v)[1] for v in pattern)
    # FCM predicts perfectly from the second period on; a two-delta
    # stride table never locks onto an alternating stream.
    assert fcm_hits >= len(pattern) - 4
    assert stride_hits == 0


def test_hybrid_chooser_picks_fcm_on_alternation():
    from repro.addrpred import HybridTable
    hybrid = HybridTable()
    outcomes = [hybrid.observe(0x400, v) for v in [7, 13] * 12]
    # Once the chooser trains toward FCM the stream predicts confidently.
    assert outcomes[-1][:2] == (True, True)


def test_runner_per_pc_counts_stride_changes():
    from repro.vpred import run_value_predictor
    builder = TraceBuilder()
    load = builder.load(dest=2, addr_reg=9, addr=0x100, value=0)
    values = [4 * i for i in range(16)] + [1000, 1007, 1014, 1021]
    for v in values[1:]:
        builder.repeat(load, eff_addr=0x100, value=v)
    result = run_value_predictor(builder.build(), predictor="stride",
                                 per_pc=True)
    stat = next(iter(result.per_pc.values()))   # one static load
    assert stat.count == len(values)
    # One warmup change (0 -> stride 4) plus the 4 -> 1000 -> 7 break.
    assert 1 <= stat.delta_changes <= 4
    assert stat.correct >= stat.count - 3 - 2 * stat.delta_changes


# --------------------------------------------- config I: squash/replay

def rsim(trace, attempted, correct, width=4):
    from repro.core.config import VALUE_SPEC_REPLAY
    from repro.addrpred.runner import LoadPredictionResult
    prediction = LoadPredictionResult()
    prediction.attempted = attempted
    prediction.correct = correct
    config = MachineConfig(width, value_spec=VALUE_SPEC_REPLAY)
    scheduler = WindowScheduler(trace, config, make_branch_result(trace),
                                value_prediction=prediction)
    return scheduler.run()


def test_replay_correct_prediction_bypasses():
    trace = slow_load_consumer_trace()
    result = rsim(trace, {3: True}, {3: True})
    assert result.cycles == 4
    assert result.value_spec.bypassed == 1
    assert result.value_spec.squashes == 0


def test_replay_wrong_prediction_squashes_once():
    """A wrong confident prediction issues the consumer speculatively,
    squashes it when the load verifies, and replays it exactly once
    after the flush penalty."""
    from repro.memdep import FLUSH_PENALTY
    trace = slow_load_consumer_trace()
    result = rsim(trace, {3: True}, {3: False})
    vspec = result.value_spec
    assert vspec.speculated == 1
    assert vspec.squashes == 1
    assert vspec.replays == 1
    # Load completes @5; the consumer reissues at 5 + FLUSH_PENALTY.
    assert result.cycles == 5 + FLUSH_PENALTY + 1
    # The replay penalty makes I strictly worse than not speculating.
    base = rsim(trace, {}, {})
    assert result.cycles > base.cycles == 6


def test_replay_squashes_every_watching_consumer():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.load(dest=2, addr_reg=1, addr=0x100, value=42)
    builder.add(dest=3, src1=2, imm=True)
    builder.add(dest=4, src1=2, imm=True)
    trace = builder.build()
    result = rsim(trace, {3: True}, {3: False}, width=8)
    vspec = result.value_spec
    assert vspec.speculated == 2
    assert vspec.squashes == 2
    assert vspec.replays == 2


def test_replay_late_consumer_reads_architectural_value():
    """A consumer entering the window after the wrong prediction was
    already verified needs no squash: the misprediction was caught
    before the consumer existed."""
    builder = TraceBuilder()
    builder.load(dest=2, addr_reg=9, addr=0x100, value=42)
    for _ in range(6):
        builder.add(dest=5, src1=9, imm=True)
    builder.add(dest=3, src1=2, imm=True)
    trace = builder.build()
    result = rsim(trace, {0: True}, {0: False}, width=1)
    vspec = result.value_spec
    assert vspec.late == 1
    assert vspec.squashes == 0
    assert vspec.replays == 0


def test_replay_requires_perfect_memory():
    from repro.core.config import MEM_SPEC_MDPT, VALUE_SPEC_REPLAY
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        MachineConfig(4, value_spec=VALUE_SPEC_REPLAY,
                      mem_spec=MEM_SPEC_MDPT)


def test_config_i_runs_stride_pass_automatically():
    from repro.core.config import paper_config
    trace = invariant_load_trace(iterations=40)
    result = simulate_trace(trace, paper_config("I", 8))
    vspec = result.value_spec
    assert vspec is not None
    assert vspec.bypassed > 0            # invariant loads lock quickly
    assert vspec.replays == vspec.squashes
    payload = result.to_payload()
    assert payload["value_spec"]["bypassed"] == vspec.bypassed
