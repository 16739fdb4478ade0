"""Local-history and static predictor tests."""

from synth import TraceBuilder

from repro.bpred import (
    BimodalPredictor,
    LocalHistoryPredictor,
    StaticPredictor,
    run_branch_predictor,
)


def test_static_predictors():
    taken = StaticPredictor(taken=True)
    not_taken = StaticPredictor(taken=False)
    assert taken.predict(0x100) is True
    assert not_taken.predict(0x100) is False
    taken.update(0x100, False)        # no-op
    assert taken.predict(0x100) is True
    assert taken.cost_bytes == 0


def test_local_history_learns_short_period_pattern():
    """A T,T,N repeating pattern defeats bimodal but is trivial for a
    per-branch history predictor."""
    local = LocalHistoryPredictor()
    bimodal = BimodalPredictor()
    pattern = [True, True, False]
    pc = 0x4000
    local_correct = bimodal_correct = total = 0
    for i in range(600):
        outcome = pattern[i % 3]
        if i >= 300:
            total += 1
            local_correct += local.predict(pc) == outcome
            bimodal_correct += bimodal.predict(pc) == outcome
        local.update(pc, outcome)
        bimodal.update(pc, outcome)
    assert local_correct == total
    assert bimodal_correct < total


def test_local_history_cost_accounting():
    predictor = LocalHistoryPredictor(history_entries=1024,
                                      history_bits=10, pht_entries=4096)
    # 1024 * 10 bits + 4096 * 2 bits = 1280 + 1024 bytes.
    assert predictor.cost_bytes == 1280 + 1024


def test_local_history_validates_sizes():
    import pytest
    with pytest.raises(ValueError):
        LocalHistoryPredictor(history_entries=1000)


def test_predictor_quality_ordering_on_loop_trace():
    """On a biased loop branch: perfect >= combining-ish >= static."""
    builder = TraceBuilder()
    cmp_pos = builder.cmp(src1=1, imm=True)
    branch = builder.branch(taken=True)
    for i in range(200):
        builder.repeat(cmp_pos)
        builder.repeat(branch, taken=(i % 10 != 9))
    trace = builder.build()
    static = run_branch_predictor(trace, StaticPredictor(True))
    local = run_branch_predictor(trace, LocalHistoryPredictor())
    assert static.accuracy >= 0.85          # mostly taken
    assert local.accuracy >= static.accuracy - 0.02
