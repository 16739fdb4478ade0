"""Markov and hybrid address predictor tests (future-work extension)."""

import pytest

from synth import pointer_chase_loop, strided_load_loop

from repro.addrpred import HybridTable, MarkovTable, TwoDeltaTable, \
    run_address_predictor


def feed(table, pc, addresses):
    return [table.observe(pc, a) for a in addresses]


def test_markov_learns_repeated_sequence():
    table = MarkovTable()
    walk = [0x1000, 0x4230, 0x2110, 0x9990, 0x1350]
    feed(table, 0x100, walk)                 # first walk: training
    outcomes = feed(table, 0x100, walk)      # second walk
    # After the first traversal every transition is known except the
    # wrap-around step back to the first node.
    assert [correct for _, correct, _ in outcomes[1:]] == [True] * 4


def test_markov_confidence_gates_use():
    table = MarkovTable()
    walk = [0x10, 0x20, 0x30, 0x40]
    outcomes = feed(table, 0x100, walk * 4)
    used = [would_use for would_use, _, _ in outcomes]
    assert not used[0]
    assert used[-1]


def test_markov_fails_on_fresh_addresses():
    table = MarkovTable()
    outcomes = feed(table, 0x100, [0x1000 + 16 * i * i for i in range(30)])
    assert not any(correct for _, correct, _ in outcomes)


def test_markov_zero_never_counts_correct():
    """The empty correlation slot (0) must not count as a correct
    prediction of address 0."""
    table = MarkovTable()
    would_use, correct, predicted = table.observe(0x100, 0)
    assert not correct


def test_markov_rejects_bad_sizes():
    with pytest.raises(ValueError):
        MarkovTable(entries=10)
    with pytest.raises(ValueError):
        MarkovTable(correlation_entries=100)


def test_hybrid_rejects_bad_chooser():
    with pytest.raises(ValueError):
        HybridTable(chooser_entries=7)


def test_markov_beats_stride_on_pointer_chase():
    """Repeated identical pointer chases: stride fails, Markov locks on."""
    trace = pointer_chase_loop(120, seed=5)
    # Replay the same chase twice so transitions repeat.
    double = pointer_chase_loop(120, seed=5)
    double.sidx = trace.sidx + trace.sidx
    double.eff_addr = trace.eff_addr + trace.eff_addr
    double.taken = trace.taken + trace.taken
    double.mem_value = trace.mem_value + trace.mem_value
    stride = run_address_predictor(double, TwoDeltaTable())
    markov = run_address_predictor(double, MarkovTable())
    assert markov.raw_accuracy > stride.raw_accuracy + 0.3


def test_stride_beats_markov_on_growing_stride():
    trace = strided_load_loop(200, stride=4)
    stride = run_address_predictor(trace, TwoDeltaTable())
    markov = run_address_predictor(trace, MarkovTable())
    # Every address is new, so correlation has nothing to correlate.
    assert stride.raw_accuracy > 0.9
    assert markov.raw_accuracy < 0.1


def test_hybrid_tracks_better_component():
    chase = pointer_chase_loop(150, seed=2)
    chase.sidx = chase.sidx * 2
    chase.eff_addr = chase.eff_addr * 2
    chase.taken = chase.taken * 2
    chase.mem_value = chase.mem_value * 2
    strided = strided_load_loop(300, stride=8)
    for trace in (chase, strided):
        stride_result = run_address_predictor(trace, TwoDeltaTable())
        markov_result = run_address_predictor(trace, MarkovTable())
        hybrid_result = run_address_predictor(trace, HybridTable())
        best = max(stride_result.raw_accuracy, markov_result.raw_accuracy)
        assert hybrid_result.raw_accuracy >= best - 0.1


def test_hybrid_interface_matches_runner_expectations():
    trace = strided_load_loop(50)
    result = run_address_predictor(trace, HybridTable())
    assert result.loads == 50
    assert set(result.attempted) == set(result.correct)
