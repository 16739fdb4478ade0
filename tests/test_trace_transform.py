"""Trace slicing/concatenation tests."""

import pytest

from synth import pointer_chase_loop, strided_load_loop

from repro.errors import ReproError
from repro.trace import trace_concat, trace_slice, truncate


def test_slice_basic():
    trace = strided_load_loop(50)
    piece = trace_slice(trace, 10, 40)
    assert len(piece) == 30
    assert piece.sidx == trace.sidx[10:40]
    assert piece.eff_addr == trace.eff_addr[10:40]
    assert piece.static is trace.static
    assert "[10:40]" in piece.name


def test_slice_defaults_to_end():
    trace = strided_load_loop(20)
    piece = trace_slice(trace, 5)
    assert len(piece) == len(trace) - 5


def test_slice_rejects_bad_bounds():
    trace = strided_load_loop(10)
    with pytest.raises(ReproError):
        trace_slice(trace, -1, 5)
    with pytest.raises(ReproError):
        trace_slice(trace, 8, 4)
    with pytest.raises(ReproError):
        trace_slice(trace, 0, 10_000)


def test_truncate_paper_style():
    trace = strided_load_loop(100)
    short = truncate(trace, 30)
    assert len(short) == 30
    # Truncating beyond the end is a no-op copy.
    assert len(truncate(trace, 10_000)) == len(trace)


def test_concat_round_trips_slices():
    trace = strided_load_loop(60)
    first = trace_slice(trace, 0, 30)
    second = trace_slice(trace, 30)
    joined = trace_concat([first, second], name="joined")
    assert joined.sidx == trace.sidx
    assert joined.eff_addr == trace.eff_addr
    assert joined.taken == trace.taken
    assert joined.mem_value == trace.mem_value


def test_concat_requires_shared_static():
    a = strided_load_loop(10)
    b = strided_load_loop(10)
    with pytest.raises(ReproError):
        trace_concat([a, b])
    with pytest.raises(ReproError):
        trace_concat([])


def test_slices_simulate():
    from repro.core import paper_config, simulate_trace
    trace = strided_load_loop(200)
    piece = trace_slice(trace, 50, 150)
    result = simulate_trace(piece, paper_config("D", 8))
    assert result.instructions == 100


def test_repeated_trace_improves_correlation_prediction():
    """Concatenating a trace with itself is how the Markov predictor
    tests repeated traversals."""
    from repro.addrpred import MarkovTable, run_address_predictor
    chase = pointer_chase_loop(100, seed=4)
    doubled = trace_concat([chase, trace_slice(chase, 0)], name="x2")
    single = run_address_predictor(chase, MarkovTable())
    double = run_address_predictor(doubled, MarkovTable())
    assert double.raw_accuracy > single.raw_accuracy + 0.2
