"""SoA trace snapshot unit tests."""

import numpy as np
import pytest

from synth import random_trace

from repro.analysis.depgraph import DependenceGraph
from repro.trace.soa import (
    DYN_COLUMNS,
    STATIC_COLUMNS,
    TRACE_DTYPES,
    trace_arrays,
)


def test_schema_covers_every_column():
    assert set(TRACE_DTYPES) == set(STATIC_COLUMNS) | set(DYN_COLUMNS)


def test_snapshot_dtypes_and_values():
    trace = random_trace(120, seed=11)
    soa = trace.soa()
    for col in STATIC_COLUMNS:
        array = soa.col(col)
        assert array.dtype == np.dtype(TRACE_DTYPES[col])
        assert array.tolist() == list(getattr(trace.static, col))
    for col in DYN_COLUMNS:
        array = soa.col(col)
        assert array.dtype == np.dtype(TRACE_DTYPES[col])
        assert array.tolist() == list(getattr(trace, col))


def test_snapshot_memoised_and_rebuilt_on_growth():
    trace = random_trace(50, seed=12)
    first = trace.soa()
    assert trace.soa() is first
    # Append one dynamic entry: the snapshot must be retaken.
    trace.sidx.append(trace.sidx[0])
    trace.eff_addr.append(0)
    trace.taken.append(False)
    trace.mem_value.append(0)
    second = trace.soa()
    assert second is not first
    assert second.n == first.n + 1


def test_snapshot_arrays_read_only():
    soa = random_trace(30, seed=13).soa()
    with pytest.raises(ValueError):
        soa.dyn["sidx"][0] = 99
    with pytest.raises(ValueError):
        soa.gathered("cls")[0] = 99


def test_gathered_matches_python_gather():
    trace = random_trace(90, seed=14)
    soa = trace.soa()
    expected = [trace.static.lat[s] for s in trace.sidx]
    assert soa.gathered("lat").tolist() == expected
    assert soa.gathered("lat") is soa.gathered("lat")


def test_trace_arrays_function_is_entry_point():
    trace = random_trace(20, seed=15)
    assert trace_arrays(trace) is trace.soa()


# ----------------------------------------------------------------------
# depths() aliasing (satellite fix): the memoised depths can no longer
# be poisoned by a mutating caller.
# ----------------------------------------------------------------------

def test_depths_immutable_and_memoised():
    graph = DependenceGraph(random_trace(80, seed=16))
    depths = graph.depths()
    assert isinstance(depths, tuple)
    assert graph.depths() is depths
    with pytest.raises(TypeError):
        depths[0] = 0
    assert graph.critical_path() == max(depths)
