"""SoA trace-core benches: scalar references vs numpy kernels, plus the
snapshot.

Real multi-round timings of the paths the SoA refactor vectorized —
fused dependence-depth propagation, the three predictor sweeps, SoA
snapshot construction, and format-v2 save/load.  Each vectorized pass
is timed beside the scalar reference loop it reproduces (the pairs
``tests/test_kernel_equivalence.py`` pins identical), so a run shows
both sides.  The committed speedup snapshot lives in
``benchmarks/BENCH_trace_core.json`` (refresh with
``python -m repro.bench.trace_core --write``); the measuring
regression gate runs in CI via ``python -m repro.bench.trace_core
--check``, while here a cheap test validates the snapshot's shape and
recorded acceptance floor.
"""

import json
import os
from pathlib import Path

import pytest

from repro.addrpred import TwoDeltaTable, run_address_predictor
from repro.analysis.depgraph import (
    DependenceGraph,
    _walk_restructured,
    restructured_depths,
)
from repro.bench.trace_core import (
    DEPTH_FLOOR,
    GATED,
    SNAPSHOT,
    _clear_depth_cache,
)
from repro.bpred import make_branch_predictor, run_branch_predictor
from repro.trace.io import load_trace, save_trace
from repro.vpred import make_value_table, run_value_predictor
from repro.workloads import cached_trace

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))
SIDES = ["scalar", "numpy"]

#: the restructured-depth variants the report consumes, beside plain
_VARIANTS = ({"collapse": True},
             {"collapse": True, "cut_all_loads": True},
             {"cut_all_loads": True})


@pytest.fixture(scope="module")
def trace():
    return cached_trace("espresso", BENCH_SCALE)


def _rounds(benchmark, fn, rounds=3):
    return benchmark.pedantic(fn, rounds=rounds, iterations=1)


@pytest.mark.parametrize("side", SIDES)
def test_depth_kernel(benchmark, trace, side):
    def all_variants():
        # Cold each round: the numpy side re-derives its dependence
        # columns, the scalar side re-walks the rename state.
        _clear_depth_cache(trace)
        if side == "scalar":
            DependenceGraph(trace)._walk_depths()
            for variant in _VARIANTS:
                _walk_restructured(trace, **variant)
        else:
            DependenceGraph(trace).depths()
            for variant in _VARIANTS:
                restructured_depths(trace, **variant)

    _rounds(benchmark, all_variants)


def test_depth_kernel_numpy_warm(benchmark, trace):
    """The fused propagation alone, dependence columns pre-built —
    the figure the >=10x acceptance criterion gates at scale 0.1."""
    from repro.analysis.nkernel import _propagate, dep_columns

    columns = dep_columns(trace)
    result = benchmark.pedantic(lambda: _propagate(columns),
                                rounds=5, iterations=1)
    assert result.shape[0] == len(trace)


@pytest.mark.parametrize("side", SIDES)
def test_branch_sweep(benchmark, trace, side):
    result = _rounds(benchmark, lambda: run_branch_predictor(
        trace, make_branch_predictor() if side == "scalar" else None))
    assert result.conditional > 0


@pytest.mark.parametrize("side", SIDES)
def test_address_sweep(benchmark, trace, side):
    result = _rounds(benchmark, lambda: run_address_predictor(
        trace, TwoDeltaTable() if side == "scalar" else None,
        per_pc=True))
    assert result.loads > 0


@pytest.mark.parametrize("side", SIDES)
def test_value_sweep(benchmark, trace, side):
    result = _rounds(benchmark, lambda: run_value_predictor(
        trace, make_value_table() if side == "scalar" else None))
    assert result.loads > 0


def test_soa_snapshot_build(benchmark, trace):
    def rebuild():
        trace._soa = None
        return trace.soa()
    soa = benchmark.pedantic(rebuild, rounds=3, iterations=1)
    assert soa.n == len(trace)


def test_trace_v2_round_trip(benchmark, trace, tmp_path):
    path = tmp_path / "bench.trace"

    def round_trip():
        save_trace(trace, path)
        return load_trace(path, mmap=True)

    loaded = benchmark.pedantic(round_trip, rounds=3, iterations=1)
    assert len(loaded) == len(trace)


def test_snapshot_records_acceptance_floor():
    """The committed snapshot must exist, cover the gated fields, and
    record the depth-kernel acceptance floor at scale 0.1."""
    snapshot = json.loads(Path(SNAPSHOT).read_text())
    assert snapshot["scale"] == 0.1
    assert snapshot["workloads"], "empty snapshot"
    for name, row in snapshot["workloads"].items():
        for field in GATED:
            assert field in row, (name, field)
        assert row["depth_speedup"] >= DEPTH_FLOOR, \
            (name, row["depth_speedup"])
    assert snapshot["suite"]["depth_speedup_min"] >= DEPTH_FLOOR
