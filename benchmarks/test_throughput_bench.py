"""Raw component throughput benches (real multi-round timings).

These measure hot paths with fresh state per round: the functional
emulator, the predictors, and the windowed scheduler per configuration.
"""

import pytest

from repro.addrpred import run_address_predictor
from repro.bpred import run_branch_predictor
from repro.core import branch_outcomes, paper_config, simulate_trace
from repro.core.simulator import load_outcomes
from repro.emu import trace_program
from repro.workloads import cached_trace, get_workload

SCALE = 0.08


@pytest.fixture(scope="module")
def trace():
    return cached_trace("espresso", SCALE)


@pytest.fixture(scope="module")
def branch(trace):
    return branch_outcomes(trace)


@pytest.fixture(scope="module")
def loads(trace):
    return load_outcomes(trace)


def test_emulator_throughput(benchmark):
    program = get_workload("eqntott").build(scale=SCALE)
    result = benchmark.pedantic(
        lambda: trace_program(program, name="eqntott"),
        rounds=3, iterations=1)
    assert len(result[0]) > 1000


def test_branch_predictor_throughput(benchmark, trace):
    result = benchmark.pedantic(lambda: run_branch_predictor(trace),
                                rounds=3, iterations=1)
    assert result.conditional > 0


def test_address_predictor_throughput(benchmark, trace):
    result = benchmark.pedantic(lambda: run_address_predictor(trace),
                                rounds=3, iterations=1)
    assert result.loads > 0


@pytest.mark.parametrize("letter", ["A", "B", "C", "D", "E"])
def test_scheduler_throughput_by_config(benchmark, trace, branch, loads,
                                        letter):
    config = paper_config(letter, 16)

    def run():
        return simulate_trace(trace, config, branch, loads)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.instructions == len(trace)


def test_scheduler_throughput_wide_window(benchmark, trace, branch, loads):
    """The 2048-wide / 4096-window configuration must stay tractable
    (event-driven scheduling, DESIGN.md)."""
    config = paper_config("D", 2048)

    def run():
        return simulate_trace(trace, config, branch, loads)

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.ipc > 1.0
