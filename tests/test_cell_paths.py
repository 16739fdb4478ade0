"""Every cell path gives the result ``simulate_trace`` gives.

``ExperimentRunner.result`` and ``ExperimentRunner.simulate`` (without
a cache, on a cold cache, on a warm cache and sanitized) and
``run_cells`` over a process pool must each reproduce ``simulate_trace``
on the workload's trace with its DAE and branch plans: one small suite
workload at scale 0.03, every registered letter and the Extension
exhibit's D+elim, D+vspec and D+both variants, at widths 8 and 2048.
"""

import pytest

from repro.core.config import config_letters, paper_config
from repro.core.simulator import simulate_trace
from repro.experiments import ExperimentRunner, run_cells
from repro.experiments.extensions import _VARIANTS, _variant_config
from repro.workloads import cached_branch_plan, cached_dae_plan, cached_trace

NAME = "eqntott"
SCALE = 0.03
WIDTHS = (8, 2048)

#: (label, width) -> config: registered letters, then the variants.
CELLS = dict(
    [((letter, width), paper_config(letter, width))
     for letter in config_letters() for width in WIDTHS]
    + [((label, width), _variant_config(width, elim, vspec))
       for label, elim, vspec in _VARIANTS if label != "D"
       for width in WIDTHS])


def payload(result):
    """The result's payload without its per-instruction issue cycles
    (the runner keeps them only with ``keep_schedules``)."""
    return dict(result.to_payload(), issue_cycles=None)


@pytest.fixture(scope="module")
def expected():
    trace = cached_trace(NAME, SCALE)
    return {key: payload(simulate_trace(
        trace, config, dae_plan=cached_dae_plan(NAME, SCALE),
        branch_plan=cached_branch_plan(NAME, SCALE)))
        for key, config in CELLS.items()}


def runner_payloads(runner):
    """Letters through ``result``, the variants through ``simulate``."""
    return {(label, width): payload(
        runner.result(NAME, label, width) if label in config_letters()
        else runner.simulate(NAME, config))
        for (label, width), config in CELLS.items()}


def test_the_cells_exercise_every_mechanism(expected):
    for field, label in (("memdep", "F"), ("dae", "H"),
                         ("value_spec", "I"), ("branch_spec", "J")):
        assert expected[(label, 8)][field] is not None, label
    assert expected[("H", 8)]["cycles"] != expected[("A", 8)]["cycles"]
    assert expected[("D+both", 8)]["collapse"]["eliminated"] > 0


def test_runner_without_cache(expected):
    runner = ExperimentRunner(scale=SCALE, widths=WIDTHS, names=(NAME,))
    assert runner_payloads(runner) == expected


def test_runner_on_cold_and_warm_cache(expected, tmp_path):
    cold = ExperimentRunner(scale=SCALE, widths=WIDTHS, names=(NAME,),
                            cache_dir=tmp_path)
    assert runner_payloads(cold) == expected
    assert cold.profile.hits == 0
    warm = ExperimentRunner(scale=SCALE, widths=WIDTHS, names=(NAME,),
                            cache_dir=tmp_path)
    assert runner_payloads(warm) == expected
    assert warm.profile.misses == 0
    assert warm.cache.stats()["result_hits"] == len(CELLS)


def test_sanitized_runner(expected):
    runner = ExperimentRunner(scale=SCALE, widths=WIDTHS, names=(NAME,),
                              sanitize=True)
    assert runner_payloads(runner) == expected
    assert runner.sanitized_runs == len(CELLS)


def test_pool(expected):
    letters = [key for key in CELLS if key[0] in config_letters()]
    results, profile = run_cells([(NAME, letter, width)
                                  for letter, width in letters],
                                 SCALE, jobs=2)
    assert [payload(result) for result in results] == \
        [expected[key] for key in letters]
    assert profile.misses == len(letters)
