"""Derived MDPT-geometry cells equal simulated ones.

``ExperimentRunner.simulate`` serves a config that only resizes the
MDPT from the default-geometry run whenever ``MDPT.lossless`` holds for
both tables on that run's violation pairs.  eqntott is the registered
workload whose F and G runs train the table: at width 8 and scale 0.03
they train 2 and 3 pairs, at 0.05 F trains 1 and G 7 (G's load 4244
against two stores).  Over entries {1, 2, 64, 512, 1024} x store sets {1, 2, 4, 8}
some geometries derive and the rest are simulated; with and without a
disk cache, every cell's full payload, issue cycles included, must
equal ``simulate_trace``'s on the same config.  The degenerate tables
below do diverge from the default, so a predicate that derives them
fails here.
"""

import os

import pytest

from repro.core.config import paper_config
from repro.core.simulator import simulate_trace
from repro.experiments import ExperimentRunner
from repro.workloads import cached_trace

NAME = "eqntott"
SCALES = (0.03, 0.05)
WIDTHS = (8, 2048)
ENTRIES = (1, 2, 64, 512, 1024)
STORE_SETS = (1, 2, 4, 8)

CELLS = [(scale, letter, width, entries, store_set)
         for scale in SCALES for letter in "FG" for width in WIDTHS
         for entries in ENTRIES for store_set in STORE_SETS]


def config(letter, width, entries, store_set):
    return paper_config(letter, width, mdpt_entries=entries,
                        mdpt_store_set=store_set)


@pytest.fixture(scope="module")
def expected():
    return {(scale, letter, width, entries, store_set): simulate_trace(
        cached_trace(NAME, scale),
        config(letter, width, entries, store_set)).to_payload()
        for scale, letter, width, entries, store_set in CELLS}


def test_degenerate_tables_diverge(expected):
    """The refused geometries the derivation must not serve."""
    cycles = {cell: payload["cycles"] for cell, payload in expected.items()}
    assert cycles[(0.03, "F", 8, 1, 1)] == 983
    assert cycles[(0.03, "F", 8, 512, 4)] == 984
    assert cycles[(0.05, "G", 8, 512, 1)] == 1251
    assert cycles[(0.05, "G", 8, 2, 1)] == 1177
    assert cycles[(0.05, "G", 8, 512, 4)] == 1250


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cold"])
def test_every_geometry_matches_simulation(expected, cached, tmp_path):
    derived = 0
    for scale in SCALES:
        runner = ExperimentRunner(
            scale=scale, widths=WIDTHS, names=(NAME,),
            keep_schedules=True,
            cache_dir=tmp_path / str(scale) if cached else None)
        for cell in CELLS:
            if cell[0] == scale:
                result = runner.simulate(NAME, config(*cell[1:]))
                assert result.to_payload() == expected[cell], cell
        derived += runner.profile.derived
        if cached:
            # Derived cells neither read nor write the disk cache.
            simulated = runner.profile.misses
            assert runner.profile.hits == 0
            assert runner.cache.stats()["result_misses"] == simulated
            assert len(os.listdir(runner.cache.result_dir)) == simulated
    assert derived == 82
