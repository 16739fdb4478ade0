"""Make tests/ importable as a flat namespace and pin hypothesis to
deterministic example generation so CI runs are stable.

The flat namespace holds the code only tests use: ``helpers``
(handcrafted predictor outcomes, drawn programs), ``synth``
(``TraceBuilder`` and the synthetic trace generators), ``references``
(scalar twins of vectorized passes) and ``reference_scheduler`` (the
cycle-scan machine).  ``test_src_is_read.py`` keeps such code out of
``src/``: it fails on a function, class or method in ``src/repro`` that
nothing in ``src/``, ``examples/`` or ``benchmarks/`` reads.

``--hypothesis-profile=deep`` keeps that determinism and raises the
example budget of every property test that sets no ``max_examples`` of
its own (CI runs ``test_scheduler_recovery.py``,
``test_mdpt_replay_producers.py``, ``test_memdep_mdpt.py``,
``test_reference_scheduler.py``, ``test_collapse_tally.py`` and
``test_lint_properties.py`` this way).

``--regen-golden`` rewrites the golden files under ``tests/golden/``
from the current code instead of asserting them (see
``test_golden_cells.py``)."""

import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile("repro", derandomize=True)
settings.register_profile("deep", parent=settings.get_profile("repro"),
                          max_examples=1000)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption("--regen-golden", action="store_true", default=False,
                     help="rewrite tests/golden/*.json from the current "
                          "code instead of asserting them")


@pytest.fixture
def regen_golden(request):
    return request.config.getoption("--regen-golden")
