"""Every machine outside the scheduler's own tests runs through
``simulate_trace``.

The twin of ``test_benchmarks_in_ci.py``:
``repro.core.simulator.simulate_trace`` is the one place a
configuration's inputs are chosen, so no ``.py`` file outside
``src/repro/core/`` and ``tests/`` may construct a ``WindowScheduler``
itself.  Benches and examples hand their inputs to ``simulate_trace``
and let it drop the ones a configuration does not use.
"""

import os

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
ALLOWED = (os.path.join("src", "repro", "core"), "tests")


def python_files():
    for folder, dirs, names in os.walk(ROOT):
        dirs[:] = [name for name in dirs if not name.startswith(".")]
        for name in names:
            if name.endswith(".py"):
                yield os.path.relpath(os.path.join(folder, name), ROOT)


def test_only_core_and_tests_construct_a_scheduler():
    """Building a ``WindowScheduler`` in a bench, an example or another
    package should fail."""
    offenders = []
    for path in python_files():
        if any(path.startswith(allowed + os.sep) for allowed in ALLOWED):
            continue
        with open(os.path.join(ROOT, path)) as handle:
            if "WindowScheduler(" in handle.read():
                offenders.append(path)
    assert offenders == []
