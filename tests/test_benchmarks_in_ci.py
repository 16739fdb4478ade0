"""Every bench under ``benchmarks/`` runs in some CI step.

The twin of ``test_examples.py::test_every_example_is_covered``: a bench
file counts as covered when a ``pytest`` command in the CI workflow
names it, or names a directory holding it that the same command does
not ``--ignore``.
"""

import os
import shlex

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "ci.yml")


def pytest_commands(text):
    """``(paths, ignored)`` for each pytest command in ``text``."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if "pytest" not in words:
            continue
        args = words[words.index("pytest") + 1:]
        commands.append(
            ([os.path.normpath(w) for w in args if not w.startswith("-")],
             [os.path.normpath(w.split("=", 1)[1]) for w in args
              if w.startswith("--ignore=")]))
    return commands


def inside(path, directory):
    return path == directory or path.startswith(directory + os.sep)


def bench_files():
    return sorted(
        os.path.relpath(os.path.join(folder, name), ROOT)
        for folder, _, names in os.walk(os.path.join(ROOT, "benchmarks"))
        for name in names
        if name.startswith("test_") and name.endswith(".py"))


@pytest.mark.parametrize("bench", bench_files())
def test_every_bench_runs_in_ci(bench):
    """Adding a bench that no CI step runs should fail."""
    with open(WORKFLOW) as handle:
        commands = pytest_commands(handle.read())
    assert any(any(inside(bench, path) for path in paths)
               and not any(inside(bench, path) for path in ignored)
               for paths, ignored in commands), bench
