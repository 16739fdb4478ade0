"""Shared helpers for the benches in this directory.

The benches here measure: raw component throughput, the trace-core
kernels against their scalar references, the DESIGN.md §6 ablations and
the trace-length sensitivity of the headline rates.  The paper's
exhibits and their shape claims live in the tier-1 suite
(``tests/test_experiments*.py``) and in the report's "Shape checks";
``python -m repro report`` regenerates EXPERIMENTS.md.

``BENCH_SCALE`` (default 0.08, override with ``REPRO_BENCH_SCALE``) is
the base workload scale of the sensitivity bench.
"""

import os

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.08"))


def once(benchmark, fn):
    """Run ``fn`` exactly once under the benchmark clock.

    Exhibit generation is dominated by trace simulation; multiple rounds
    would only measure the memoisation cache.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
