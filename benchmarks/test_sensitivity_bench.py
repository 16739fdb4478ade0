"""Bench: trace-length sensitivity of the headline metrics.

Validates DESIGN.md's substitution claim — the reported rates must be
stable across workload scales, otherwise the short-trace substitution
would not be sound.
"""

from conftest import BENCH_SCALE, once

from repro.experiments.sensitivity import max_drift, scale_sensitivity


def test_scale_sensitivity(benchmark):
    scales = (BENCH_SCALE, 2 * BENCH_SCALE, 4 * BENCH_SCALE)

    def sweep():
        return {name: scale_sensitivity(name, scales=scales, width=16)
                for name in ("eqntott", "ijpeg", "li")}

    exhibits = once(benchmark, sweep)
    for name, exhibit in exhibits.items():
        print("\n" + exhibit.render())
        # Collapsed fraction and branch accuracy are rates: drift across
        # a 4x length change stays modest for loop-dominated kernels.
        assert max_drift(exhibit, "collapsed (%)") < 0.35, name
        assert max_drift(exhibit, "branch acc (%)") < 0.35, name
