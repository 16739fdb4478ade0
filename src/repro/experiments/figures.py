"""Reproductions of the paper's figures (as numeric series).

Figures 2-7: harmonic-mean IPC and speedup-over-A curves for the
registered configurations across issue widths, for the full suite and
the two benchmark subsets.  Figures 8-10: collapsing behaviour under
configuration D.

The letter set comes from :func:`repro.core.config.config_letters` *at
call time*, so a configuration registered in ``core/config.py`` appears
in every figure without touching this module.
"""

from ..collapse.stats import CAT_0OP, CAT_3_1, CAT_4_1, CollapseStats
from ..core.config import WIDTH_LABELS, config_letters
from ..metrics.means import harmonic_mean, mean_ipc, mean_speedup
from ..workloads.registry import NON_POINTER_CHASING, POINTER_CHASING
from .exhibit import Exhibit, register_exhibit


def _ipc_exhibit(runner, key, title, names):
    letters = config_letters()
    headers = ["width"] + list(letters)
    rows = []
    for width in runner.widths:
        row = [WIDTH_LABELS.get(width, str(width))]
        for letter in letters:
            row.append(mean_ipc(runner.results(letter, width, names)))
        rows.append(row)
    return Exhibit(key, title, headers, rows,
                   note="harmonic-mean IPC over %s" % (", ".join(names),))


def _speedup_exhibit(runner, key, title, names):
    letters = [letter for letter in config_letters() if letter != "A"]
    headers = ["width"] + letters
    rows = []
    for width in runner.widths:
        baselines = runner.results("A", width, names)
        row = [WIDTH_LABELS.get(width, str(width))]
        for letter in letters:
            row.append(mean_speedup(runner.results(letter, width, names),
                                    baselines))
        rows.append(row)
    return Exhibit(key, title, headers, rows,
                   note="harmonic-mean speedup over configuration A")


@register_exhibit(
    "figure2", order=20,
    note="Paper shape: E > D > C > B > A at every width; IPC grows "
         "with width and saturates for realistic configs.  The "
         "registry-driven columns add F/G (MDPT memory "
         "disambiguation): realistic disambiguation costs IPC versus "
         "the perfect-memory A, so F <= A and G <= C up to the "
         "slot-stealing anomaly (docs/MODEL.md).")
def figure2(runner):
    """IPC for the different configurations and issue widths."""
    return _ipc_exhibit(runner, "Figure 2",
                        "IPC for the registered configurations",
                        runner.names)


@register_exhibit(
    "figure3", order=21,
    note="Paper: D speedups 1.20/1.35/1.51/1.66 at widths "
         "4/8/16/32; E up to 2.95 at 2k; B+C roughly additive to D.")
def figure3(runner):
    """Speedup over the superscalar base machine (A)."""
    return _speedup_exhibit(runner, "Figure 3",
                            "Speedup over base machine", runner.names)


@register_exhibit(
    "figure4", order=22,
    note="Paper: pointer-chasing ideal-speculation potential "
         "similar to the full set.")
def figure4(runner):
    return _ipc_exhibit(runner, "Figure 4",
                        "IPC, pointer-chasing benchmarks",
                        list(POINTER_CHASING))


@register_exhibit(
    "figure5", order=23,
    note="Paper: B alone gives only 5-9% for pointer chasers; "
         "C gains smaller than the all-benchmark mean.")
def figure5(runner):
    return _speedup_exhibit(runner, "Figure 5",
                            "Speedup, pointer-chasing benchmarks",
                            list(POINTER_CHASING))


@register_exhibit(
    "figure6", order=24,
    note="Paper: non-pointer benchmarks keep most of the ideal "
         "gain with realistic speculation.")
def figure6(runner):
    return _ipc_exhibit(runner, "Figure 6",
                        "IPC, non pointer-chasing benchmarks",
                        list(NON_POINTER_CHASING))


@register_exhibit(
    "figure7", order=25,
    note="Paper: D reaches 1.23-1.8 for widths 4-32.")
def figure7(runner):
    return _speedup_exhibit(runner, "Figure 7",
                            "Speedup, non pointer-chasing benchmarks",
                            list(NON_POINTER_CHASING))


@register_exhibit(
    "figure8", order=40, letters=("D",),
    note="Paper: 29-47% of instructions collapse, growing with "
         "width. Our fractions run higher because the analog "
         "kernels are hand-written inner loops — denser in "
         "collapsible shift/arith/addr-gen chains than whole "
         "compiled SPEC binaries (no prologue/epilogue, libc, or "
         "register-spill filler). The orderings (li lowest, "
         "growth with width) carry over.")
def figure8(runner):
    """Percentage of instructions d-collapsed (configuration D)."""
    headers = ["width"] + list(runner.names) + ["hmean"]
    rows = []
    for width in runner.widths:
        row = [WIDTH_LABELS.get(width, str(width))]
        fractions = []
        for name in runner.names:
            result = runner.result(name, "D", width)
            fraction = result.collapse.collapsed_fraction
            fractions.append(fraction)
            row.append(100.0 * fraction)
        row.append(100.0 * harmonic_mean(f if f > 0 else 1e-9
                                         for f in fractions))
        rows.append(row)
    return Exhibit("Figure 8", "Instructions d-collapsed (%)",
                   headers, rows, precision=1)


def _merged_collapse(runner, width):
    merged = CollapseStats()
    for name in runner.names:
        merged.merge(runner.result(name, "D", width).collapse)
    return merged


@register_exhibit(
    "figure9", order=41, letters=("D",),
    note="Paper: 3-1 contributes 65-82% (widths <= 32), 4-1 "
         "13-30%, 0-op 5-10%.")
def figure9(runner):
    """Contribution of the 3-1 / 4-1 / 0-op mechanisms (config D)."""
    headers = ["width", CAT_3_1, CAT_4_1, CAT_0OP]
    rows = []
    for width in runner.widths:
        fractions = _merged_collapse(runner, width).category_fractions()
        rows.append([WIDTH_LABELS.get(width, str(width)),
                     100.0 * fractions[CAT_3_1],
                     100.0 * fractions[CAT_4_1],
                     100.0 * fractions[CAT_0OP]])
    return Exhibit("Figure 9", "Collapsing mechanism contributions (%)",
                   headers, rows, precision=1)


@register_exhibit(
    "figure10", order=42, letters=("D",),
    note="Paper: for widths > 8 most collapsed pairs are "
         "non-consecutive, yet distance is nearly always < 8.")
def figure10(runner):
    """Distance between d-collapsed instructions (config D)."""
    buckets = ["1", "2", "3", "4", "5-7", "8-15", ">15"]
    headers = ["width"] + buckets + ["<=8 (%)"]
    rows = []
    for width in runner.widths:
        stats = _merged_collapse(runner, width)
        histogram = stats.distance_histogram()
        row = [WIDTH_LABELS.get(width, str(width))]
        row.extend(100.0 * histogram.get(bucket, 0.0)
                   for bucket in buckets)
        row.append(100.0 * stats.fraction_within(8))
        rows.append(row)
    return Exhibit("Figure 10", "Distance between collapsed instructions "
                   "(% of collapse events)", headers, rows, precision=1)
