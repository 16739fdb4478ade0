"""Reproductions of the paper's tables."""

from collections import Counter

from ..core.config import WIDTH_LABELS
from ..core.results import LOAD_CATEGORIES
from ..metrics.means import arithmetic_mean
from ..trace.stats import TraceStats
from ..workloads.registry import (
    NON_POINTER_CHASING,
    POINTER_CHASING,
    WORKLOADS,
)
from .exhibit import Exhibit, register_exhibit


@register_exhibit(
    "table1", order=0, letters=(),
    note="Paper: 88-250M-instruction qpt2 traces; here: emulator "
         "traces of the analog kernels (see DESIGN.md substitutions).")
def table1(runner):
    """Benchmark characteristics (trace sizes and mix)."""
    headers = ["name", "instructions", "loads (%)", "stores (%)",
               "shifts (%)", "pointer chasing"]
    rows = []
    for name in runner.names:
        stats = TraceStats(runner.trace(name))
        rows.append([
            name,
            stats.length,
            100.0 * stats.load_fraction,
            100.0 * stats.store_fraction,
            100.0 * stats.shift_fraction,
            "yes" if WORKLOADS[name].pointer_chasing else "no",
        ])
    return Exhibit("Table 1", "Benchmark characteristics", headers, rows,
                   precision=1)


@register_exhibit(
    "table2", order=10, letters=(),
    note="Paper: 8.97-27.5% conditional branches, 83.7-96.8% "
         "predicted. Shape check: go worst-predicted, li best.")
def table2(runner):
    """Branch characteristics: conditional fraction and prediction
    accuracy of the 8 kB bimodal/gshare predictor."""
    headers = ["name", "cond branches (%)", "predicted correctly (%)"]
    rows = []
    for name in runner.names:
        branch = runner.branch(name)
        rows.append([name,
                     100.0 * branch.cond_branch_fraction,
                     100.0 * branch.accuracy])
    return Exhibit("Table 2", "Benchmark branch characteristics",
                   headers, rows, precision=1)


def _load_table(runner, key, title, names):
    headers = ["width", "ready (%)", "predicted correctly (%)",
               "predicted incorrectly (%)", "not predicted (%)"]
    rows = []
    for width in runner.widths:
        per_category = {category: [] for category in LOAD_CATEGORIES}
        for name in names:
            fractions = runner.result(name, "D", width).loads.fractions()
            for category in LOAD_CATEGORIES:
                per_category[category].append(fractions[category])
        row = [WIDTH_LABELS.get(width, str(width))]
        row.extend(100.0 * arithmetic_mean(per_category[category])
                   for category in LOAD_CATEGORIES)
        rows.append(row)
    return Exhibit(key, title, headers, rows, precision=1,
                   note="configuration D, mean over %s" % (", ".join(names),))


@register_exhibit(
    "table3", order=30, letters=("D",),
    note="Paper: 12.4-26.7% predicted correctly, ~38-44% not "
         "predicted, very few mispredictions.")
def table3(runner):
    """Load-speculation behaviour for pointer-chasing benchmarks."""
    return _load_table(runner, "Table 3",
                       "Load-speculation, pointer-chasing set",
                       list(POINTER_CHASING))


@register_exhibit(
    "table4", order=31, letters=("D",),
    note="Paper: 28-57% predicted correctly, ~20% not predicted, "
         "~2% mispredicted.")
def table4(runner):
    """Load-speculation behaviour for non pointer-chasing benchmarks."""
    return _load_table(runner, "Table 4",
                       "Load-speculation, non pointer-chasing set",
                       list(NON_POINTER_CHASING))


def _signature_table(runner, key, title, chains, top):
    """Shared machinery for Tables 5 and 6.

    ``chains`` selects pair or triple signature counters.  Percentages are
    of all pair (triple) collapses summed over the whole suite, per width
    (exactly the paper's definition).
    """
    per_width = {}
    for width in runner.widths:
        counts = Counter()
        for name in runner.names:
            stats = runner.result(name, "D", width).collapse
            counts.update(getattr(stats, chains))
        per_width[width] = counts
    # Rank rows by their share at the largest width (the paper sorts by
    # the 2k column).
    largest = runner.widths[-1]
    # Ties break by signature so the ranking does not depend on Counter
    # insertion order (serial vs. cache-decoded results would differ).
    ranked = [sigs for sigs, _ in
              sorted(per_width[largest].items(),
                     key=lambda item: (-item[1], item[0]))[:top]]
    ops = max((len(sigs) for sigs in ranked), default=2)
    headers = ["op%d" % (i + 1) for i in range(ops)]
    headers += [WIDTH_LABELS.get(w, str(w)) for w in
                reversed(runner.widths)]
    rows = []
    for sigs in ranked:
        row = list(sigs) + [""] * (ops - len(sigs))
        for width in reversed(runner.widths):
            total = max(1, sum(per_width[width].values()))
            row.append(100.0 * per_width[width][sigs] / total)
        rows.append(row)
    return Exhibit(key, title, headers, rows, precision=2,
                   note="%% of all such collapses, configuration D; "
                        "ranked by the widest machine")


@register_exhibit(
    "table5", order=50, letters=("D",),
    note="Paper's top pairs: arrr-brc, arri-brc, arri-arri, "
         "shri-ldrr, mvi-lgri ... (compare rows).")
def table5(runner, top=12):
    """Most frequently collapsed pair (3-1 style) sequences."""
    return _signature_table(runner, "Table 5",
                            "Collapsed pair dependences",
                            "pair_signatures", top)


@register_exhibit(
    "table6", order=51, letters=("D",),
    note="Paper's top triples: arri-arri-arri, lgr0-lgr0-arrr, "
         "arrr-arrr-arrr ... (compare rows).")
def table6(runner, top=13):
    """Most frequently collapsed triple (4-1 style) sequences."""
    return _signature_table(runner, "Table 6",
                            "Collapsed triple dependences",
                            "triple_signatures", top)
