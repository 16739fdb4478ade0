"""Anatomy of collapsing on a real workload (Figures 8-10, Tables 5-6).

Shows, for one workload and one machine, what actually collapses: the
category split (3-1 / 4-1 / 0-op), the distance histogram, and the most
frequent pair and triple operation sequences.

Run:  python examples/collapse_anatomy.py [workload] [width] [scale]
"""

import sys

from repro.core import paper_config, simulate_trace
from repro.metrics import render_bar_chart, render_table
from repro.workloads import cached_trace


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "espresso"
    width = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    scale = float(sys.argv[3]) if len(sys.argv) > 3 else 0.15

    trace = cached_trace(name, scale)
    result = simulate_trace(trace, paper_config("D", width))
    stats = result.collapse

    print("%s @ width %d: IPC %.2f, %d collapse events, "
          "%.0f%% of instructions collapsed\n"
          % (name, width, result.ipc, stats.events,
             100 * stats.collapsed_fraction))

    fractions = stats.category_fractions()
    print(render_bar_chart(
        [(category, 100 * share) for category, share in fractions.items()],
        title="mechanism contribution (%)"))
    print()

    histogram = sorted(stats.distance_histogram().items(),
                       key=lambda kv: (len(kv[0]), kv[0]))
    print(render_bar_chart([(k, 100 * v) for k, v in histogram],
                           title="producer->consumer distance (%)"))
    print()

    pair_rows = [[" - ".join(sigs), 100 * share]
                 for sigs, share in stats.top_pairs(10)]
    print(render_table(["pair", "share (%)"], pair_rows,
                       title="top collapsed pairs (Table 5 analogue)"))
    print()
    triple_rows = [[" - ".join(sigs), 100 * share]
                   for sigs, share in stats.top_triples(10)]
    print(render_table(["triple", "share (%)"], triple_rows,
                       title="top collapsed triples (Table 6 analogue)"))


if __name__ == "__main__":
    main()
