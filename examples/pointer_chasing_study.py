"""The pointer-chasing story (Section 5.2, Figures 4-7, Tables 3-4).

Stride-based load speculation is nearly useless for pointer-chasing codes
(li, go) and effective for regular codes (compress, espresso, eqntott,
ijpeg).  This example measures both subsets side by side and prints the
per-load category breakdown that explains why.

Run:  python examples/pointer_chasing_study.py [scale]
"""

import sys

from repro.core import LOAD_CATEGORIES, paper_config, simulate_many
from repro.metrics import render_table
from repro.workloads import POINTER_CHASING, NON_POINTER_CHASING, \
    cached_trace

WIDTH = 16


def study(names, scale):
    rows = []
    for name in names:
        trace = cached_trace(name, scale)
        a, b, d, e = simulate_many(
            trace, [paper_config(letter, WIDTH) for letter in "ABDE"])
        fractions = d.loads.fractions()
        rows.append([
            name,
            b.speedup_over(a),
            d.speedup_over(a),
            e.speedup_over(a),
            100 * fractions["predicted_correctly"],
            100 * fractions["not_predicted"],
        ])
    return rows


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.15
    headers = ["workload", "B speedup", "D speedup", "E speedup",
               "pred. correct (%)", "not predicted (%)"]
    print(render_table(
        headers, study(POINTER_CHASING, scale),
        title="pointer-chasing set (width %d)" % WIDTH))
    print()
    print(render_table(
        headers, study(NON_POINTER_CHASING, scale),
        title="non pointer-chasing set (width %d)" % WIDTH))
    print("""
reading guide (paper Section 5.2):
- pointer chasers: B barely above 1.0 -> stride prediction cannot follow
  p = p->next; the E column shows what a better predictor could unlock.
- regular codes: a large predicted-correctly share turns into real
  speedup with no oracle.
- load categories are per the paper: %s
""" % (", ".join(LOAD_CATEGORIES),))


if __name__ == "__main__":
    main()
