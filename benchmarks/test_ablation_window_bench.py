"""Ablation bench: window size relative to issue width.

The paper fixes window = 2x issue width; this bench quantifies what 1x
and 4x windows do to the base machine and to configuration D, showing
how collapsing interacts with lookahead (collapsing needs producer and
consumer co-resident in the window).
"""

import pytest

from repro.collapse import CollapseRules
from repro.core import MachineConfig, branch_outcomes, simulate_trace
from repro.core.simulator import load_outcomes
from repro.metrics import harmonic_mean, render_table
from repro.workloads import suite_traces

SCALE = 0.06
WIDTH = 16


@pytest.fixture(scope="module")
def prepared():
    traces = suite_traces(scale=SCALE)
    return [(trace, branch_outcomes(trace), load_outcomes(trace))
            for trace in traces]


def _mean(prepared, factor, collapse):
    rules = CollapseRules.paper() if collapse else None
    config = MachineConfig(WIDTH, window_size=factor * WIDTH,
                           collapse_rules=rules,
                           load_spec="real" if collapse else "none")
    ipcs = []
    collapsed = []
    for trace, branch, loads in prepared:
        result = simulate_trace(trace, config, branch, loads)
        ipcs.append(result.ipc)
        collapsed.append(result.collapse.collapsed_fraction)
    return harmonic_mean(ipcs), sum(collapsed) / len(collapsed)


def test_window_scaling(benchmark, prepared):
    factors = (1, 2, 4)

    def sweep():
        return {
            (factor, collapse): _mean(prepared, factor, collapse)
            for factor in factors for collapse in (False, True)
        }

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = []
    for factor in factors:
        base_ipc, _ = outcome[(factor, False)]
        d_ipc, frac = outcome[(factor, True)]
        rows.append(["%dx" % factor, base_ipc, d_ipc,
                     d_ipc / base_ipc, 100 * frac])
    print("\n" + render_table(
        ["window", "base IPC", "D IPC", "D speedup", "collapsed (%)"],
        rows, title="window-size ablation (width %d)" % WIDTH))
    # Bigger windows help the base machine monotonically...
    bases = [outcome[(f, False)][0] for f in factors]
    assert bases[0] <= bases[1] <= bases[2] * 1.001
    # ...and give the collapser more co-residency to work with.
    fractions = [outcome[(f, True)][1] for f in factors]
    assert fractions[0] <= fractions[2] + 0.01
