"""Ablation bench: control-prediction quality vs. attainable speedup.

Section 1 of the paper: "Significant performance is achieved with perfect
branch prediction, but gains are diminished when using realistic
prediction."  This bench sweeps predictor quality under configuration D
to show how much of the d-speculation/d-collapsing potential each
front end can actually harvest.
"""

import pytest

from repro.bpred import (
    BimodalPredictor,
    CombiningPredictor,
    LocalHistoryPredictor,
    PerfectPredictor,
    StaticPredictor,
    run_branch_predictor,
)
from repro.collapse import CollapseRules
from repro.core import MachineConfig
from repro.core.simulator import load_outcomes, simulate_trace
from repro.metrics import arithmetic_mean, harmonic_mean, render_table
from repro.workloads import suite_traces

SCALE = 0.06
WIDTH = 16

PREDICTORS = (
    ("always-taken", lambda: StaticPredictor(True)),
    ("bimodal", BimodalPredictor),
    ("local-history", LocalHistoryPredictor),
    ("combining 8kB (paper)", CombiningPredictor),
    ("perfect", PerfectPredictor),
)


@pytest.fixture(scope="module")
def prepared():
    traces = suite_traces(scale=SCALE)
    return [(trace, load_outcomes(trace)) for trace in traces]


def test_branch_predictor_quality_ablation(benchmark, prepared):
    config_d = MachineConfig(WIDTH, collapse_rules=CollapseRules.paper(),
                             load_spec="real")
    config_a = MachineConfig(WIDTH)

    def sweep():
        rows = []
        for label, factory in PREDICTORS:
            accuracies = []
            d_ipcs = []
            speedups = []
            for trace, loads in prepared:
                branch = run_branch_predictor(trace, factory())
                accuracies.append(branch.accuracy)
                base = simulate_trace(trace, config_a, branch)
                result = simulate_trace(trace, config_d, branch, loads)
                d_ipcs.append(result.ipc)
                speedups.append(result.speedup_over(base))
            rows.append([label,
                         100 * arithmetic_mean(accuracies),
                         harmonic_mean(d_ipcs),
                         harmonic_mean(speedups)])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n" + render_table(
        ["predictor", "accuracy (%)", "D IPC", "D speedup over A"],
        rows, title="branch-prediction ablation (width %d)" % WIDTH))
    by_label = {row[0]: row for row in rows}
    # Better predictors give better absolute IPC.
    assert by_label["perfect"][2] >= by_label["combining 8kB (paper)"][2]
    assert by_label["combining 8kB (paper)"][2] >= \
        by_label["always-taken"][2]
    # The paper's predictor must be close to local-history or better.
    assert by_label["combining 8kB (paper)"][1] >= \
        by_label["bimodal"][1] - 1.0
