"""Ablation benches for the load-address predictor design choices.

Two knobs the paper fixes and we vary:

- confidence policy: the paper's +1/-2 with use-threshold >1, vs
  always-use (no confidence) and vs a symmetric +1/-1 policy;
- stride policy: two-delta (promote a stride only when seen twice) vs
  last-stride.
"""

import pytest

from repro.addrpred import LastStrideTable, TwoDeltaTable, \
    run_address_predictor
from repro.core import MachineConfig, branch_outcomes, simulate_trace
from repro.metrics import harmonic_mean, render_table
from repro.workloads import suite_traces

SCALE = 0.06
WIDTH = 16


@pytest.fixture(scope="module")
def prepared():
    traces = suite_traces(scale=SCALE)
    return [(trace, branch_outcomes(trace)) for trace in traces]


def _mean_ipc_with_table(prepared, table_factory):
    config = MachineConfig(WIDTH, load_spec="real")
    ipcs = []
    mispredicted_used = 0
    used = 0
    for trace, branch in prepared:
        prediction = run_address_predictor(trace, table_factory())
        result = simulate_trace(trace, config, branch, prediction)
        ipcs.append(result.ipc)
        counts = result.loads.counts
        used += counts["predicted_correctly"] + \
            counts["predicted_incorrectly"]
        mispredicted_used += counts["predicted_incorrectly"]
    wrong_rate = mispredicted_used / used if used else 0.0
    return harmonic_mean(ipcs), wrong_rate


def test_confidence_policy_ablation(benchmark, prepared):
    policies = {
        "paper (+1/-2, use>1)": lambda: TwoDeltaTable(),
        "always-use": lambda: TwoDeltaTable(confidence_threshold=0),
        "symmetric (+1/-1)": lambda: TwoDeltaTable(wrong_penalty=1),
    }

    def sweep():
        return {label: _mean_ipc_with_table(prepared, factory)
                for label, factory in policies.items()}

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[label, ipc, 100 * wrong]
            for label, (ipc, wrong) in outcome.items()]
    print("\n" + render_table(
        ["confidence policy", "hmean IPC", "wrong among used (%)"],
        rows, title="confidence ablation (width %d)" % WIDTH))
    # The paper's counter must filter mispredictions: the fraction of
    # *used* predictions that are wrong is far lower than always-use.
    paper_wrong = outcome["paper (+1/-2, use>1)"][1]
    always_wrong = outcome["always-use"][1]
    assert paper_wrong < always_wrong


def test_stride_policy_ablation(benchmark, prepared):
    def sweep():
        return {
            "two-delta": _mean_ipc_with_table(prepared, TwoDeltaTable),
            "last-stride": _mean_ipc_with_table(prepared,
                                                LastStrideTable),
        }

    outcome = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[label, ipc, 100 * wrong]
            for label, (ipc, wrong) in outcome.items()]
    print("\n" + render_table(
        ["stride policy", "hmean IPC", "wrong among used (%)"],
        rows, title="stride ablation (width %d)" % WIDTH))
    assert outcome["two-delta"][0] > 0
    assert outcome["last-stride"][0] > 0
