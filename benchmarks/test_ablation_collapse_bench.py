"""Ablation bench: which parts of the collapsing model matter?

DESIGN.md Section 6: pairs-only vs triples, consecutive-only vs any
distance, within-block vs across blocks, zero detection on/off.  The
paper motivates each generalisation (Section 2 "models used in this work
differentiate from previous studies"); this bench quantifies them.
"""

import pytest

from repro.collapse import CollapseRules
from repro.core import MachineConfig, branch_outcomes, simulate_trace
from repro.metrics import harmonic_mean, render_table
from repro.workloads import suite_traces

SCALE = 0.06
WIDTH = 16

VARIANTS = [
    ("paper", CollapseRules.paper()),
    ("pairs-only", CollapseRules.pairs_only()),
    ("consecutive-only", CollapseRules.consecutive_only()),
    ("within-block", CollapseRules.within_block_only()),
    ("no-zero-detect", CollapseRules.no_zero_detection()),
    ("none", None),
]


@pytest.fixture(scope="module")
def prepared():
    traces = suite_traces(scale=SCALE)
    return [(trace, branch_outcomes(trace)) for trace in traces]


def _mean_ipc(prepared, rules):
    config = MachineConfig(WIDTH, collapse_rules=rules)
    ipcs = []
    for trace, branch in prepared:
        ipcs.append(simulate_trace(trace, config, branch).ipc)
    return harmonic_mean(ipcs)


def test_collapse_rule_ablation(benchmark, prepared):
    def sweep():
        return {label: _mean_ipc(prepared, rules)
                for label, rules in VARIANTS}

    ipcs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[label, ipcs[label], ipcs[label] / ipcs["none"]]
            for label, _ in VARIANTS]
    print("\n" + render_table(
        ["rules", "hmean IPC", "speedup vs none"], rows,
        title="collapse-rule ablation (width %d)" % WIDTH))
    # Every restriction must cost performance relative to the paper
    # model, and every variant must still beat no collapsing.
    paper = ipcs["paper"]
    for label, _ in VARIANTS[1:-1]:
        assert ipcs[label] <= paper * 1.001
        assert ipcs[label] > ipcs["none"]
    # Non-consecutive collapsing is the biggest single generaliser for
    # wide machines (Figure 10's motivation).
    assert ipcs["consecutive-only"] < paper * 0.99
