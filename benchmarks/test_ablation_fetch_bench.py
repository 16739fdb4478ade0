"""Ablation bench: idealised fetch vs. taken-branch fetch breaks.

The paper assumes fetch crosses taken branches freely (zero-penalty
correct predictions).  This bench quantifies how much of configuration
D's speedup survives a single-fetch-block front end — a realism knob
limit studies often vary (cf. Wall).
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


def _mean_ipc(prepared, collapse, fetch_break):
    rules = CollapseRules.paper() if collapse else None
    config = MachineConfig(WIDTH, collapse_rules=rules,
                           load_spec="real" if collapse else "none",
                           fetch_taken_break=fetch_break)
    ipcs = []
    for trace, branch, loads in prepared:
        ipcs.append(simulate_trace(trace, config, branch, loads).ipc)
    return harmonic_mean(ipcs)


def test_fetch_model_ablation(benchmark, prepared):
    def sweep():
        return {
            (collapse, fetch_break):
                _mean_ipc(prepared, collapse, fetch_break)
            for collapse in (False, True)
            for fetch_break in (False, True)
        }

    ipcs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        ["paper fetch", ipcs[(False, False)], ipcs[(True, False)],
         ipcs[(True, False)] / ipcs[(False, False)]],
        ["taken-break fetch", ipcs[(False, True)], ipcs[(True, True)],
         ipcs[(True, True)] / ipcs[(False, True)]],
    ]
    print("\n" + render_table(
        ["front end", "base IPC", "D IPC", "D speedup"], rows,
        title="fetch-model ablation (width %d)" % WIDTH))
    # Fetch breaks hurt absolute IPC...
    assert ipcs[(False, True)] <= ipcs[(False, False)]
    assert ipcs[(True, True)] <= ipcs[(True, False)]
    # ...but the *relative* benefit of speculation+collapsing survives.
    relative = ipcs[(True, True)] / ipcs[(False, True)]
    assert relative > 1.1
