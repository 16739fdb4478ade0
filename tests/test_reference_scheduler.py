"""The event-driven scheduler against a cycle-scan reference.

DESIGN.md section 2 claims that ``WindowScheduler`` has the semantics of
a cycle-scan machine and differs only in skipping idle cycles through
event heaps.  ``reference_scheduler.py`` is that cycle-scan machine for
configurations A and B, written from docs/MODEL.md alone; its issue
cycles must equal the scheduler's exactly, on every registered workload
and on drawn programs (``--hypothesis-profile=deep`` raises the
property's budget).  Unlike the sanitizer, which checks that nothing
issues early, this also shows that no ready instruction is left
unissued.
"""

import pytest
from helpers import loop_traces, prediction_pass, programs, sim
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_scheduler import reference_issue_cycles

from repro.core import paper_config
from repro.core.simulator import branch_outcomes, load_outcomes, simulate_trace
from repro.trace.synth import random_trace
from repro.workloads.registry import WORKLOADS, cached_trace

SCALE = 0.01


@pytest.mark.parametrize("letter", "AB")
@pytest.mark.parametrize("width", (4, 8))
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_reference(name, width, letter):
    trace = cached_trace(name, SCALE)
    config = paper_config(letter, width)
    branches = branch_outcomes(trace)
    loads = load_outcomes(trace) if letter == "B" else None
    result = simulate_trace(trace, config, branch_result=branches,
                            load_prediction=loads)
    assert result.issue_cycles == reference_issue_cycles(
        trace, width, config.window_size, branches.mispredicted, loads)


random_traces = st.builds(random_trace, st.integers(1, 150),
                          seed=st.integers(0, 2 ** 16))


@settings(deadline=None)
@given(programs(st.one_of(loop_traces(), random_traces)),
       st.integers(1, 8), st.integers(0, 2), st.booleans())
def test_drawn_programs_match_reference(program, width, k, speculate):
    trace, mispredicted, outcomes = program
    window = (width, 2 * width, 3 * width + 1)[k]
    loads = prediction_pass(outcomes) if speculate else None
    result = sim(trace, width, window,
                 load_spec="real" if speculate else "none",
                 mispredicted=mispredicted, load_pred=loads)
    assert result.issue_cycles == reference_issue_cycles(
        trace, width, window, set(mispredicted), loads)
