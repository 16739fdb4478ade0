"""Differential test of the collapse tally.

``WindowScheduler.run`` counts a run's collapse events in one local
tally keyed ``(category, distance, signatures)`` and folds it into its
``CollapseStats`` once, when it returns (``CollapseStats.record_tally``);
each merge adds only the consumer and the producer to the set of
positions that took part.  Here every successful merge is recorded
where it happens, in ``ShapeTable.merge``: its category, the distance
between the consumer's and the producer's last members read before the
merge, and the merged group's signatures and positions.  A reference
``CollapseStats`` with one ``record_event`` per recorded merge, and the
union of the recorded positions, must equal the run's statistics, key
order included.

The machines are every collapsing letter that schedules differently
(C, D, E, G, I, D and G with node elimination) plus C under each
collapse ablation, on drawn programs and on the suite traces.
"""

from contextlib import contextmanager
from unittest import mock

import pytest
from helpers import make_branch_result, prediction_pass, programs

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collapse import CollapseRules, CollapseStats, ShapeTable
from repro.core.config import paper_config
from repro.core.simulator import branch_outcomes, load_outcomes, simulate_trace
from repro.workloads.registry import SUITE, cached_trace

#: label -> (letter, configuration overrides)
MACHINES = {
    "C": ("C", {}),
    "D": ("D", {}),
    "E": ("E", {}),
    "G": ("G", {}),
    "I": ("I", {}),
    "D+elim": ("D", {"node_elimination": True}),
    "G+elim": ("G", {"node_elimination": True}),
    "C+pairs_only": ("C", {"rules": CollapseRules.pairs_only()}),
    "C+consecutive_only": ("C", {"rules": CollapseRules.consecutive_only()}),
    "C+within_block_only": ("C",
                            {"rules": CollapseRules.within_block_only()}),
    "C+no_zero_detection": ("C",
                            {"rules": CollapseRules.no_zero_detection()}),
}


def machine(label, width):
    letter, overrides = MACHINES[label]
    return paper_config(letter, width, **overrides)


@contextmanager
def recorded_merges():
    """Patch ``ShapeTable.merge`` to record every merge it performs as
    ``(category, distance, sigs, positions)``; yields the list."""
    merges = []
    merge = ShapeTable.merge

    def recording(self, consumer, producer, uses):
        distance = consumer[1][-1] - producer[1][-1]
        merged = merge(self, consumer, producer, uses)
        if merged is not None:
            (shape, positions), category = merged
            merges.append((category, distance, self.sigs[shape],
                           positions))
        return merged

    with mock.patch.object(ShapeTable, "merge", recording):
        yield merges


def assert_tally_matches(stats, merges):
    reference = CollapseStats()
    positions = set()
    for category, distance, sigs, members in merges:
        reference.record_event(category, distance, sigs)
        positions.update(members)
    assert stats.events == reference.events == len(merges)
    for field in ("category_counts", "distance_counts", "pair_signatures",
                  "triple_signatures"):
        got = getattr(stats, field)
        want = getattr(reference, field)
        assert list(got.items()) == list(want.items()), field
    assert stats.collapsed == len(positions)


@settings(deadline=None)
@given(programs(), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from(sorted(MACHINES)))
def test_tally_matches_every_merge_on_drawn_programs(program, width, label):
    trace, mispredicted, outcomes = program
    predictions = prediction_pass(outcomes)
    with recorded_merges() as merges:
        result = simulate_trace(
            trace, machine(label, width),
            branch_result=make_branch_result(trace, mispredicted),
            load_prediction=predictions, value_prediction=predictions)
    assert_tally_matches(result.collapse, merges)


@pytest.mark.parametrize("workload", [w.name for w in SUITE])
def test_tally_matches_every_merge_on_suite_traces(workload):
    trace = cached_trace(workload, 0.01)
    branches = branch_outcomes(trace)
    loads = load_outcomes(trace)
    for label in MACHINES:
        for width in (8, 2048):
            with recorded_merges() as merges:
                result = simulate_trace(trace, machine(label, width),
                                        branch_result=branches,
                                        load_prediction=loads)
            assert merges, (label, width)
            assert_tally_matches(result.collapse, merges)
