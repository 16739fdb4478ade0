"""Tests for the extension/future-work experiment drivers."""

import pytest

from repro.experiments import (
    ExperimentRunner,
    elimination_counts,
    extension_figure,
    predictor_comparison,
)
from repro.workloads import POINTER_CHASING

SCALE = 0.04
WIDTHS = (8,)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE, widths=WIDTHS)


def test_extension_figure_structure(runner):
    exhibit = extension_figure(runner)
    assert exhibit.headers == ["width", "D", "D+elim", "D+vspec",
                               "D+both", "E"]
    assert len(exhibit.rows) == 1
    row = exhibit.rows[0]
    # Extensions only remove work/dependences.
    d = row[1]
    assert row[2] >= d * 0.999       # +elim
    assert row[3] >= d * 0.999       # +vspec
    assert row[4] >= max(row[2], row[3]) * 0.99
    assert row[4] >= d * 0.999       # +both
    assert row[5] > 1.0              # E


def test_elimination_counts_structure(runner):
    exhibit = elimination_counts(runner, width=8)
    names = [row[0] for row in exhibit.rows]
    assert names == list(runner.names)
    for row in exhibit.rows:
        assert row[1] >= 0
        assert 0.0 <= row[2] <= 100.0
    # Collapsing-heavy kernels expose eliminable producers nearly
    # everywhere.
    assert sum(1 for row in exhibit.rows if row[2] > 0.0) >= 4


def test_predictor_comparison_structure(runner):
    exhibit = predictor_comparison(runner, width=8)
    assert exhibit.headers == ["workload", "two-delta", "markov",
                               "hybrid", "ideal (E)"]
    rows = exhibit.row_map()
    # li: correlation must beat stride substantially even at tiny scale
    # (the queries walk the same list over and over).
    assert rows["li"][2] > rows["li"][1]
    for row in exhibit.rows:
        # ideal bounds everything.
        assert row[4] >= max(row[1], row[2], row[3]) - 0.05
        # The hybrid never loses much to the paper's two-delta.
        assert row[3] >= row[1] - 0.08
    # On some pointer chaser the hybrid closes part of the two-delta ->
    # ideal gap (the paper's closing hypothesis).
    assert max(rows[name][3] - rows[name][1]
               for name in POINTER_CHASING) > 0.02


def test_dataflow_limits_has_all_widest_columns(runner):
    from repro.experiments import dataflow_limits
    exhibit = dataflow_limits(runner)
    assert exhibit.headers[-3:] == ["A @ widest", "C @ widest",
                                    "E @ widest"]
    for row in exhibit.rows:
        # The plain dataflow limit dominates the simulated A machine.
        assert row[1] >= row[3] - 1e-9


def test_recurrence_bounds_chain_holds(runner):
    from repro.experiments import recurrence_bounds
    exhibit = recurrence_bounds(runner)
    assert exhibit.headers[-1] == "check"
    assert [row[0] for row in exhibit.rows] == list(runner.names)
    cols = {h: i for i, h in enumerate(exhibit.headers)}
    for row in exhibit.rows:
        assert row[-1] == "ok", row
        for variant, graph in (("A", "graph A"), ("C", "graph C"),
                               ("E", "graph E")):
            static = row[cols["static %s" % variant]]
            if static != "inf":
                assert static >= row[cols[graph]] - 1e-9, row
        # The oracle graph (all address arcs cut) is never slower than
        # the realizable one.
        assert row[cols["graph E*"]] >= row[cols["graph E"]] - 1e-9


def test_recurrence_bounds_verdict_is_the_recur_check_verdict(monkeypatch):
    """The exhibit's check column comes from the same soundness chain as
    ``repro lint --recur-check``, edge-removal links included: a graph E*
    longer than graph E (impossible for a pure edge removal) must read
    FAILED even though every simulated IPC stays under its limit."""
    from repro.experiments import recurrence_bounds
    from repro.lint import ipcbound

    original = ipcbound.variant_depth_arrays

    def lengthened_ideal_cut(trace, classes, value_cut=None):
        arrays = original(trace, classes, value_cut=value_cut)
        arrays["E_ideal"] = [depth + 1 for depth in arrays["E"]]
        return arrays

    monkeypatch.setattr(ipcbound, "variant_depth_arrays",
                        lengthened_ideal_cut)
    runner = ExperimentRunner(scale=0.02, widths=(2048,),
                              names=("eqntott",))
    [row] = recurrence_bounds(runner).rows
    assert row[-1] == "FAILED"
    check = runner.lint_check("recurrence", "eqntott", 2048)
    assert not check.ok
    assert all("lengthened the critical path" in violation
               for violation in check.violations), check.violations
