"""Experiment-driver tests: exhibit structure and paper-shape invariants.

These run the actual suite at a small scale with two widths, so they both
exercise the full pipeline (workloads -> predictors -> scheduler ->
exhibits) and assert the headline qualitative results of the paper.
The report test also pins the whole report body in
``golden/report_body.json``; after a deliberate output change rewrite it
with ``PYTHONPATH=src python -m pytest
tests/test_experiments.py::test_report_generation --regen-golden``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    ExperimentRunner,
    figure2,
    figure3,
    figure5,
    figure7,
    figure8,
    figure9,
    figure10,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)

SCALE = 0.05
WIDTHS = (4, 16)

#: the report body at SCALE and WIDTHS, one list entry per line, minus
#: the wall-clock ``_Generated in`` line
REPORT_GOLDEN = Path(__file__).parent / "golden" / "report_body.json"


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE, widths=WIDTHS)


def test_runner_memoises(runner):
    first = runner.result("eqntott", "A", 4)
    second = runner.result("eqntott", "A", 4)
    assert first is second


def test_figure2_ordering(runner):
    """E >= D >= C >= B >= A (harmonic-mean IPC) at every width, the
    realistic-disambiguation configs never beat their perfect-memory
    counterparts (F <= A, G <= C), the decoupled machine H never
    falls below A (queues only relax window occupancy), and the
    value-speculating I stays under E (ideal speculation bounds any
    realizable prediction mechanism)."""
    exhibit = figure2(runner)
    assert exhibit.headers == ["width", "A", "B", "C", "D", "E", "F",
                               "G", "H", "I", "J"]
    for row in exhibit.rows:
        _, a, b, c, d, e, f, g, h, i, j = row
        assert e >= d >= c >= b * 0.999 >= a * 0.98
        assert a > 1.0           # superscalar base beats scalar
        assert f <= a * 1.02    # MDPT costs IPC (2% anomaly tolerance)
        assert g <= c * 1.02
        assert j >= i * 0.999   # waived fences never slow the machine
        assert h >= a * 0.999   # decoupling never hurts the mean
        assert i <= e * 1.001   # real value speculation under ideal E


def test_figure2_ipc_grows_with_width(runner):
    exhibit = figure2(runner)
    narrow, wide = exhibit.rows
    for col in range(1, 8):
        assert wide[col] >= narrow[col] * 0.999


def test_figure3_speedups(runner):
    exhibit = figure3(runner)
    assert exhibit.headers == ["width", "B", "C", "D", "E", "F", "G",
                               "H", "I", "J"]
    for row in exhibit.rows:
        _, b, c, d, e, f, g, h, i, j = row
        assert 0.99 <= b < e
        assert c > 1.05          # collapsing clearly helps
        assert d >= c * 0.999    # adding speculation never hurts means
        assert e == max(b, c, d, e, f, g, h, i, j)
        assert f <= 1.02        # realistic memory can't beat perfect
        assert 1.0 < g <= c * 1.02
        assert h >= 0.999       # decoupling never slows the machine
        assert 0 < i <= e       # replay penalties keep I under ideal E
        assert i * 0.999 <= j <= e  # load-driven fences only help


def test_figure3_collapsing_dominates(runner):
    """The paper's headline: d-collapsing contributes the majority of
    configuration D's improvement."""
    exhibit = figure3(runner)
    for row in exhibit.rows:
        _, b, c, d = row[:4]
        assert (c - 1) > (b - 1)
        assert (c - 1) > 0.5 * (d - 1)


def test_figure5_pointer_chasers_gain_little_from_b(runner):
    exhibit = figure5(runner)
    for row in exhibit.rows:
        assert row[1] < 1.12     # paper: 5-9%


def test_figure7_nonpointer_gain_more_from_b(runner):
    chasing = figure5(runner)
    regular = figure7(runner)
    for chase_row, regular_row in zip(chasing.rows, regular.rows):
        assert regular_row[1] >= chase_row[1] - 0.02


def test_figure8_collapse_fraction(runner):
    exhibit = figure8(runner)
    names = exhibit.headers[1:-1]
    li_index = exhibit.headers.index("li")
    for row in exhibit.rows:
        values = row[1:]
        assert all(0.0 <= v <= 100.0 for v in values)
        assert row[li_index] == min(row[1:len(names) + 1])


def test_figure9_categories(runner):
    exhibit = figure9(runner)
    for row in exhibit.rows:
        _, cat31, cat41, cat0 = row
        assert cat31 > cat41 > 0.0
        assert cat31 > cat0
        assert abs(cat31 + cat41 + cat0 - 100.0) < 0.1


def test_figure10_distances_short(runner):
    exhibit = figure10(runner)
    for row in exhibit.rows:
        assert row[-1] > 80.0    # <= 8 share (paper: "nearly always")


def test_table1_structure(runner):
    exhibit = table1(runner)
    rows = exhibit.row_map()
    assert set(rows) == {"compress", "espresso", "eqntott", "li", "go",
                         "ijpeg"}
    assert rows["li"][-1] == "yes"
    assert rows["ijpeg"][-1] == "no"


def test_table2_accuracy_ranges(runner):
    exhibit = table2(runner)
    for name, row in exhibit.row_map().items():
        _, fraction, accuracy = row
        assert 3.0 < fraction < 35.0
        assert 60.0 < accuracy <= 100.0
    rows = exhibit.row_map()
    # go is the worst-predicted benchmark, as in the paper's Table 2.
    assert rows["go"][2] <= min(rows["li"][2], rows["ijpeg"][2])


def test_table3_vs_table4_contrast(runner):
    """The paper's central load-speculation observation: the pointer set
    predicts far worse than the non-pointer set."""
    chasing = table3(runner)
    regular = table4(runner)
    for chase_row, regular_row in zip(chasing.rows, regular.rows):
        assert regular_row[2] > chase_row[2] + 10.0   # predicted correctly
        assert chase_row[4] > regular_row[4]          # not predicted
        # Rows are percentages over the four categories.
        assert abs(sum(chase_row[1:]) - 100.0) < 0.2
        assert abs(sum(regular_row[1:]) - 100.0) < 0.2


def test_table5_pairs(runner):
    exhibit = table5(runner)
    assert exhibit.rows, "no pair collapses recorded"
    assert exhibit.headers[:2] == ["op1", "op2"]
    # Compare/branch collapsing must show up, as in the paper's Table 5.
    pairs = {tuple(row[:2]) for row in exhibit.rows}
    assert any(op2 == "brc" for _, op2 in pairs)
    for row in exhibit.rows:
        for value in row[2:]:
            assert 0.0 <= value <= 100.0


def test_table6_triples(runner):
    exhibit = table6(runner)
    assert exhibit.rows, "no triple collapses recorded"
    assert exhibit.headers[:3] == ["op1", "op2", "op3"]


def test_report_generation(tmp_path, runner, regen_golden):
    from repro.experiments.report import generate
    text = generate(scale=SCALE, widths=WIDTHS)
    body = [line for line in text.split("\n")
            if not line.startswith("_Generated in")]
    if regen_golden:
        with open(REPORT_GOLDEN, "w") as handle:
            json.dump(body, handle, indent=1)
            handle.write("\n")
    with open(REPORT_GOLDEN) as handle:
        golden = json.load(handle)
    changed = [i for i, (want, got) in enumerate(zip(golden, body))
               if want != got]
    assert body == golden, (
        "report body differs from %s (%d vs %d lines, first change at "
        "line %s); rewrite it with --regen-golden only for a deliberate "
        "output change" % (REPORT_GOLDEN.name, len(body), len(golden),
                           changed[0] + 1 if changed else "end"))
    assert "# EXPERIMENTS" in text
    assert "Figure 10" in text
    assert "Table 6" in text
    # All shape checks should pass at this scale.
    assert "- [ ]" not in text.split("## Table 1")[0]
    # The address-classification section reports every workload clean.
    assert "## Static load-address classification" in text
    assert "FAILED" not in text
