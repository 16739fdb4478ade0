"""ExperimentRunner behaviour tests."""

import pytest

from repro.collapse.rules import CollapseRules
from repro.core.config import MachineConfig, config_letters, paper_config
from repro.experiments import ExperimentRunner
from repro.experiments.parallel import cell_label


def test_names_subset_restricts_suite():
    runner = ExperimentRunner(scale=0.03, widths=(4,),
                              names=("eqntott", "li"))
    assert runner.names == ("eqntott", "li")
    sweep = runner.sweep(["A"])
    results = sweep[("A", 4)]
    assert [r.trace_name for r in results] == ["eqntott", "li"]


def test_predictor_passes_are_cached():
    runner = ExperimentRunner(scale=0.03, widths=(4,))
    first = runner.branch("eqntott")
    second = runner.branch("eqntott")
    assert first is second
    assert runner.load_prediction("eqntott") is \
        runner.load_prediction("eqntott")


def test_results_use_requested_subset():
    runner = ExperimentRunner(scale=0.03, widths=(4,))
    subset = runner.results("A", 4, names=["go"])
    assert len(subset) == 1
    assert subset[0].trace_name == "go"


def test_sweep_covers_all_cells():
    runner = ExperimentRunner(scale=0.03, widths=(4, 8),
                              names=("eqntott",))
    sweep = runner.sweep(["A", "C"])
    assert set(sweep) == {("A", 4), ("A", 8), ("C", 4), ("C", 8)}


def test_serial_profile_records_wall_time():
    runner = ExperimentRunner(scale=0.03, widths=(8,), names=("eqntott",))
    runner.sweep(["A", "C"])
    profile = runner.profile
    assert len(profile.cells) == 2
    assert profile.wall_seconds > 0.0
    assert profile.wall_seconds == pytest.approx(profile.cell_seconds)


def test_every_registered_letter_labels_itself():
    for letter in config_letters():
        assert cell_label(paper_config(letter, 8)) == letter


def test_variant_labels_name_the_base_letter_and_the_extras():
    d_both = MachineConfig(8, collapse_rules=CollapseRules.paper(),
                           load_spec="real", node_elimination=True,
                           value_spec=True)
    assert cell_label(d_both) == "D+elim+vspec"
    assert cell_label(paper_config("D", 8),
                      extra_key={"addrpred": "markov"}) == \
        "D+addrpred=markov"
    assert cell_label(paper_config("F", 8, mdpt_entries=64,
                                   mdpt_store_set=2)) == "F+mdpt64-2"


def test_profile_tells_mdpt_geometries_apart():
    from repro.experiments.extensions import mdpt_sensitivity
    runner = ExperimentRunner(scale=0.03, widths=(8,), names=("eqntott",))
    exhibit = mdpt_sensitivity(runner)
    labels = [label for _, label, _, _, _ in runner.profile.cells]
    geometries = [label for label in labels if label.startswith("F")]
    assert len(geometries) == len(exhibit.rows)
    assert len(set(geometries)) == len(geometries)
    assert "F" in geometries            # the default geometry
    assert all(label == "A" or label.startswith("F") for label in labels)


def test_default_mdpt_cell_runs_once_and_geometries_derive(monkeypatch):
    """Without a disk cache, the F/w8 cell memory_speculation resolved
    serves mdpt_sensitivity's default row and the derivation of the
    other eleven geometries: the scheduler runs it once."""
    from repro.core.scheduler import WindowScheduler
    from repro.experiments.extensions import (memory_speculation,
                                              mdpt_sensitivity)
    runs = []
    real_run = WindowScheduler.run

    def counting_run(scheduler, *args, **kwargs):
        runs.append(scheduler.config.fingerprint())
        return real_run(scheduler, *args, **kwargs)

    monkeypatch.setattr(WindowScheduler, "run", counting_run)
    runner = ExperimentRunner(scale=0.01, widths=(8,), names=("eqntott",))
    memory_speculation(runner)
    mdpt_sensitivity(runner)
    assert runs.count(paper_config("F", 8).fingerprint()) == 1
    derived = [label for _, label, _, _, source in runner.profile.cells
               if source == "derived"]
    assert len(derived) == 11 == len(set(derived))
    assert all(label.startswith("F+mdpt") for label in derived)
    assert "11 derived" in runner.profile.summary_line()


def test_uncached_report_resolves_each_cell_once(monkeypatch):
    """The report's grid, its extension exhibits and its lint checks
    share one memo: without a disk cache, each (workload, label, width)
    cell is simulated or derived once."""
    from collections import Counter
    from repro.experiments import report
    runners = []

    def recording(**kwargs):
        runners.append(ExperimentRunner(**kwargs))
        return runners[-1]

    monkeypatch.setattr(report, "ExperimentRunner", recording)
    report.generate(scale=0.01, widths=(8,))
    cells = runners[0].profile.cells
    repeats = [cell for cell, count
               in Counter(cell[:3] for cell in cells).items() if count > 1]
    assert repeats == []
    assert Counter(cell[4] for cell in cells) == {"sim": 90, "derived": 66}
