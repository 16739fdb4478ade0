"""Self-test of the pipeline benchmark.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/pipeline -q

One traced child run of ``sim-base`` at a tiny scale feeds the output
checks; the seed table and the ``--compare`` verdicts run on synthetic
inputs.
"""

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_SCALE = 0.01


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module")
def traced_record():
    """One traced sim-base child run at a tiny scale (one pass each,
    untraced and traced)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)
        record = run.spawn("sim-base", TINY_SCALE, 0, 1)
    assert record is not None
    record["seed"] = 0
    return record


def golden_of(record):
    return {"cells": {label: {k: v for k, v in digest.items() if k != "runs"}
                      for label, digest in record["digests"].items()}}


def run_main(monkeypatch, capsys, record, golden, argv):
    """``run.main`` on a recorded child run; returns (exit code, printed
    metric lines, final JSON object)."""
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "spawn", lambda *args, **kwargs: record)
    monkeypatch.setattr(run, "load_golden", lambda seed: golden)
    status = run.main(["--workload", "sim-base", "--seconds", "0"] + argv)
    lines = capsys.readouterr().out.strip().splitlines()
    metric_lines = [line.split() for line in lines
                    if line.startswith("sim-base ")]
    return status, metric_lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_printed_names_are_listed(monkeypatch, capsys, spec, traced_record,
                                  trace, section):
    status, lines, result = run_main(
        monkeypatch, capsys, traced_record, golden_of(traced_record),
        ["--trace", str(trace)])
    listed = {entry["name"]: entry["unit"] for entry in spec[section]}
    assert status == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * 60
    assert set(result["metrics"]) == set(listed)
    assert len(lines) == len(listed)
    for _, name, value, unit in lines:
        assert NAME.fullmatch(name) and name in listed
        assert unit == listed[name]
        float(value)


def test_corrupted_golden_fails(monkeypatch, capsys, traced_record):
    golden = golden_of(traced_record)
    cell = golden["cells"]["go/C/w8"]
    cell["sha256"] = "0" * 64
    status, _, result = run_main(monkeypatch, capsys, traced_record, golden,
                                 [])
    assert status != 0
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_missing_layer_is_reported(traced_record):
    layers = dict(traced_record["layers"], **{"core.run_s": 0.0})
    assert run.coverage_gaps("sim-base", traced_record["layers"]) == []
    assert run.coverage_gaps("sim-base", layers) == ["core.run_s"]


def test_seed_selects_scale():
    assert [run.scale_for("sim-base", seed) for seed in range(4)] == \
        [0.053, 0.0535, 0.054, 0.053]
    assert [run.scale_for("report-warm", seed) for seed in range(3)] == \
        [0.01, 0.0102, 0.0104]
    assert run.golden_path(4).name == "seed1.json"


@pytest.mark.parametrize("parent, change, expected", [
    ([10.0] * 10, [8.0] * 10, "improved"),
    ([10.0, 10.1] * 5, [10.3, 10.2] * 5, "unchanged"),
    ([10.0] * 10, [12.0] * 10, "regressed"),
    ([8.0, 12.0] * 5, [9.0, 12.5] * 5, "unresolved"),
    ([10.0] * 9 + [7.0], [9.0] * 10, "improved"),
    ([10.0] * 8 + [7.0] * 2, [9.0] * 10, "unchanged"),
])
def test_verdicts(parent, change, expected):
    assert run.verdict(parent, change, "lower", 0.1) == expected


def test_verdict_higher_is_better():
    assert run.verdict([100.0] * 5, [80.0] * 5, "higher", 0.1) == "regressed"
    assert run.verdict([100.0] * 5, [120.0] * 5, "higher", 0.1) == \
        "improved"


def test_compare_rows(tmp_path, capsys, spec):
    def save(name, wall):
        metrics = {entry["name"]: {"value": 1.0, "unit": entry["unit"]}
                   for entry in spec["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": {
            "sim-base": {"failed": 0, "metrics": metrics},
            "report-warm": {"failed": 0, "metrics": metrics}}}))
        return str(path)

    parents = [save("p%d.json" % i, 10.0) for i in range(3)]
    changes = [save("c%d.json" % i, 13.0) for i in range(3)]
    verdicts = run.compare(parents + changes, spec)
    assert verdicts[("sim-base", "wall_s")] == "regressed"
    assert verdicts[("report-warm", "op_p50_ms")] == "unchanged"
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 * len(spec["end_to_end"])
    with pytest.raises(SystemExit):
        run.compare(parents + changes[:2], spec)
