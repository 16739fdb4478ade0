"""CLI smoke and behaviour tests (python -m repro ...)."""

import os
import subprocess
import sys

import pytest

import repro
from repro.cli import _build_config, build_parser, main
from repro.errors import ReproError

#: the directory holding the ``repro`` package, for child interpreters
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run_cli(capsys, *argv):
    code = main(list(argv))
    output = capsys.readouterr().out
    return code, output


def test_list(capsys):
    code, output = run_cli(capsys, "list")
    assert code == 0
    for name in ("compress", "espresso", "eqntott", "li", "go", "ijpeg"):
        assert name in output


def test_trace_and_stats_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "li.trace")
    code, output = run_cli(capsys, "trace", "li", "-o", path,
                           "--scale", "0.03")
    assert code == 0
    assert "validated" in output
    code, output = run_cli(capsys, "stats", path)
    assert code == 0
    assert "trace statistics: li" in output
    assert "signature" in output


def test_stats_by_workload_name(capsys):
    code, output = run_cli(capsys, "stats", "eqntott", "--scale", "0.03")
    assert code == 0
    assert "eqntott" in output


def test_disasm(capsys):
    code, output = run_cli(capsys, "disasm", "ijpeg", "--limit", "10")
    assert code == 0
    assert "0x00" in output
    assert "more instructions" in output


def test_simulate_paper_config(capsys):
    code, output = run_cli(capsys, "simulate", "eqntott",
                           "--config", "D", "--width", "8",
                           "--scale", "0.03")
    assert code == 0
    assert "IPC" in output
    assert "collapses" in output
    assert "loads" in output


def test_simulate_config_j_threads_branch_plan(capsys):
    """`simulate --config J` must derive the workload's branch plan:
    vortex is the registered kernel whose plan is non-empty."""
    code, output = run_cli(capsys, "simulate", "vortex",
                           "--config", "J", "--width", "8",
                           "--scale", "0.05", "--sanitize")
    assert code == 0
    assert "exit branches:" in output
    assert "resolved at address-generation time" in output
    planned = int(output.split("exit branches:")[1].split()[0])
    assert planned > 0


def test_simulate_custom_flags(capsys):
    code, output = run_cli(capsys, "simulate", "eqntott",
                           "--collapse", "--load-spec", "ideal",
                           "--elim", "--scale", "0.03")
    assert code == 0
    assert "eliminated" in output


def test_simulate_from_saved_trace(tmp_path, capsys):
    path = str(tmp_path / "w.trace")
    run_cli(capsys, "trace", "espresso", "-o", path, "--scale", "0.03")
    capsys.readouterr()
    code, output = run_cli(capsys, "simulate", path, "--config", "C",
                           "--width", "4")
    assert code == 0
    assert "espresso" in output
    assert "collapses" in output


def test_simulate_base_machine(capsys):
    code, output = run_cli(capsys, "simulate", "go", "--scale", "0.25")
    assert code == 0
    assert "collapses" not in output


def test_sweep(capsys):
    code, output = run_cli(capsys, "sweep", "espresso",
                           "--scale", "0.03", "--widths", "4,8")
    assert code == 0
    assert "IPC sweep on espresso" in output
    lines = [line for line in output.splitlines() if line.strip()]
    assert len(lines) >= 4          # title + header + rule + 2 widths


def test_report_command(tmp_path, capsys):
    out = str(tmp_path / "EXP.md")
    code, output = run_cli(capsys, "report", "--scale", "0.02",
                           "-o", out)
    assert code == 0
    with open(out) as handle:
        text = handle.read()
    assert "Figure 2" in text


def test_lint_clean_workload(capsys):
    code, output = run_cli(capsys, "lint", "eqntott", "--scale", "0.03")
    assert code == 0
    assert "clean" in output


def test_lint_all_workloads_with_bounds(capsys):
    code, output = run_cli(capsys, "lint", "--all", "--scale", "0.03")
    assert code == 0
    for name in ("compress", "espresso", "eqntott", "li", "go", "ijpeg",
                 "vortex"):
        assert "<workload:%s>: clean" % (name,) in output


def test_lint_bad_file_exits_nonzero(tmp_path, capsys):
    bad = tmp_path / "bad.s"
    bad.write_text(".text\nmain: add %g1, 1, %g2\nmov 9, %g3")
    code, output = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "bad.s:2: error: [uninit-read]" in output
    assert "[fallthrough-end]" in output
    assert "[dead-store]" in output


def test_lint_broken_file_reports_assembly_error(tmp_path, capsys):
    bad = tmp_path / "broken.s"
    bad.write_text(".text\nmain: add %q1, 1, %g2\nhalt")
    code, output = run_cli(capsys, "lint", str(bad))
    assert code == 1
    assert "broken.s:2: error: [assemble]" in output


def test_lint_without_targets_exits_2(capsys):
    code = main(["lint"])
    assert code == 2


def test_lint_bounds_and_cross_check(capsys):
    code, output = run_cli(capsys, "lint", "li", "--scale", "0.03",
                           "--bounds", "--cross-check")
    assert code == 0
    assert "static per-execution bound" in output
    assert "cross-check li: static bound" in output
    assert ">= dynamic events" in output


def test_simulate_sanitized(capsys):
    code, output = run_cli(capsys, "simulate", "li", "--config", "D",
                           "--width", "8", "--scale", "0.03",
                           "--sanitize")
    assert code == 0
    assert "sanitize" in output and "ok" in output


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_unknown_workload_raises(capsys):
    with pytest.raises(ReproError, match="unknown workload 'gcc'"):
        main(["simulate", "gcc", "--scale", "0.03"])


@pytest.mark.parametrize("argv", [
    ["simulate", "nosuch"],
    ["simulate", "eqntott", "--scale", "0.03", "--config", "F", "--vspec"],
    ["simulate", "eqntott", "--scale", "0.03", "--config", "I", "--vspec"],
    ["simulate", "eqntott", "--scale", "0.03", "--config", "A",
     "--collapse"],
    ["simulate", "eqntott", "--scale", "0.03", "--config", "B",
     "--load-spec", "none"],
    ["simulate", "eqntott", "--scale", "0"],
    ["simulate", "eqntott", "--scale", "nan"],
])
def test_module_entry_prints_library_error_as_one_line(argv):
    """``python -m repro`` turns a ReproError into one stderr line and
    exit status 2: an unknown workload, value speculation on an MDPT
    machine (F), --vspec on a letter that already speculates values
    (I), --collapse or --load-spec next to a letter, which fixes both,
    and a scale that is not a finite positive number."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "repro"] + argv,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("repro: error: ")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_sweep_rejects_a_width_that_is_not_a_number():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "repro", "sweep",
                           "eqntott", "--widths", "8,x"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "argument --widths: expected comma-separated integers" \
        in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("letter, features", [
    ("G", ["collapse", "mspec-mdpt", "elim"]),
    ("J", ["collapse", "elim", "vspec-replay", "bspec"]),
])
def test_simulate_config_elim_keeps_the_letters_mechanisms(letter,
                                                           features):
    args = build_parser().parse_args(
        ["simulate", "eqntott", "--config", letter, "--elim"])
    config = _build_config(args)
    assert config.features() == features
    assert config.name == "%s/w8+elim" % (letter,)


def test_workload_name_not_shadowed_by_stray_file(tmp_path, capsys,
                                                  monkeypatch):
    """A file in the CWD named like a workload must not be parsed as a
    trace file: registered names always win in _load_target."""
    (tmp_path / "compress").write_bytes(b"definitely not a trace")
    monkeypatch.chdir(tmp_path)
    code, output = run_cli(capsys, "stats", "compress", "--scale", "0.03")
    assert code == 0
    assert "trace statistics: compress" in output


def test_sweep_parallel_and_cached_matches_serial(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, serial = run_cli(capsys, "sweep", "eqntott",
                           "--scale", "0.03", "--widths", "4,8")
    code, cold = run_cli(capsys, "sweep", "eqntott", "--scale", "0.03",
                         "--widths", "4,8", "--jobs", "2",
                         "--cache-dir", cache)
    code, warm = run_cli(capsys, "sweep", "eqntott", "--scale", "0.03",
                         "--widths", "4,8", "--jobs", "2",
                         "--cache-dir", cache)
    assert code == 0
    table = lambda text: [line for line in text.splitlines()
                          if "|" in line or "-+-" in line]
    assert table(cold) == table(serial)
    assert table(warm) == table(serial)
    from repro.core import config_letters
    cells = 2 * len(config_letters())
    assert "%d from cache" % cells in warm


def test_lint_addr_table(capsys):
    code, output = run_cli(capsys, "lint", "li", "--scale", "0.03",
                           "--addr")
    assert code == 0
    assert "load address classes" in output
    assert "chase" in output
    assert "address classes:" in output


def test_lint_addr_check(capsys):
    code, output = run_cli(capsys, "lint", "compress", "--scale", "0.03",
                           "--addr-check")
    assert code == 0
    assert "addr-check compress: ok" in output
    assert "coverage bound" in output
    assert ">= dynamic" in output


def test_lint_addr_untracked_finding(tmp_path, capsys):
    bad = tmp_path / "untracked.s"
    bad.write_text(".text\n"
                   "main: cmp %g2, 0\n"
                   "be skip\n"
                   "set buffer, %g1\n"
                   "skip: ld [%g1], %g3\n"
                   "halt\n"
                   ".data\n"
                   "buffer: .word 1\n")
    code, output = run_cli(capsys, "lint", str(bad))
    assert "[addr-untracked]" in output


def test_stats_addr_pred(capsys):
    code, output = run_cli(capsys, "stats", "compress", "--scale",
                           "0.03", "--addr-pred")
    assert code == 0
    assert "per-PC two-delta predictor stats" in output
    assert "steady accuracy" in output
    assert "cold first accesses excluded" in output


def test_lint_recur_table(capsys):
    code, output = run_cli(capsys, "lint", "li", "--scale", "0.03",
                           "--recur")
    assert code == 0
    assert "loop recurrence bounds" in output
    assert "recMII A" in output and "ceil E" in output


def test_lint_recur_check(capsys):
    code, output = run_cli(capsys, "lint", "li", "--scale", "0.03",
                           "--recur-check")
    assert code == 0
    assert "recur-check li: ok" in output
    assert "static floor" in output
    assert ">= dataflow" in output and ">= simulated" in output


def test_lint_list_passes(capsys):
    code, output = run_cli(capsys, "lint", "--list")
    assert code == 0
    assert "registered lint passes" in output
    for name in ("dataflow", "collapse-bound", "addr-class", "valueflow",
                 "recurrence", "branchflow", "memdep", "dae"):
        assert name in output
    assert "--branch --branch-check" in output


def test_lint_branch_table(capsys):
    code, output = run_cli(capsys, "lint", "eqntott", "--scale", "0.03",
                           "--branch")
    assert code == 0
    assert "branch predictability classes" in output
    assert "trip" in output and "exit" in output
    assert "branch classes:" in output


def test_lint_branch_check(capsys):
    code, output = run_cli(capsys, "lint", "eqntott", "--scale", "0.03",
                           "--branch-check")
    assert code == 0
    assert "branch-check eqntott: ok" in output
    assert "ceiling" in output and ">= accuracy" in output
    assert "plan branches" in output


def test_lint_recur_on_plain_file(capsys, tmp_path):
    simple = tmp_path / "tiny.s"
    simple.write_text(
        ".text\nmain: mov 4, %g1\n"
        "loop: subcc %g1, 1, %g1\nbne loop\nhalt\n")
    code, output = run_cli(capsys, "lint", str(simple), "--recur")
    assert code == 0
    assert "loop recurrence bounds" in output


def test_lint_check_flag_on_file_target_prints_located_skip(capsys):
    """A check needs a workload's trace and cells; on a plain ``.s``
    target each requested check says it did not run."""
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "array_sum.s")
    code, output = run_cli(capsys, "lint", path, "--addr-check",
                           "--recur-check", "--dae-check")
    assert code == 0
    assert output.splitlines() == [
        "%s: clean (14 instructions, 3 blocks)" % (path,)] + [
        "  %s skipped: %s is not a registered workload" % (label, path)
        for label in ("addr-check", "recur-check", "dae-check")]
