"""The declarative lint-pass registry (repro.lint.registry): built-in
pass roster, ordering, duplicate rejection, and structural pickup of
new passes by the driver and the CLI."""

import pytest

from repro.asm import assemble
from repro.cli import main
from repro.lint import (
    lint_passes,
    lint_program,
    register_lint_pass,
    unregister_lint_pass,
)
from repro.lint.findings import Finding, SEV_WARNING
from repro.lint.registry import LintCheck, LintTable

from .test_lint_recurrence import ACCUMULATOR

_BUILTINS = ("dataflow", "collapse-bound", "addr-class", "recurrence",
             "memdep", "dae")


def test_builtin_passes_registered_in_order():
    names = [p.name for p in lint_passes()]
    assert list(_BUILTINS) == [n for n in names if n in _BUILTINS]
    orders = [p.order for p in lint_passes()]
    assert orders == sorted(orders)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        @register_lint_pass("dae", "impostor", order=99)
        def _impostor(ctx):
            return ()


def test_unknown_unregister_rejected():
    with pytest.raises(KeyError):
        unregister_lint_pass("no-such-pass")


def test_throwaway_pass_reaches_driver_and_cli(capsys):
    @register_lint_pass("throwaway", "test-only pass", order=95)
    def _throwaway(ctx):
        return [Finding("throwaway-check",
                        "planted by test_lint_registry",
                        file=ctx.file, line=1, severity=SEV_WARNING)]

    try:
        # Driver pickup: no analyzer edit, the pass just runs.
        report = lint_program(assemble(ACCUMULATOR), target="<t>")
        assert any(f.check == "throwaway-check" for f in report.findings)
        assert report.ok     # a warning does not spoil "clean"

        # CLI pickup: the finding shows up in `repro lint --all`.
        code = main(["lint", "--all", "--scale", "0.03"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throwaway-check" in out
        assert "planted by test_lint_registry" in out
    finally:
        unregister_lint_pass("throwaway")
    assert all(p.name != "throwaway" for p in lint_passes())


def test_throwaway_table_and_check_drive_cli_flags(capsys):
    """A pass declaring a table and a failing check gets both flags in
    ``repro lint`` with no CLI edit: the table prints, the check runs
    on a runner-supplied cell and exits 2, ``--list`` shows the flags,
    and after unregistering argparse rejects them again."""

    class Toy:
        def summary_rows(self):
            return [(1, "toy-row")]

    class ToyCheck:
        ok = False

        def __init__(self, cycles):
            self.cycles = cycles
            self.violations = ["planted toy violation"]

    def run(report, runner, name, width):
        assert report.analyses["toy"].summary_rows()
        return ToyCheck(runner.result(name, "A", width).cycles)

    def lines(name, check, width):
        return ["  toy-check %s: FAILED (A/%d, %d cycles)"
                % (name, width, check.cycles)]

    @register_lint_pass(
        "toy", "test-only table and check", order=97,
        table=LintTable("--toy", "print the toy table", ["n", "word"],
                        "toy rows", footer=lambda toy: "  toy footer"),
        check=LintCheck("--toy-check", "fail on purpose", 4, run, lines))
    def _toy(ctx):
        ctx.publish(Toy())

    try:
        code = main(["lint", "eqntott", "--scale", "0.03", "--toy",
                     "--toy-check"])
        out = capsys.readouterr().out
        assert code == 2
        assert "toy rows: <workload:eqntott>" in out
        assert "toy-row" in out and "  toy footer" in out
        assert "  toy-check eqntott: FAILED (A/4, " in out
        assert "    planted toy violation" in out

        assert main(["lint", "--list"]) == 0
        assert "--toy --toy-check" in capsys.readouterr().out
    finally:
        unregister_lint_pass("toy")
    with pytest.raises(SystemExit) as rejected:
        main(["lint", "eqntott", "--toy-check"])
    assert rejected.value.code == 2
    assert "--toy-check" in capsys.readouterr().err


def test_pass_ordering_controls_execution_order():
    seen = []

    @register_lint_pass("zz-first", "runs before dataflow", order=1)
    def _first(ctx):
        seen.append("first")
        return ()

    @register_lint_pass("aa-last", "runs after dae", order=999)
    def _last(ctx):
        seen.append("last")
        return ()

    try:
        lint_program(assemble(ACCUMULATOR))
        assert seen == ["first", "last"]
    finally:
        unregister_lint_pass("zz-first")
        unregister_lint_pass("aa-last")
