"""The lint analysis chain (program -> CFG -> loop forest -> LoopValues
-> address classes -> value flow -> recurrence -> DAE, with branch flow
and memdep beside it): one ``lint_program`` builds each shared program
fact once, and every pass survives small edge-case programs, which
every machine then simulates under the sanitizer."""

from unittest import mock

import pytest

from repro.asm import assemble
from repro.core.config import config_letters, paper_config
from repro.core.simulator import simulate_trace
from repro.emu.tracer import trace_program
from repro.lint import lint_passes, lint_program, lint_source
from repro.lint.collapse_bound import collapse_cross_check
from repro.lint.memdep import _Resolver
from repro.trace.records import StaticTable

from .test_lint_recurrence import ACCUMULATOR


def test_lint_program_builds_each_shared_fact_once():
    program = assemble(ACCUMULATOR)
    with mock.patch.object(StaticTable, "from_program",
                           wraps=StaticTable.from_program) as tables, \
            mock.patch.object(_Resolver, "__init__", autospec=True,
                              side_effect=_Resolver.__init__) as resolvers:
        report = lint_program(program)
    assert tables.call_count == 1
    assert resolvers.call_count == 1
    analyses = report.analyses
    assert analyses["recurrence"].table is analyses["collapse-bound"].table
    assert analyses["branchflow"].table is analyses["dae"].table \
        is analyses["recurrence"].table


NO_BRANCHES = """
        .text
main:   set     data, %o0
        ld      [%o0], %o1
        add     %o1, 1, %o1
        st      %o1, [%o0]
        halt
        .data
data:   .word   5
"""

LOOP_WITHOUT_LOADS = """
        .text
main:   mov     8, %g1
        mov     0, %o1
        set     data, %o2
loop:   add     %o1, %g1, %o1
        st      %o1, [%o2]
        subcc   %g1, 1, %g1
        bne     loop
        halt
        .data
data:   .word   0
"""

# The cycle first -> second -> bne -> first has two entries: the
# fallthrough into first and the branch into second.
IRREDUCIBLE_LOOP = """
        .text
main:   set     data, %o0
        mov     0, %g2
        ld      [%o0], %g1
        cmp     %g1, 0
        be      second
first:  ld      [%o0 + 4], %g2
second: cmp     %g2, 9
        bne     first
        halt
        .data
data:   .word   0, 9
"""

CALL_IN_LOOP = """
        .text
main:   mov     4, %g1
        set     data, %o0
loop:   call    bump
        ld      [%o0], %o1
        subcc   %g1, 1, %g1
        bne     loop
        halt
bump:   ld      [%o0], %o2
        add     %o2, 1, %o2
        st      %o2, [%o0]
        ret
        .data
data:   .word   0
"""

HALT_ONLY = """
        .text
main:   halt
"""


EDGE_CASES = pytest.mark.parametrize("source", [
    NO_BRANCHES, LOOP_WITHOUT_LOADS, IRREDUCIBLE_LOOP, CALL_IN_LOOP,
    HALT_ONLY,
], ids=["no-branches", "loop-without-loads", "irreducible-loop",
        "call-in-loop", "halt-only"])


@EDGE_CASES
def test_edge_case_programs_render_every_table_and_plan(source):
    report = lint_source(source, target="<edge>")
    assert not any(f.check == "assemble" for f in report.findings)
    assert report.render()
    for lint_pass in lint_passes():
        if lint_pass.table is not None:
            lines = lint_pass.table.lines(report.analyses[lint_pass.name],
                                          report.target)
            assert all(isinstance(line, str) for line in lines)
    report.analyses["dae"].plan()
    report.analyses["branchflow"].plan()


@EDGE_CASES
def test_edge_case_programs_simulate_on_every_letter(source):
    """Every letter at widths 8 and 2048, sanitized, with the DAE and
    branch plans of the program's own lint report, returns a result;
    ``halt`` alone traces no instruction and takes no cycle."""
    program = assemble(source)
    report = lint_program(program)
    plans = {"dae_plan": report.analyses["dae"].plan(),
             "branch_plan": report.analyses["branchflow"].plan()}
    trace, _, _ = trace_program(program, name="edge")
    for letter in config_letters():
        for width in (8, 2048):
            result = simulate_trace(trace, paper_config(letter, width),
                                    sanitize=True, **plans)
            assert result.instructions == len(trace)
            if source is HALT_ONLY:
                assert (result.instructions, result.cycles,
                        result.ipc) == (0, 0, 0.0)
            else:
                assert result.cycles > 0
            check = collapse_cross_check(report.analyses["collapse-bound"],
                                         trace, result)
            assert not check.violations
