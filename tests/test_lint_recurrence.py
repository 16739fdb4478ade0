"""Static loop-recurrence bounds and the dynamic cross-check
(repro.lint.recurrence / repro.lint.ipcbound)."""

from fractions import Fraction

import pytest

from repro.asm import assemble
from repro.emu import trace_program
from repro.lint import (
    RecurrenceAnalysis,
    recurrence_cross_check,
    valueflow_cross_check,
)
from repro.lint.recurrence import CycleBound
from repro.trace.records import LD


def analysis_of(source):
    return RecurrenceAnalysis(assemble(source))


ACCUMULATOR = """
        .text
main:   mov     8, %g1
        mov     0, %o1
loop:   add     %o1, 1, %o1
        subcc   %g1, 1, %g1
        bne     loop
        set     result, %o2
        st      %o1, [%o2]
        halt
        .data
result: .word   0
"""


def test_accumulator_recurrence():
    ana = analysis_of(ACCUMULATOR)
    assert len(ana.loops) == 1 and not ana.irreducible
    rec = ana.loops[0]
    # Two independent carried chains (%o1 and %g1), both 1-cycle ALU
    # self-recurrences: recMII(A) = 1.
    assert rec.recmii("A") == 1
    # Both are collapsible producer/consumer pairs: collapsed to zero,
    # so no cycle constrains the collapsed machine.
    assert rec.recmii("C") == 0
    assert rec.ipc_ceiling("C") is None
    carried = [e for e in rec.edges if e.dist == 1 and e.kind == "reg"]
    assert {(e.src, e.dst) for e in carried} >= {(2, 2), (3, 3)}


CHASE = """
        .text
main:   set     head, %o0
        mov     4, %g1
loop:   ld      [%o0], %o0
        subcc   %g1, 1, %g1
        bne     loop
        halt
        .data
head:   .word   n1
n1:     .word   n2
n2:     .word   n3
n3:     .word   0
"""


def test_pointer_chase_load_not_collapsed_or_cut():
    ana = analysis_of(CHASE)
    rec = ana.loops[0]
    # ld [%o0], %o0 feeds its own address: a carried 2-cycle load
    # recurrence.  Loads are not collapsible producers and a chase
    # address is not predictable, so every variant keeps the cycle.
    assert rec.recmii("A") == 2
    assert rec.recmii("C") == 2
    assert rec.recmii("E") == 2
    assert rec.ipc_ceiling("A") == len(rec.loop.body) / 2.0


MEMORY_CARRIED = """
        .text
main:   set     cell, %g4
        mov     8, %g1
loop:   ld      [%g4], %o1
        add     %o1, 1, %o1
        st      %o1, [%g4]
        subcc   %g1, 1, %g1
        bne     loop
        halt
        .data
cell:   .word   0
"""


def test_memory_carried_recurrence_survives_speculation():
    ana = analysis_of(MEMORY_CARRIED)
    rec = ana.loops[0]
    mem = [e for e in rec.edges if e.kind == "mem"]
    assert len(mem) == 1
    assert mem[0].dist == 1          # store reaches next iteration's load
    # ld(2) -> add(1) -> st(1) -> carried back: 4 cycles per lap.  The
    # ld -> add edge has a load producer (not collapsible) and the
    # store-data edge is never collapsed, so C keeps all 4; address
    # speculation does not break memory aliasing, so E keeps them too.
    assert rec.recmii("A") == 4
    assert rec.recmii("C") == 4
    assert rec.recmii("E") == 4


STRIDED = """
        .equ N, 8
        .text
main:   set     array, %o0
        mov     0, %o1
        mov     0, %o2
loop:   ld      [%o0], %o3
        add     %o1, %o3, %o1
        add     %o0, 4, %o0
        inc     %o2
        cmp     %o2, N
        bl      loop
        set     result, %o4
        st      %o1, [%o4]
        halt
        .data
array:  .word   3, 1, 4, 1, 5, 9, 2, 6
result: .word   0
"""


def test_strided_load_address_edge_is_cut():
    ana = analysis_of(STRIDED)
    rec = ana.loops[0]
    cut = [e for e in rec.edges if e.cut]
    # The carried %o0 edge into the stride-classified load is exactly
    # what realizable d-speculation breaks.
    assert cut and all(ana.table.cls[e.dst] == LD for e in cut)
    # No cycle runs through the load, so the bounds come from the ALU
    # self-recurrences: 1 in A, fully collapsed in C.
    assert rec.recmii("A") == 1
    assert rec.recmii("C") == 0


def test_cycle_bound_broken_variant():
    cycle = CycleBound((3, 7), 2, {"A": 5, "C": 3, "E": None})
    assert cycle.ratio("A") == Fraction(5, 2)
    assert cycle.ratio("C") == Fraction(3, 2)
    assert cycle.ratio("E") is None
    assert cycle.anchor == 3


CONDITIONAL = """
        .text
main:   mov     8, %g1
        mov     0, %o1
        mov     0, %o2
loop:   cmp     %o2, 5
        bl      skip
        add     %o1, 1, %o1
skip:   subcc   %g1, 1, %g1
        inc     %o2
        cmp     %g1, 0
        bne     loop
        halt
"""


def test_conditional_node_not_once_per_iteration():
    ana = analysis_of(CONDITIONAL)
    rec = ana.loops[0]
    add_index = next(i for i in sorted(rec.loop.body)
                     if ana.table.dest[i] == 9
                     and ana.table.src1[i] == 9)     # %o1 is r9
    assert add_index not in rec.nodes
    assert all(add_index not in cycle.nodes for cycle in rec.cycles)


IRREDUCIBLE = """
        .text
main:   cmp     %g1, 0
        be      mid
loop:   add     %g1, 1, %g1
mid:    subcc   %g1, 1, %g1
        bne     loop
        halt
"""


def test_irreducible_loop_reported():
    ana = analysis_of(IRREDUCIBLE)
    assert ana.irreducible
    findings = ana.findings(file="x.s")
    assert findings
    assert all(f.check == "recur-irreducible" for f in findings)
    assert all(f.severity == "warning" for f in findings)


CALLED = """
        .text
main:   mov     4, %g1
loop:   call    bump
        subcc   %g1, 1, %g1
        bne     loop
        halt
bump:   add     %o1, 1, %o1
        jmpl    %o7, %g0
"""


def test_call_in_body_skipped_with_note():
    ana = analysis_of(CALLED)
    notes = [rec.note for rec in ana.loops]
    assert "call in body" in notes
    called = next(rec for rec in ana.loops if rec.note)
    assert not called.cycles and not called.edges


def test_summary_rows_shape():
    ana = analysis_of(ACCUMULATOR)
    rows = ana.summary_rows()
    assert len(rows) == 1
    assert len(rows[0]) == 13        # ... recMII A/C/E/V, ceil A/C/E/V
    assert rows[0][4] == "1"         # recMII A
    assert rows[0][5] == "0"         # recMII C (fully collapsed)


# ---------------------------------------------------------------------
# dynamic cross-check


def traced(source):
    program = assemble(source)
    trace, _, _ = trace_program(program, name="t")
    return program, trace


def simulated_ipcs(trace, width):
    """Simulated IPC of each variant's machine (config I for V)."""
    from repro.core.config import paper_config
    from repro.core.simulator import simulate_trace
    from repro.lint.ipcbound import SIM_LETTERS
    return {variant: simulate_trace(trace, paper_config(letter, width)).ipc
            for variant, letter in SIM_LETTERS.items()}


def test_cross_check_accumulator_green():
    program, trace = traced(ACCUMULATOR)
    ana = RecurrenceAnalysis(program)
    check = recurrence_cross_check(
        ana, trace, sim_ipcs=simulated_ipcs(trace, 64), widest=64)
    assert check.ok, check.violations
    assert check.loops_checked == 1
    assert check.runs_checked >= 1
    # The 8-lap accumulator pins a positive static floor in A.
    assert check.static_floor["A"] >= 7
    assert check.static_bound["A"] >= check.ipc["A"]
    assert check.ipc["A"] * (1 + 1e-9) >= check.sim["A"]


def test_cross_check_chase_all_variants():
    program, trace = traced(CHASE)
    ana = RecurrenceAnalysis(program)
    check = recurrence_cross_check(
        ana, trace, sim_ipcs=simulated_ipcs(trace, 64), widest=64)
    assert check.ok, check.violations
    # The load recurrence survives collapsing: both floors positive.
    assert check.static_floor["A"] > 0
    assert check.static_floor["C"] > 0
    assert check.cp["E"] >= check.cp["E_ideal"]


def test_cross_check_without_simulation():
    program, trace = traced(MEMORY_CARRIED)
    ana = RecurrenceAnalysis(program)
    check = recurrence_cross_check(ana, trace)
    assert check.ok, check.violations
    assert check.sim == {}
    assert check.static_floor["E"] > 0   # memory recurrence not broken


def test_cross_check_detects_fabricated_floor():
    """A deliberately inflated static latency must trip link 1."""
    program, trace = traced(CHASE)
    ana = RecurrenceAnalysis(program)
    rec = next(r for r in ana.loops if r.cycles)
    for cycle in rec.cycles:
        cycle.latency["A"] = 1000    # no machine is this slow per lap
    rec.best["A"] = max(
        (c for c in rec.cycles if c.ratio("A") is not None),
        key=lambda c: c.ratio("A"))
    check = recurrence_cross_check(ana, trace)
    assert not check.ok
    assert any("exceeds dynamic depth growth" in v
               for v in check.violations)


def test_worked_example_matches_documented_table():
    import os
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "recurrence_chain.s")
    with open(path, encoding="utf-8") as handle:
        ana = RecurrenceAnalysis(assemble(handle.read()))
    assert len(ana.loops) == 2 and not ana.irreducible
    acc, chase = ana.loops
    assert acc.recmii("A") == 2 and acc.recmii("C") == 0
    assert acc.ipc_ceiling("C") is None
    assert chase.recmii("A") == chase.recmii("C") \
        == chase.recmii("E") == 2


# -- the variant-V chain links both checks share ------------------------


@pytest.fixture
def eqntott_v():
    """eqntott at scale 0.03 (a fresh analysis per test, which may
    tamper with it): its trace, and the loop whose variant-V best cycle
    sets the 96-cycle floor of both checks."""
    from repro.workloads.registry import cached_trace, get_workload
    ana = RecurrenceAnalysis(get_workload("eqntott").build(scale=0.03))
    trace = cached_trace("eqntott", 0.03)
    assert recurrence_cross_check(ana, trace).static_floor["V"] == 96
    assert valueflow_cross_check(ana.valueflow, trace,
                                 recurrence=ana).static_floor == 96
    rec = next(r for r in ana.loops if r.best["V"] is not None)
    return ana, trace, rec


def test_inflated_v_lap_breaks_link_1_in_both_checks(eqntott_v):
    ana, trace, rec = eqntott_v
    rec.best["V"].latency["V"] *= 10
    recur = recurrence_cross_check(ana, trace)
    value = valueflow_cross_check(ana.valueflow, trace, recurrence=ana)
    prefix = "loop@%d variant V: static recurrence floor" % rec.loop.header
    assert any(v.startswith(prefix) and "exceeds dynamic depth growth" in v
               for v in recur.violations), recur.violations
    assert any(v.startswith(prefix) and "exceeds graph-V depth growth" in v
               for v in value.violations), value.violations


def test_sim_ipc_above_graph_v_breaks_link_3_in_both_checks(eqntott_v):
    ana, trace, _ = eqntott_v
    fast = recurrence_cross_check(ana, trace).ipc["V"] * 1.01
    recur = recurrence_cross_check(ana, trace, sim_ipcs={"V": fast})
    value = valueflow_cross_check(ana.valueflow, trace, recurrence=ana,
                                  sim_ipc=fast)
    assert any(v.startswith("variant V: dataflow limit")
               and "(graph V) < simulated" in v
               for v in recur.violations), recur.violations
    assert any(v.startswith("variant V: graph-V dataflow limit")
               and "< simulated config-I" in v
               for v in value.violations), value.violations
