"""Static result-value classification and its dynamic cross-check
(repro.lint.valueflow)."""

from repro.asm import assemble
from repro.cli import main
from repro.emu import trace_program
from repro.lint import (
    RecurrenceAnalysis,
    ValueFlowAnalysis,
    valueflow_cross_check,
)
from repro.lint.induction import LOAD, LoopValues
from repro.lint.valueflow import (
    CLASS_AFFINE,
    CLASS_CONSTANT,
    CLASS_INVARIANT,
    CLASS_LOAD,
    CLASS_PERIODIC,
    CLASS_STRAIGHT,
    CLASS_STRIDE,
    CLASS_UNKNOWN,
    VALUE_PREDICTABLE_CLASSES,
)


def analysis_of(source):
    return ValueFlowAnalysis(assemble(source))


def traced(source):
    program = assemble(source)
    trace, _, _ = trace_program(program, name="t")
    return program, trace


def classes_by_line(ana):
    return {site.line: site for site in ana.sites}


# ------------------------------------------------------------- classes

MIXED = """
        .equ N, 32
        .text
main:   set     array, %o0
        mov     0, %o1
        mov     0, %o2
        set     cell, %g4
loop:   ld      [%o0], %o3
        ld      [%g4], %g3
        add     %o1, %o3, %o1
        add     %o0, 4, %o0
        sll     %o2, 2, %g2
        xor     %o5, 5, %o5
        inc     %o2
        cmp     %o2, N
        bl      loop
        set     result, %o4
        st      %o1, [%o4]
        halt
        .data
array:  .word   3, 1, 4, 1, 5, 9, 2, 6, 3, 1, 4, 1, 5, 9, 2, 6
        .word   3, 1, 4, 1, 5, 9, 2, 6, 3, 1, 4, 1, 5, 9, 2, 6
cell:   .word   7
result: .word   0
"""


def test_mixed_loop_classes():
    ana = analysis_of(MIXED)
    sites = classes_by_line(ana)
    # strided array load: address varies per iteration
    assert sites[8].cls == CLASS_LOAD
    # fixed-cell load with no in-loop store to it: value invariant
    assert sites[9].cls == CLASS_INVARIANT
    # accumulator over a load-derived value: unknown-to-memory
    assert sites[10].cls == CLASS_LOAD
    # the pointer bump and the counter are IV updates: stride
    assert sites[11].cls == CLASS_STRIDE and sites[11].stride == 4
    assert sites[14].cls == CLASS_STRIDE and sites[14].stride == 1
    # shift of an IV: affine (constant per-iteration result stride)
    assert sites[12].cls == CLASS_AFFINE
    # the XOR toggle alternates with period 2
    assert sites[13].cls == CLASS_PERIODIC and sites[13].period == 2
    # setup code outside the loop makes no per-PC claim
    assert sites[4].cls == CLASS_STRAIGHT


def test_constant_materialization_in_loop():
    ana = analysis_of("""
        .text
main:   mov     8, %g1
loop:   mov     42, %o1
        subcc   %g1, 1, %g1
        bne     loop
        halt
""")
    sites = classes_by_line(ana)
    assert sites[4].cls == CLASS_CONSTANT


def test_store_aliased_load_not_invariant():
    ana = analysis_of("""
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
""")
    sites = classes_by_line(ana)
    assert sites[5].cls == CLASS_LOAD
    assert "alias" in sites[5].note


def test_call_result_unknown():
    ana = analysis_of("""
        .text
main:   mov     4, %g1
loop:   call    bump
        subcc   %g1, 1, %g1
        bne     loop
        halt
bump:   add     %o1, 1, %o1
        jmpl    %o7, %g0
""")
    call_site = next(s for s in ana.sites if s.note == "call result")
    assert call_site.cls == CLASS_UNKNOWN


# A loop-carried add chain that one load feeds: every add's value is
# load-derived, wherever the walk enters the cycle.
CYCLE = """
        .text
main:   set     cell, %o3
        mov     0, %o5
        mov     0, %o0
loop:   ld      [%o3], %o2
        add     %o5, 8, %o6
        add     %o6, 12, %o4
        add     %o4, 4, %o1
        add     %o1, %o2, %o5
        inc     %o0
        cmp     %o0, 4
        bl      loop
        halt
        .data
cell:   .word   7
"""
CYCLE_ADD_LINES = (7, 8, 9, 10)


def test_cycle_forms_do_not_depend_on_query_order():
    program = assemble(CYCLE)
    adds = [i for i, ins in enumerate(program.instructions)
            if ins.line in CYCLE_ADD_LINES]
    queries = [(program.instructions[d].rs1, d) for d in adds]

    def forms(order):
        values = LoopValues(program)
        loop = values.forest.loop_of(adds[0])
        return {query: values.form(query[0], query[1], loop)
                for query in order}

    assert forms(queries) == forms(queries[::-1])
    assert {kind for kind, _stride in forms(queries).values()} == {LOAD}


def test_cycle_adds_print_as_load(tmp_path, capsys):
    source = tmp_path / "cycle.s"
    source.write_text(CYCLE)
    assert main(["lint", str(source), "--value"]) == 0
    rows = [line.split("|") for line in capsys.readouterr().out.split("\n")
            if line.count("|") == 5]
    printed = {int(row[1]): row[2].strip() for row in rows
               if row[1].strip().isdigit()}
    assert [printed[line] for line in CYCLE_ADD_LINES] == [CLASS_LOAD] * 4


def test_cut_indices_loads_plus_predictable():
    ana = analysis_of(MIXED)
    cut = ana.cut_indices()
    instrs = ana.program.instructions
    for i, ins in enumerate(instrs):
        if ins.is_load:
            assert i in cut
    for site in ana.sites:
        if site.cls in VALUE_PREDICTABLE_CLASSES:
            assert site.index in cut
        elif not instrs[site.index].is_load:
            assert site.index not in cut
    counts = ana.class_counts()
    assert counts[CLASS_STRIDE] == 2
    assert counts[CLASS_PERIODIC] == 1


def test_coverage_bound_weighs_load_class():
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    counts = ana.dynamic_class_counts(trace)
    assert counts[CLASS_LOAD] == counts[CLASS_INVARIANT] == 32
    bound = ana.coverage_bound(trace)
    # half the dynamic loads are capped at 0.5, half uncapped
    assert abs(bound - 0.75) < 1e-9


# --------------------------------------------------------- cross-check


def test_cross_check_green_end_to_end():
    from repro.core.config import paper_config
    from repro.core.simulator import simulate_trace
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    rec = RecurrenceAnalysis(program, valueflow=ana)
    sim_ipc = simulate_trace(trace, paper_config("I", 64)).ipc
    check = valueflow_cross_check(ana, trace, recurrence=rec,
                                  sim_ipc=sim_ipc, widest=64)
    assert check.ok, check.violations
    assert check.checked_sites >= 1
    assert check.loads == 64
    assert check.coverage_bound * (1 + 1e-9) >= check.dynamic_coverage
    assert check.graph_ipc * (1 + 1e-9) >= check.sim_ipc
    if check.static_bound is not None:
        assert check.static_bound * (1 + 1e-9) >= check.sim_ipc


def test_cross_check_detects_broken_relock_floor():
    from repro.vpred.runner import run_value_predictor
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    result = run_value_predictor(trace, predictor="stride", per_pc=True)
    invariant = next(s for s in ana.load_sites
                     if s.cls == CLASS_INVARIANT)
    stat = result.per_pc[invariant.pc]
    stat.correct = 0
    stat.delta_changes = 0
    check = valueflow_cross_check(ana, trace, result=result)
    assert not check.ok
    assert any("re-lock bound" in v for v in check.violations)


def test_cross_check_detects_unstable_invariant():
    from repro.vpred.runner import run_value_predictor
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    result = run_value_predictor(trace, predictor="stride", per_pc=True)
    invariant = next(s for s in ana.load_sites
                     if s.cls == CLASS_INVARIANT)
    result.per_pc[invariant.pc].delta_changes = 1000
    check = valueflow_cross_check(ana, trace, result=result)
    assert not check.ok
    assert any("changed stride" in v for v in check.violations)


def test_cross_check_detects_coverage_breach():
    from repro.vpred.runner import run_value_predictor
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    result = run_value_predictor(trace, predictor="stride", per_pc=True)
    result.attempted = {pos: True for pos in result.attempted}
    for stat in result.per_pc.values():
        stat.correct = stat.count       # keep the per-PC half quiet
        stat.delta_changes = 0
    check = valueflow_cross_check(ana, trace, result=result)
    assert not check.ok
    assert any("coverage bound" in v for v in check.violations)


def test_cross_check_requires_per_pc():
    import pytest
    from repro.vpred.runner import run_value_predictor
    program, trace = traced(MIXED)
    ana = ValueFlowAnalysis(program)
    result = run_value_predictor(trace, predictor="stride")
    with pytest.raises(ValueError):
        valueflow_cross_check(ana, trace, result=result)
