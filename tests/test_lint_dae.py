"""Static access/execute slicing and the slice<->occupancy cross-check
(repro.lint.dae)."""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.asm import assemble
from repro.core.config import paper_config
from repro.core.simulator import simulate_trace
from repro.emu import trace_program
from repro.lint import (
    DAEAnalysis,
    DAEPlan,
    dae_cross_check,
    static_signature,
)
from repro.lint.dae import (
    VERDICT_CLEAN,
    VERDICT_POISONED,
    VERDICT_SKIPPED,
)
from repro.trace.records import LD

from .test_lint_recurrence import (
    CALLED,
    CHASE,
    IRREDUCIBLE,
    MEMORY_CARRIED,
    STRIDED,
)


def analysis_of(source):
    return DAEAnalysis(assemble(source))


def traced(source):
    program = assemble(source)
    trace, _, _ = trace_program(program, name="t")
    return program, trace


def slice_closure(ana, dl, nodes):
    """The closure operator of the slice property tests: the given
    nodes plus the value closure of every member's producers, over the
    context ``ana`` sliced ``dl``'s loop with.  The access slice of an
    analyzed loop is a fixed point of this operator."""
    ctx = ana.context_of(dl.rec)
    members = set(nodes)
    value_needed = set()
    for m in members:
        value_needed |= ana._expand(ctx, m, ana._read_slots(m))
    return frozenset(members | ana._value_closure(ctx, value_needed))


# ---------------------------------------------------------------------
# verdicts on the handwritten loop shapes


def test_strided_loop_is_clean():
    ana = analysis_of(STRIDED)
    assert len(ana.loops) == 1
    dl = ana.loops[0]
    assert dl.verdict == VERDICT_CLEAN
    # One boundary load whose value (%o3) leaves the access slice.
    assert len(dl.loads) == 1
    assert dl.boundary == dl.loads
    assert dl.depth >= 1
    # The induction update (add %o0, 4, %o0) is in every address cone.
    (cone,) = dl.cones.values()
    assert cone and not (cone & dl.loads)
    assert 0.0 < dl.access_fraction < 1.0


def test_pointer_chase_is_poisoned():
    ana = analysis_of(CHASE)
    dl = ana.loops[0]
    assert dl.verdict == VERDICT_POISONED
    assert "load" in dl.reason
    # The chasing load sits in its own address cone.
    load = next(iter(dl.loads))
    assert load in dl.cones[load]
    # Poisoned loops never queue.
    plan = ana.plan()
    assert dl.header not in plan.clean
    assert dl.header not in plan.capacity


def test_memory_carried_loop_is_clean_with_load_boundary():
    # The ld/add/st cell recurrence is memory-carried, not
    # address-carried: the load's address register never changes, so
    # the access slice is self-contained and the loop decouples.
    ana = analysis_of(MEMORY_CARRIED)
    dl = ana.loops[0]
    assert dl.verdict == VERDICT_CLEAN
    assert dl.boundary == dl.loads and len(dl.boundary) == 1


def test_call_in_body_skipped_with_located_warning():
    ana = analysis_of(CALLED)
    dl = next(d for d in ana.loops if d.verdict == VERDICT_SKIPPED)
    assert "call in body" in dl.reason
    findings = ana.findings(file="x.s")
    assert findings
    assert all(f.check == "dae-skip" for f in findings)
    assert all(f.severity == "warning" for f in findings)
    assert all(f.file == "x.s" and f.line > 0 for f in findings)


def test_irreducible_loop_skipped_with_warning():
    ana = analysis_of(IRREDUCIBLE)
    skipped = [d for d in ana.loops if d.verdict == VERDICT_SKIPPED]
    assert skipped
    assert any("irreducible" in d.reason for d in skipped)
    assert any(f.check == "dae-skip" for f in ana.findings())


def test_summary_rows_shape():
    rows = analysis_of(STRIDED).summary_rows()
    assert len(rows) == 1 and len(rows[0]) == 11
    assert rows[0][3] == VERDICT_CLEAN


# ---------------------------------------------------------------------
# plan plumbing


def test_plan_signature_pins_the_program():
    ana = analysis_of(STRIDED)
    plan = ana.plan()
    assert plan.signature == static_signature(ana.table)
    other = assemble(CHASE)
    with pytest.raises(ValueError):
        plan.validate(DAEAnalysis(other).table)


def test_plan_rejects_zero_depth():
    ana = analysis_of(STRIDED)
    plan = ana.plan()
    (header,) = plan.clean
    with pytest.raises(ValueError):
        DAEPlan(plan.signature, plan.access_of, plan.boundary_of,
                plan.body_of, plan.chase_of, plan.body_loads,
                {header: 0}, plan.clean)


# ---------------------------------------------------------------------
# property tests: random straight-line loop bodies

_REGS = ("%o0", "%o1", "%o2", "%o3", "%o4", "%o5")


@st.composite
def loop_sources(draw):
    """A reducible counted loop with a random straight-line body over
    %o0-%o5 (the %g1 counter is reserved for loop control)."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(("addi", "addr", "ld", "st")))
        if kind == "addi":
            d = draw(st.sampled_from(_REGS))
            s = draw(st.sampled_from(_REGS))
            imm = draw(st.integers(min_value=1, max_value=8))
            ops.append("        add     %s, %d, %s" % (s, imm, d))
        elif kind == "addr":
            d = draw(st.sampled_from(_REGS))
            s1 = draw(st.sampled_from(_REGS))
            s2 = draw(st.sampled_from(_REGS))
            ops.append("        add     %s, %s, %s" % (s1, s2, d))
        elif kind == "ld":
            a = draw(st.sampled_from(_REGS))
            d = draw(st.sampled_from(_REGS))
            ops.append("        ld      [%s], %s" % (a, d))
        else:
            a = draw(st.sampled_from(_REGS))
            s = draw(st.sampled_from(_REGS))
            ops.append("        st      %s, [%s]" % (s, a))
    return "\n".join(
        ["        .text",
         "main:   mov     8, %g1",
         "        set     buf, %o0",
         "        mov     4, %o1",
         "        mov     8, %o2",
         "        set     buf, %o3",
         "        set     buf, %o4",
         "        set     buf, %o5",
         "loop:"] + ops +
        ["        subcc   %g1, 1, %g1",
         "        bne     loop",
         "        halt",
         "        .data",
         "buf:    .word   0, 0, 0, 0, 0, 0, 0, 0"])


@given(loop_sources())
@settings(max_examples=150, deadline=None)
def test_access_slice_is_closure_fixed_point(source):
    ana = analysis_of(source)
    for dl in ana.loops:
        if dl.verdict == VERDICT_SKIPPED:
            continue
        # The access slice is closed under must/may producer edges.
        assert slice_closure(ana, dl, dl.access) == dl.access


@given(loop_sources(), st.lists(st.integers(min_value=0, max_value=63),
                                max_size=6))
@settings(max_examples=150, deadline=None)
def test_slice_of_slice_is_idempotent(source, picks):
    ana = analysis_of(source)
    for dl in ana.loops:
        if dl.verdict == VERDICT_SKIPPED or not dl.body:
            continue
        body = sorted(dl.body)
        subset = {body[i % len(body)] for i in picks}
        once = slice_closure(ana, dl, subset)
        assert subset <= once
        assert slice_closure(ana, dl, once) == once


@given(loop_sources())
@settings(max_examples=150, deadline=None)
def test_slice_partition_invariants(source):
    ana = analysis_of(source)
    table = ana.table
    for dl in ana.loops:
        if dl.verdict == VERDICT_SKIPPED:
            continue
        # access and execute cover the body and meet exactly at the
        # boundary loads.
        assert dl.access | dl.execute == dl.body
        assert dl.access & dl.execute == dl.boundary
        assert dl.boundary <= dl.loads <= dl.access <= dl.body
        assert all(table.cls[i] == LD for i in dl.boundary)
        if dl.verdict == VERDICT_CLEAN:
            # No load value stays inside the access slice, so every
            # load is a boundary load and no cone contains a load.
            assert dl.boundary == dl.loads
            assert all(not (cone & dl.loads)
                       for cone in dl.cones.values())
        else:
            assert any(cone & dl.loads for cone in dl.cones.values())


# ---------------------------------------------------------------------
# dynamic cross-check


def test_cross_check_strided_green():
    program, trace = traced(STRIDED)
    ana = DAEAnalysis(program)
    plan = ana.plan()
    result = simulate_trace(trace, paper_config("H", 8), sanitize=True,
                            dae_plan=plan)
    check = dae_cross_check(ana, trace, result)
    assert check.ok, check.violations
    assert check.clean_loops == 1 and check.queued_loops == 1
    assert check.chase_deps == 0
    assert check.enqueued > 0
    assert check.popped <= check.enqueued
    assert check.peak <= sum(plan.capacity.values())


def test_cross_check_chase_green_with_chase_deps():
    program, trace = traced(CHASE)
    ana = DAEAnalysis(program)
    result = simulate_trace(trace, paper_config("H", 8), sanitize=True,
                            dae_plan=ana.plan())
    check = dae_cross_check(ana, trace, result)
    assert check.ok, check.violations
    assert check.poisoned_loops == 1 and check.queued_loops == 0
    # The coupled chase records its load-to-address dependences.
    assert check.chase_deps > 0
    assert check.enqueued == 0


def test_cross_check_requires_dae_statistics():
    program, trace = traced(STRIDED)
    ana = DAEAnalysis(program)
    result = simulate_trace(trace, paper_config("A", 8))
    check = dae_cross_check(ana, trace, result)
    assert not check.ok
    assert any("no DAE statistics" in v for v in check.violations)
