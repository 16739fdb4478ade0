"""Static branch-predictability classification and its dynamic
cross-check (repro.lint.branchflow)."""

import os

import pytest

from repro.asm import assemble
from repro.emu import trace_program
from repro.lint import BranchFlowAnalysis, branchflow_cross_check
from repro.lint.branchflow import (
    ALL_BRANCH_CLASSES,
    BRANCH_COVERAGE_CAP,
    CLASS_EXIT,
    CLASS_INVARIANT,
    CLASS_LOAD,
    CLASS_PERIODIC,
    CLASS_STRAIGHT,
    CLASS_TRIP,
    CLASS_UNKNOWN,
    BranchPlan,
    branch_class_join,
    branch_class_leq,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def analysis_of(source):
    return BranchFlowAnalysis(assemble(source))


def traced(source):
    program = assemble(source)
    trace, _, _ = trace_program(program, name="t")
    return program, trace


def by_index(ana):
    return {site.index: site for site in ana.sites}


# ------------------------------------------------------------- classes

TRIP = """
        .equ N, 12
        .text
main:   mov     0, %o2
        mov     0, %o1
loop:   add     %o1, %o2, %o1
        inc     %o2
        cmp     %o2, N
        bl      loop
        set     result, %o4
        st      %o1, [%o4]
        halt
        .data
result: .word   0
"""

#: same shape, but the continue bound lives in a register the memdep
#: resolver must prove holds a single exact constant
REG_LIMIT = """
        .text
main:   mov     24, %g3
        mov     0, %o2
        mov     0, %o1
loop:   add     %o1, %o2, %o1
        add     %o2, 2, %o2
        cmp     %o2, %g3
        bl      loop
        set     result, %o4
        st      %o1, [%o4]
        halt
        .data
result: .word   0
"""

MIXED = """
        .equ N, 8
        .text
main:   mov     0, %o2
        mov     0, %o1
        mov     3, %g5
        mov     0, %o5
loop:   cmp     %g5, 3
        bne     skip
        add     %o1, 1, %o1
skip:   xor     %o5, 1, %o5
        cmp     %o5, 0
        be      even
        add     %o1, 2, %o1
even:   inc     %o2
        cmp     %o2, N
        bl      loop
        cmp     %o1, 40
        bg      big
        set     result, %o4
        st      %o1, [%o4]
big:    halt
        .data
result: .word   0
"""

NESTED = """
        .equ INNER, 5
        .equ OUTER, 4
        .text
main:   mov     0, %o0
        mov     0, %o1
outer:  mov     0, %o2
inner:  add     %o1, %o2, %o1
        inc     %o2
        cmp     %o2, INNER
        bl      inner
        inc     %o0
        cmp     %o0, OUTER
        bl      outer
        set     result, %o4
        st      %o1, [%o4]
        halt
        .data
result: .word   0
"""

CALL = """
        .equ N, 6
        .text
main:   mov     0, %o2
loop:   call    bump
        cmp     %o0, 3
        bne     skip
        inc     %o2
skip:   cmp     %o2, N
        bl      loop
        halt
bump:   add     %o2, 1, %o0
        ret
"""


def test_trip_recovery_with_immediate_limit():
    ana = analysis_of(TRIP)
    assert len(ana.sites) == 1
    site = ana.sites[0]
    # iv steps +1 from 0; `bl` continues while iv <= N-1 -> N trips.
    assert site.cls == CLASS_TRIP
    assert site.trip == 12
    assert site.exit_taken is False          # exit falls through


def test_trip_recovery_with_register_limit():
    """The compare's limit register holds a single exact program
    constant (24), recovered through the memdep resolver; iv steps by
    2 from 0 -> 12 trips."""
    ana = analysis_of(REG_LIMIT)
    site = ana.sites[0]
    assert site.cls == CLASS_TRIP
    assert site.trip == 12


def test_mixed_loop_classes():
    sites = by_index(analysis_of(MIXED))
    classes = {site.cls for site in sites.values()}
    assert classes == {CLASS_INVARIANT, CLASS_PERIODIC, CLASS_TRIP,
                       CLASS_STRAIGHT}
    periodic = next(s for s in sites.values()
                    if s.cls == CLASS_PERIODIC)
    assert periodic.period == 2
    trip = next(s for s in sites.values() if s.cls == CLASS_TRIP)
    assert trip.trip == 8


def test_call_derived_condition_is_unknown():
    """A condition cone that crosses a call must degrade to unknown
    (the body branch); loop-exit structure survives as ``exit``."""
    sites = by_index(analysis_of(CALL))
    classes = sorted(site.cls for site in sites.values())
    assert classes == [CLASS_EXIT, CLASS_UNKNOWN]
    unknown = next(s for s in sites.values() if s.cls == CLASS_UNKNOWN)
    assert "call-derived" in unknown.note


def test_example_kernel_load_classes_and_plan():
    """exit_branch.s: the scan exit is governed by a stride load (in
    the plan); the chase exit by a pointer load (excluded)."""
    with open(os.path.join(EXAMPLES, "exit_branch.s")) as handle:
        ana = BranchFlowAnalysis(assemble(handle.read()))
    assert [site.cls for site in ana.sites] == [CLASS_EXIT, CLASS_EXIT]
    scan, chase = ana.sites
    assert scan.load_cls == "stride"
    assert chase.load_cls == "chase"
    plan = ana.plan()
    assert plan.resolves == {scan.index: scan.load_index}


def test_summary_rows_cover_every_site():
    ana = analysis_of(MIXED)
    rows = ana.summary_rows()
    assert len(rows) == len(ana.sites)
    assert {row[2] for row in rows} \
        == {site.cls for site in ana.sites}


def test_class_counts_sum_to_sites():
    ana = analysis_of(MIXED)
    counts = ana.class_counts()
    assert set(counts) == set(ALL_BRANCH_CLASSES)
    assert sum(counts.values()) == len(ana.sites)


# ------------------------------------------------------------- lattice

def test_lattice_basics():
    assert branch_class_leq(CLASS_TRIP, CLASS_EXIT)
    assert branch_class_leq(CLASS_EXIT, CLASS_UNKNOWN)
    assert not branch_class_leq(CLASS_EXIT, CLASS_TRIP)
    assert branch_class_join(CLASS_TRIP, CLASS_EXIT) == CLASS_EXIT
    assert branch_class_join(CLASS_INVARIANT, CLASS_PERIODIC) \
        == "history"
    assert branch_class_join(CLASS_LOAD, CLASS_TRIP) == CLASS_UNKNOWN


def test_coverage_caps_cover_every_class():
    assert set(BRANCH_COVERAGE_CAP) == set(ALL_BRANCH_CLASSES)
    for cap in BRANCH_COVERAGE_CAP.values():
        assert 0.0 < cap <= 1.0


# ------------------------------------------------------------- plan

def test_plan_validate_rejects_other_program():
    with open(os.path.join(EXAMPLES, "exit_branch.s")) as handle:
        plan = BranchFlowAnalysis(assemble(handle.read())).plan()
    other, _ = traced(TRIP)
    from repro.trace.records import StaticTable
    with pytest.raises(ValueError, match="does not match"):
        plan.validate(StaticTable.from_program(other))


def test_plan_rejects_self_mapping():
    with pytest.raises(ValueError, match="itself"):
        BranchPlan("sig", {4: 4})


# ------------------------------------------------- dynamic cross-check

def simulated(ana, trace, width):
    """The C, I and J cells the cross-check's simulated links read,
    config J run with the analysis's plan."""
    from repro.core.config import paper_config
    from repro.core.simulator import simulate_trace
    return {letter: simulate_trace(trace, paper_config(letter, width),
                                   branch_plan=ana.plan()
                                   if letter == "J" else None)
            for letter in ("C", "I", "J")}


def test_trip_floor_holds_dynamically():
    """The recovered trip count bounds the dynamic exit rate: the trip
    branch of TRIP runs 12 times per loop run and exits once."""
    program, trace = traced(TRIP)
    ana = BranchFlowAnalysis(program)
    check = branchflow_cross_check(ana, trace)
    assert check.ok, check.violations
    assert check.floors_checked == 1


def test_nested_trip_floors_hold_dynamically():
    """Both nested trip branches recover (inner 5, outer 4) and both
    per-PC floors hold: the inner branch runs 20 times and exits 4."""
    program, trace = traced(NESTED)
    ana = BranchFlowAnalysis(program)
    trips = sorted(site.trip for site in ana.sites)
    assert trips == [4, 5]
    check = branchflow_cross_check(ana, trace)
    assert check.ok, check.violations
    assert check.floors_checked == 2


def test_wrong_trip_count_is_caught():
    """Corrupting the recovered trip count must trip the per-PC floor
    check — the dynamic side really constrains the static claim: with
    trip=100 the inner branch may exit at most 20//100+1 = 1 time,
    but it exits once per outer iteration (4 times)."""
    program, trace = traced(NESTED)
    ana = BranchFlowAnalysis(program)
    inner = next(site for site in ana.sites if site.trip == 5)
    inner.trip = 100
    check = branchflow_cross_check(ana, trace)
    assert not check.ok
    assert any("trip-count floor" in v for v in check.violations)


def test_cross_check_chain_on_example_kernel():
    """Full chain on exit_branch.s including the simulated config-J
    links: J <= I cycles and early coverage <= accuracy."""
    with open(os.path.join(EXAMPLES, "exit_branch.s")) as handle:
        program = assemble(handle.read())
    trace, _, _ = trace_program(program, name="exit_branch")
    ana = BranchFlowAnalysis(program)
    check = branchflow_cross_check(ana, trace,
                                   sim_results=simulated(ana, trace, 8))
    assert check.ok, check.violations
    assert check.plan_branches == 1
    assert check.early_coverage is not None
    assert 0.0 < check.early_coverage <= check.accuracy
    assert check.ceiling >= check.accuracy
    assert check.coverage_bound >= check.confident_coverage
    assert check.sim["J"].cycles <= check.sim["I"].cycles


@pytest.mark.parametrize("name", ["eqntott", "li", "vortex"])
def test_cross_check_green_on_workloads(name):
    from repro.workloads import cached_trace, get_workload
    scale = 0.03
    program = get_workload(name).build(scale=scale)
    trace = cached_trace(name, scale)
    ana = BranchFlowAnalysis(program)
    check = branchflow_cross_check(ana, trace,
                                   sim_results=simulated(ana, trace, 64))
    assert check.ok, check.violations
    assert check.sites > 0
    assert check.conditional > 0


def test_vortex_plan_resolves_exit_branches_dynamically():
    """vortex is the one registered kernel with a non-empty branch
    plan; configuration J must actually waive fences on it."""
    from repro.workloads import cached_branch_plan, cached_trace
    plan = cached_branch_plan("vortex", 0.05)
    assert plan.resolves
    from repro.core.config import paper_config
    from repro.core.simulator import simulate_trace
    trace = cached_trace("vortex", 0.05)
    result = simulate_trace(trace, paper_config("J", 16),
                            branch_plan=plan, sanitize=True)
    bspec = result.branch_spec
    assert bspec is not None
    assert bspec.exit_branches > 0
    assert bspec.early_resolved >= 1


def test_empty_trace_cross_check_is_trivially_ok():
    from synth import TraceBuilder
    ana = analysis_of(TRIP)
    check = branchflow_cross_check(ana, TraceBuilder().build())
    assert check.ok
    assert check.conditional == 0


def test_misprediction_floor_counts_cold_taken_branches():
    """Every unaliased static branch whose first outcome is taken is a
    guaranteed cold miss; with 8192-entry tables, tiny kernels never
    alias, so the floor equals the first-taken site count."""
    program, trace = traced(TRIP)
    ana = BranchFlowAnalysis(program)
    floor, conditional = ana.misprediction_floor(trace)
    assert conditional == 12
    assert floor == 1           # the loop branch's first outcome: taken


def test_misprediction_floor_respects_aliasing():
    """With a one-entry table every site aliases every other, so no
    cold miss is guaranteed and the floor must drop to 0 (a gshare-
    style collision could have trained the shared counter)."""
    program, trace = traced(MIXED)
    ana = BranchFlowAnalysis(program)
    assert len(ana.sites) > 1
    full_floor, _ = ana.misprediction_floor(trace)
    assert full_floor >= 1
    assert ana.misprediction_floor(trace, table_entries=1)[0] == 0
