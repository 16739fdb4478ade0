"""Static load-address classification tests (repro.lint.addrclass)."""

import pytest

from repro.addrpred import run_address_predictor
from repro.asm import assemble
from repro.lint import (
    AddressClassification,
    ControlFlowGraph,
    check_addr_untracked,
    cross_check,
    lint_program,
)
from repro.lint.addrclass import (
    CLASS_AFFINE,
    CLASS_CHASE,
    CLASS_INVARIANT,
    CLASS_IRREGULAR,
    CLASS_STRAIGHT,
    CLASS_STRIDE,
    RELOCK_MISSES,
    STABILITY_BASE,
    WARMUP_MISSES,
    count_loop_entries,
)
from repro.workloads import WORKLOADS, cached_trace


def classify(source):
    return AddressClassification(assemble(source))


def classes_of(source):
    return [site.cls for site in classify(source).sites]


STRIDE_KERNEL = """
.text
main:   set     table, %g1
        mov     8, %g2
loop:   ld      [%g1], %g3
        add     %g1, 4, %g1
        subcc   %g2, 1, %g2
        bne     loop
        halt
.data
table:  .word   1, 2, 3, 4, 5, 6, 7, 8
"""


def test_iv_plus_invariant_is_stride():
    classification = classify(STRIDE_KERNEL)
    (site,) = classification.sites
    assert site.cls == CLASS_STRIDE
    assert site.stride == 4
    assert site.loop is not None


def test_scaled_index_is_affine():
    source = """
.text
main:   set     table, %g1
        mov     0, %g2
loop:   sll     %g2, 2, %g3
        ld      [%g1 + %g3], %g4
        add     %g2, 1, %g2
        cmp     %g2, 8
        bne     loop
        halt
.data
table:  .word   1, 2, 3, 4, 5, 6, 7, 8
"""
    (site,) = classify(source).sites
    assert site.cls == CLASS_AFFINE
    assert site.stride == 4          # step 1 scaled by << 2


def test_loop_invariant_address():
    source = """
.text
main:   set     table, %g1
        mov     8, %g2
loop:   ld      [%g1], %g3
        subcc   %g2, 1, %g2
        bne     loop
        halt
.data
table:  .word   7
"""
    (site,) = classify(source).sites
    assert site.cls == CLASS_INVARIANT
    assert site.stride == 0


def test_load_derived_address_is_chase():
    source = """
.text
main:   set     head, %g1
        mov     8, %g2
loop:   ld      [%g1], %g1
        subcc   %g2, 1, %g2
        bne     loop
        halt
.data
head:   .word   head
"""
    (site,) = classify(source).sites
    assert site.cls == CLASS_CHASE


def test_chase_survives_offset_arithmetic():
    source = """
.text
main:   set     head, %g1
        mov     8, %g2
loop:   ld      [%g1 + 4], %g3
        ld      [%g1], %g1
        subcc   %g2, 1, %g2
        bne     loop
        halt
.data
head:   .word   head, 0
"""
    first, second = classify(source).sites
    assert first.cls == CLASS_CHASE      # [chased + 4]
    assert second.cls == CLASS_CHASE


def test_masked_address_is_irregular():
    # Hash-style masking destroys affinity: the stream is not
    # constant-stride even though the input is an IV.
    source = """
.text
main:   set     table, %g1
        mov     0, %g2
loop:   and     %g2, 3, %g3
        sll     %g3, 2, %g3
        add     %g1, %g3, %g4
        ld      [%g4], %g5
        add     %g2, 7, %g2
        cmp     %g2, 70
        bne     loop
        halt
.data
table:  .word   1, 2, 3, 4
"""
    (site,) = classify(source).sites
    assert site.cls == CLASS_IRREGULAR


def test_load_outside_any_loop_is_straight():
    source = """
.text
main:   set     table, %g1
        ld      [%g1], %g2
        halt
.data
table:  .word   5
"""
    (site,) = classify(source).sites
    assert site.cls == CLASS_STRAIGHT
    assert site.loop is None


def test_call_in_loop_kills_induction():
    # The callee is opaque: it may rewrite the pointer, so nothing in
    # the body is provably an IV and the load must not claim stride.
    source = """
.text
main:   set     table, %g1
        mov     8, %g2
loop:   ld      [%g1], %g3
        call    helper
        add     %g1, 4, %g1
        subcc   %g2, 1, %g2
        bne     loop
        halt
helper: ret
.data
table:  .word   1, 2, 3, 4, 5, 6, 7, 8
"""
    sites = classify(source).sites
    in_loop = [s for s in sites if s.loop is not None]
    assert in_loop
    assert all(s.cls == CLASS_IRREGULAR for s in in_loop)


def test_variable_step_iv_not_stride():
    # Conditional second update site: the step varies with the path.
    source = """
.text
main:   set     table, %g1
        mov     8, %g2
loop:   ld      [%g1], %g3
        add     %g1, 4, %g1
        cmp     %g3, 0
        be      skip
        add     %g1, 4, %g1
skip:   subcc   %g2, 1, %g2
        bne     loop
        halt
.data
table:  .word   1, 0, 3, 0, 5, 0, 7, 0
"""
    (site,) = classify(source).sites
    assert site.cls != CLASS_STRIDE


def test_class_counts_and_summary_rows():
    classification = classify(STRIDE_KERNEL)
    counts = classification.class_counts()
    assert counts[CLASS_STRIDE] == 1
    assert sum(counts.values()) == 1
    (row,) = classification.summary_rows()
    assert row[2] == CLASS_STRIDE and row[3] == 4 and row[5] == 1


def test_aliased_indices_detects_collisions():
    classification = classify(STRIDE_KERNEL)
    assert classification.aliased_indices() == set()
    # A 1-entry table aliases everything sharing it.
    source = """
.text
main:   set     a, %g1
        set     b, %g2
        ld      [%g1], %g3
        ld      [%g2], %g4
        halt
.data
a:      .word   1
b:      .word   2
"""
    two_loads = classify(source)
    assert len(two_loads.aliased_indices(table_entries=1)) == 2


# ------------------------------------------------ addr-untracked check

def test_addr_untracked_flags_undefined_address_register():
    source = """
.text
main:   cmp     %g2, 0
        be      skip
        set     buffer, %g1
skip:   ld      [%g1], %g3
        halt
.data
buffer: .word   1
"""
    program = assemble(source)
    cfg = ControlFlowGraph(program)
    findings = check_addr_untracked(program, cfg)
    assert any(f.check == "addr-untracked" for f in findings)


def test_addr_untracked_quiet_on_defined_address():
    program = assemble(STRIDE_KERNEL)
    cfg = ControlFlowGraph(program)
    assert check_addr_untracked(program, cfg) == []


def test_lint_report_carries_classification():
    report = lint_program(assemble(STRIDE_KERNEL))
    assert report.analyses["addr-class"] is not None
    assert report.analyses["addr-class"].class_counts()[CLASS_STRIDE] == 1


# -------------------------------------------------- dynamic cross-check

def _check_workload(name, scale=0.03):
    program = WORKLOADS[name].build(scale)
    classification = AddressClassification(program)
    trace = cached_trace(name, scale)
    result = run_address_predictor(trace, per_pc=True)
    return classification, trace, cross_check(classification, trace,
                                              result)


def test_cross_check_requires_per_pc_stats():
    classification, trace, _ = _check_workload("compress")
    plain = run_address_predictor(trace)
    with pytest.raises(ValueError):
        cross_check(classification, trace, plain)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_static_bound_dominates_dynamic_coverage(name):
    """The soundness inequality on every registered workload: the
    trace-weighted static coverage bound is an upper bound on the
    fraction of loads the confidence gate actually opened for, and
    every statically predictable site holds the re-lock miss bound."""
    classification, trace, check = _check_workload(name)
    assert check.ok, "\n".join(check.violations)
    assert check.coverage_bound >= check.dynamic_coverage
    # Dynamic class counts partition the dynamic loads.
    counts = classification.dynamic_class_counts(trace)
    assert sum(counts.values()) == check.loads


def test_cross_check_catches_misclassification():
    """Force a chase site to claim stride: the delta-change budget
    must blow up (a linked-list walk is not constant-stride)."""
    name = "li"
    program = WORKLOADS[name].build(0.03)
    classification = AddressClassification(program)
    chases = [s for s in classification.sites
              if s.cls == CLASS_CHASE and s.loop is not None]
    assert chases
    trace = cached_trace(name, 0.03)
    result = run_address_predictor(trace, per_pc=True)
    entries = count_loop_entries(trace, {s.loop for s in chases})
    # Pick a chase site with enough observations to be checked.
    target = None
    for site in chases:
        stat = result.per_pc.get(site.pc)
        if stat is None or stat.count < 64:
            continue
        budget = STABILITY_BASE \
            + RELOCK_MISSES * entries[site.loop.header]
        if stat.delta_changes > budget \
                or stat.correct < stat.count - WARMUP_MISSES \
                - RELOCK_MISSES * stat.delta_changes:
            target = site
            break
    assert target is not None, "no checkable chase site in li"
    target.cls = CLASS_STRIDE
    check = cross_check(classification, trace, result)
    assert not check.ok
    assert any("#%d" % target.index in v for v in check.violations)
