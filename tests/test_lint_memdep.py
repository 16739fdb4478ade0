"""Static memory-dependence conflict analysis (repro.lint.memdep).

Covers the bounded-congruence form algebra, the resolver on assembled
kernels, the word-granular trace dependence walk, and the
static-vs-dynamic cross-check in both its green and red directions.
"""

import pytest

from repro.asm import assemble
from repro.core import paper_config, simulate_trace
from repro.emu.tracer import trace_program
from repro.lint import MemDepBound, lint_program, memdep_cross_check
from repro.lint.memdep import (
    WORD_SPAN,
    _add,
    _const,
    _disjoint,
    _join,
    _scale,
    trace_dependence_pairs,
)
from repro.workloads import cached_trace, get_workload

SCALE = 0.03


def bound_of(source):
    return MemDepBound(assemble(source))


# ----------------------------------------------------------------------
# Form algebra.
# ----------------------------------------------------------------------

def test_const_and_add():
    a = _add(_const(0x100), _const(8))
    assert a == (0x108, 0, 0x108, 0x108)
    assert _add(a, None) is None


def test_sub_flips_interval():
    a = (0, 0, 0, 10)
    b = _add(_const(100), a, negate=True)
    assert b == (100, 0, 90, 100)


def test_scale_multiplies_mod_and_bounds():
    a = (4, 8, 0, 32)
    assert _scale(a, 4) == (16, 32, 0, 128)


def test_join_takes_gcd_of_anchor_difference():
    a = _const(0x100)
    b = _const(0x10c)
    anchor, mod, lo, hi = _join(a, b)
    assert mod == 12
    assert lo == 0x100 and hi == 0x10c


def test_disjoint_by_interval():
    a = (0x100, 4, 0x100, 0x200)
    b = (0x204, 4, 0x204, 0x300)
    assert _disjoint(a, b)
    assert _disjoint(b, a)
    # Overlapping by less than a word: not provable.
    assert not _disjoint(a, (0x1fe, 4, 0x1fe, 0x300))


def test_disjoint_by_residue():
    # Interleaved stride-8 streams offset by 4: same word never shared
    # ... but 4 apart is not a full word span on both sides unless the
    # stride leaves WORD_SPAN clearance each way (8 - 4 == 4 == span).
    a = (0x100, 8, None, None)
    b = (0x104, 8, None, None)
    assert _disjoint(a, b)
    # Same-stride same-residue streams can collide.
    assert not _disjoint(a, (0x100, 8, None, None))
    # Stride 4 leaves no clearance: residue test must refuse.
    assert not _disjoint((0x100, 4, None, None), (0x102, 4, None, None))


def test_disjoint_exact_constants():
    assert _disjoint(_const(0x100), _const(0x104))
    assert not _disjoint(_const(0x100), _const(0x103))
    assert WORD_SPAN == 4


# ----------------------------------------------------------------------
# Resolver on assembled programs.
# ----------------------------------------------------------------------

def test_separate_statics_proven_disjoint():
    bound = bound_of("""
.text
main:   set     src, %g1
        set     dst, %g2
        ld      [%g1], %g3
        st      %g3, [%g2]
        halt
.data
src:    .word   1
dst:    .word   0
""")
    assert len(bound.loads) == 1
    assert len(bound.stores) == 1
    assert bound.resolved_refs == 2
    assert bound.conflict_count == 0


def test_same_word_is_a_conflict():
    bound = bound_of("""
.text
main:   set     cell, %g1
        st      %g0, [%g1]
        ld      [%g1], %g2
        halt
.data
cell:   .word   7
""")
    assert bound.conflict_count == 1
    load = bound.loads[0]
    store = bound.stores[0]
    assert bound.conflicts(load.index, store.index)
    assert load.form == store.form
    assert load.form[1] == 0        # exact, no IV folded in


def test_bounded_loop_streams_disjoint():
    """Two stride-4 indexed streams over separate arrays: only the
    back-edge bound on the shared index separates them (their
    congruence classes are identical)."""
    bound = bound_of("""
.text
main:   set     src, %g1
        set     dst, %g2
        mov     0, %g3
loop:   ld      [%g1 + %g3], %g4
        st      %g4, [%g2 + %g3]
        add     %g3, 4, %g3
        cmp     %g3, 32
        bl      loop
        halt
.data
src:    .word   1, 2, 3, 4, 5, 6, 7, 8
pad:    .word   0, 0, 0, 0
dst:    .word   0, 0, 0, 0, 0, 0, 0, 0
""")
    (load,) = bound.loads
    (store,) = bound.stores
    assert load.form is not None and store.form is not None
    # Interval bounds recovered from the `cmp ; bl` back edge (widened
    # by one step past the bound).
    assert load.form[3] is not None
    assert load.form[3] - load.form[2] == 32 + 4 - 1
    assert bound.conflict_count == 0


def test_unbounded_loop_streams_conflict():
    """Without a recoverable trip bound the streams may overrun into
    each other: must stay a conflict."""
    bound = bound_of("""
.text
main:   set     src, %g1
        set     dst, %g2
        mov     0, %g3
loop:   ld      [%g1 + %g3], %g4
        st      %g4, [%g2 + %g3]
        add     %g3, 4, %g3
        cmp     %g4, 0
        bne     loop
        halt
.data
src:    .word   1, 2, 3, 0
dst:    .word   0, 0, 0, 0
""")
    (load,) = bound.loads
    (store,) = bound.stores
    # The exit test is on loaded data, so the index is unbounded above:
    # interval separation fails and the residues are identical.
    assert bound.conflicts(load.index, store.index)


def test_pointer_load_address_conflicts_with_everything():
    bound = bound_of("""
.text
main:   set     head, %g1
        ld      [%g1], %g2
        ld      [%g2], %g3
        st      %g3, [%g2 + 4]
        halt
.data
head:   .word   head
""")
    chase = bound.loads[1]
    assert chase.form is None       # address came from memory
    (store,) = bound.stores
    assert store.form is None
    assert bound.conflicts(chase.index, store.index)


def test_summary_rows_shape():
    bound = bound_of("""
.text
main:   set     cell, %g1
        st      %g0, [%g1]
        ld      [%g1], %g2
        halt
.data
cell:   .word   7
""")
    rows = bound.summary_rows()
    assert len(rows) == 2
    for row in rows:
        assert len(row) == 8
        assert row[2] in ("load", "store")
        assert row[7] == 1          # each ref is in the single pair


def test_lint_program_attaches_bound():
    program = assemble("""
.text
main:   set     cell, %g1
        ld      [%g1], %g2
        halt
.data
cell:   .word   7
""")
    report = lint_program(program)
    assert report.analyses["memdep"] is not None
    assert len(report.analyses["memdep"].loads) == 1


# ----------------------------------------------------------------------
# Dynamic walk and cross-check.
# ----------------------------------------------------------------------

SAME_WORD = """
.text
main:   set     cell, %g1
        mov     5, %g2
        st      %g2, [%g1]
        ld      [%g1], %g3
        halt
.data
cell:   .word   0
"""


def test_trace_dependence_pairs_same_word():
    program = assemble(SAME_WORD)
    trace, _, _ = trace_program(program)
    pairs, loads, stores = trace_dependence_pairs(program, trace)
    assert loads == 1 and stores == 1
    (pair,) = pairs
    load_index, store_index = pair
    assert program.instructions[load_index].is_load
    assert program.instructions[store_index].is_store


def test_cross_check_green_on_same_word():
    program = assemble(SAME_WORD)
    bound = MemDepBound(program)
    trace, _, _ = trace_program(program)
    check = memdep_cross_check(bound, trace)
    assert check.ok
    assert check.dynamic_pairs == 1
    assert check.static_pairs >= check.dynamic_pairs


def test_cross_check_red_when_conflicts_suppressed():
    """Tampering with the conflict set must trip both obligations."""
    program = assemble(SAME_WORD)
    bound = MemDepBound(program)
    bound.conflict_pairs = set()
    trace, _, _ = trace_program(program)
    check = memdep_cross_check(bound, trace)
    assert not check.ok
    assert any("not in the static conflict set" in v
               for v in check.violations)
    assert any("static conflict pairs" in v for v in check.violations)


@pytest.mark.parametrize("name", ["compress", "li"])
def test_cross_check_green_on_workload_with_mdpt(name):
    program = get_workload(name).build(scale=SCALE)
    trace = cached_trace(name, SCALE)
    bound = lint_program(program).analyses["memdep"]
    result = simulate_trace(trace, paper_config("F", 8))
    check = memdep_cross_check(bound, trace, result)
    assert check.ok, check.violations
    assert check.static_pairs >= check.dynamic_pairs
    assert check.mdpt_pairs <= check.dynamic_pairs
