"""Base-machine timing tests with hand-computed cycle counts.

Every scenario here was worked out on paper against the model in
DESIGN.md Section 4: issue width W per cycle, oldest-ready-first, window
kept full, latencies 1 (ALU) / 2 (load, mul) / 12 (div).
"""

from helpers import sim
from synth import (
    TraceBuilder,
    dependent_chain,
    independent_stream,
    random_trace,
)



def test_empty_trace():
    result = sim(TraceBuilder().build(), width=4)
    assert result.cycles == 0
    assert result.ipc == 0.0


def test_single_instruction():
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    result = sim(builder.build(), width=4)
    assert result.cycles == 1
    assert result.ipc == 1.0


def test_independent_limited_by_width():
    # 12 independent moves at width 4: exactly 3 cycles.
    result = sim(independent_stream(12), width=4)
    assert result.cycles == 3
    assert result.ipc == 4.0


def test_chain_limited_by_latency():
    # A serial chain of N single-cycle ops takes N cycles at any width.
    result = sim(dependent_chain(20), width=8)
    assert result.cycles == 20
    assert result.ipc == 1.0


def test_load_use_latency():
    """add r1; ld [r1] -> r2; add r2: issues at 0, 1, 3 -> 4 cycles."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=2, imm=True)
    builder.load(dest=3, addr_reg=1, addr=0x100)
    builder.add(dest=4, src1=3, imm=True)
    result = sim(builder.build(), width=4)
    assert result.cycles == 4


def test_divide_latency():
    """mov@0; div@1 (completes 13); add@13 -> 14 cycles."""
    builder = TraceBuilder()
    builder.move(dest=2, imm=True)
    builder.div(dest=1, src1=2, imm=True)
    builder.add(dest=3, src1=1, imm=True)
    result = sim(builder.build(), width=4)
    assert result.cycles == 14


def test_multiply_latency():
    builder = TraceBuilder()
    builder.move(dest=2, imm=True)
    builder.mul(dest=1, src1=2, imm=True)
    builder.add(dest=3, src1=1, imm=True)
    # mov@0, mul@1 (mov completes at 1), add@3 (mul completes at 3).
    result = sim(builder.build(), width=4)
    assert result.cycles == 4


def test_window_limits_lookahead():
    """window=2: A->B chain then independent C, D.

    Window starts {A, B}.  A@0; C enters at 1.  B@1 (A completes at 1)
    and C@1; D enters at 2, issues at 2.  3 cycles total.
    """
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)      # A
    builder.add(dest=2, src1=1, imm=True)      # B depends on A
    builder.move(dest=3, imm=True)             # C independent
    builder.move(dest=4, imm=True)             # D independent
    result = sim(builder.build(), width=2, window=2)
    assert result.cycles == 3


def test_wide_window_exploits_distant_parallelism():
    # Same trace with the default window (2x width) finishes in 2 cycles:
    # A, C @0; B, D @1.
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    builder.move(dest=3, imm=True)
    builder.move(dest=4, imm=True)
    result = sim(builder.build(), width=2)
    assert result.cycles == 2


def test_oldest_first_priority():
    """Three ready instructions at width 2: the two oldest go first."""
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    builder.move(dest=2, imm=True)
    builder.move(dest=3, imm=True)
    builder.add(dest=4, src1=3, imm=True)   # depends on the youngest move
    result = sim(builder.build(), width=2, window=8)
    # moves @0: dest1, dest2; @1: dest3; add @2.
    assert result.cycles == 3


def test_store_to_load_dependence_same_word():
    """A load after a store to the same word waits for the store."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)                 # slow producer
    builder.store(datasrc=1, addr_reg=8, addr=0x100)      # st waits data
    builder.load(dest=2, addr_reg=8, addr=0x100)          # same address
    result = sim(builder.build(), width=4)
    # add@0, st@1, ld@2 (store completes at 2) -> 3 cycles.
    assert result.cycles == 3


def test_loads_to_different_words_do_not_conflict():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.store(datasrc=1, addr_reg=8, addr=0x100)
    builder.load(dest=2, addr_reg=8, addr=0x200)          # disjoint word
    result = sim(builder.build(), width=4)
    # add@0 with ld@0; st@1 -> 2 cycles.
    assert result.cycles == 2


def test_cc_dependence_serialises_cmp_branch():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    result = sim(builder.build(), width=4)
    assert result.cycles == 2


def test_store_data_dependence():
    """Store waits for its data register even with address ready."""
    builder = TraceBuilder()
    builder.load(dest=1, addr_reg=9, addr=0x50)   # data producer, lat 2
    builder.store(datasrc=1, addr_reg=8, addr=0x100)
    result = sim(builder.build(), width=4)
    # ld@0 completes at 2; st@2 -> 3 cycles.
    assert result.cycles == 3


def test_ipc_and_speedup_accessors():
    a = sim(independent_stream(16), width=2)
    b = sim(independent_stream(16), width=4)
    assert a.ipc == 2.0 and b.ipc == 4.0
    assert b.speedup_over(a) == 2.0


def test_speedup_requires_same_trace():
    import pytest
    a = sim(independent_stream(8), width=2)
    different = independent_stream(8)
    different.name = "other"
    b = sim(different, width=2)
    with pytest.raises(ValueError):
        b.speedup_over(a)


def test_all_instructions_issue_exactly_once():
    trace = random_trace(400, seed=2)
    result = sim(trace, width=4)
    assert result.instructions == len(trace)
    # IPC can never exceed the width.
    assert result.ipc <= 4.0 + 1e-9
