"""Scheduler edge cases: extreme widths, tiny traces, odd shapes."""

from helpers import sim
from synth import (
    TraceBuilder,
    dependent_chain,
    independent_stream,
    random_trace,
)

from repro.collapse import CollapseRules

PAPER = CollapseRules.paper()


def test_width_2048_tiny_trace():
    result = sim(independent_stream(10), width=2048)
    assert result.cycles == 1
    assert result.ipc == 10.0


def test_width_2048_serial_chain():
    result = sim(dependent_chain(64), width=2048, collapse=PAPER)
    # Triples collapse: ~3 chain links per cycle.
    assert result.cycles <= 64 // 3 + 2


def test_window_larger_than_trace():
    result = sim(independent_stream(5), width=4, window=4096)
    assert result.cycles == 2


def test_trace_of_only_branches():
    builder = TraceBuilder()
    for i in range(10):
        builder.cmp(src1=1, imm=True)
        builder.branch(taken=i % 2 == 0)
    result = sim(builder.build(), width=8)
    assert result.instructions == 20
    assert result.cycles >= 2


def test_every_branch_mispredicted():
    builder = TraceBuilder()
    positions = []
    for i in range(6):
        builder.cmp(src1=1, imm=True)
        positions.append(builder.branch(taken=True))
    result = sim(builder.build(), width=8, mispredicted=positions)
    # Each cmp+branch pair serialises behind the previous branch:
    # cmp@k, br@k+1 pattern -> 2 cycles per pair.
    assert result.cycles == 12


def test_divide_chain():
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    for _ in range(4):
        builder.div(dest=1, src1=1, imm=True)
    result = sim(builder.build(), width=4)
    # mov@0; divides issue @1, @13, @25, @37 (12-cycle latency chain);
    # cycles are issue-based: 37 + 1 = 38.
    assert result.cycles == 38


def test_stores_and_loads_interleave_same_word():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)             # 0
    builder.store(datasrc=1, addr_reg=8, addr=0x10)   # 1
    builder.load(dest=2, addr_reg=8, addr=0x10)       # 2 waits store
    builder.store(datasrc=2, addr_reg=8, addr=0x10)   # 3 waits load data
    builder.load(dest=3, addr_reg=8, addr=0x10)       # 4 waits store 3
    result = sim(builder.build(), width=8)
    # add@0, st@1, ld@2 (completes 4), st@4, ld@5 -> 6 cycles.
    assert result.cycles == 6


def test_load_depends_on_latest_store_only():
    builder = TraceBuilder()
    builder.store(datasrc=9, addr_reg=8, addr=0x10)   # 0: ready store
    builder.add(dest=1, src1=9, imm=True)             # 1: slow chain
    builder.add(dest=1, src1=1, imm=True)             # 2
    builder.store(datasrc=1, addr_reg=8, addr=0x20)   # 3: other word
    builder.load(dest=2, addr_reg=8, addr=0x10)       # 4: depends on 0
    result = sim(builder.build(), width=8)
    # Load waits only for store 0 (completes @1): issues @1.
    # Critical path: adds @0,1; store3 @2 -> 3 cycles.
    assert result.cycles == 3


def test_collapse_with_window_one_wide_trace():
    """Degenerate windows never crash and never collapse."""
    trace = random_trace(100, seed=3)
    result = sim(trace, width=1, window=1, collapse=PAPER)
    assert result.collapse.events == 0
    assert result.instructions == len(trace)


def test_cc_overwritten_between_compare_and_branch():
    """Only the latest CC writer feeds the branch."""
    builder = TraceBuilder()
    builder.load(dest=1, addr_reg=9, addr=0x40)       # 0: slow
    builder.alu(0, dest=2, src1=1, imm=True, writes_cc=True)  # 1: slow cc
    builder.cmp(src1=9, imm=True)                     # 2: fast cc
    builder.branch(taken=True)                        # 3: reads cc of 2
    result = sim(builder.build(), width=8)
    # Branch waits only on instruction 2's flags: ld@0 and cmp@0, br@1,
    # alu@2 (when the load completes).  Last issue @2 -> 3 cycles; the
    # branch did NOT wait for the slow flag-writer at position 1.
    assert result.cycles == 3


def test_instruction_depending_on_itself_register_reuse():
    """dest == src is a dependence on the *previous* writer, not itself."""
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    result = sim(builder.build(), width=4)
    assert result.cycles == 3


def test_first_instruction_reads_unwritten_register():
    """Reads with no prior writer are free (architectural state)."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=30, src2=31)
    result = sim(builder.build(), width=4)
    assert result.cycles == 1
