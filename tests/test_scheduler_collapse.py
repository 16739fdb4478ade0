"""Collapsing inside the timing model: timing effects, categories,
distances, signature tables and rule ablations."""

from helpers import sim

from repro.collapse import CollapseRules
from repro.trace.records import TraceBuilder

PAPER = CollapseRules.paper()


def serial_pair():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    return builder.build()


def test_pair_collapses_to_one_cycle():
    base = sim(serial_pair(), width=4)
    collapsed = sim(serial_pair(), width=4, collapse=PAPER)
    assert base.cycles == 2
    assert collapsed.cycles == 1
    assert collapsed.collapse.events == 1
    assert collapsed.collapse.collapsed == 2
    assert collapsed.collapse.collapsed_fraction == 1.0


def test_triple_chain_collapses_to_one_cycle():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    builder.add(dest=3, src1=2, imm=True)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.cycles == 1
    assert result.collapse.events == 2
    categories = result.collapse.category_counts
    assert categories["3-1"] == 1 and categories["4-1"] == 1


def test_chain_of_four_needs_two_cycles():
    """Group limit 3: the 4th link waits for the 3rd to complete."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    result = sim(builder.build(), width=8, collapse=PAPER)
    assert result.cycles == 2


def test_collapsed_consumer_inherits_producer_sources():
    """C collapses B; B depends on slow A -> C still waits for A."""
    builder = TraceBuilder()
    builder.load(dest=1, addr_reg=9, addr=0x40)   # A: latency 2
    builder.add(dest=2, src1=1, imm=True)         # B depends on A
    builder.add(dest=3, src1=2, imm=True)         # C collapses B
    result = sim(builder.build(), width=4, collapse=PAPER)
    # A@0 completes @2; B and C both @2 -> 3 cycles.
    assert result.cycles == 3
    assert result.collapse.events == 1


def test_load_address_generation_collapse():
    """shift -> load address: the classic shri-ldrr pair of Table 5."""
    builder = TraceBuilder()
    builder.shift(dest=1, src1=9)                        # shri
    builder.load(dest=2, addr_reg=1, addr=0x80)          # ld [r1]
    result = sim(builder.build(), width=4, collapse=PAPER)
    # Both issue @0 (cycles are issue-based; the load completes at 2).
    assert result.cycles == 1
    assert result.collapse.pair_signatures[("shri", "ldr")] == 1


def test_compare_branch_collapse():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.cycles == 1
    assert result.collapse.pair_signatures[("arri", "brc")] == 1


def test_store_data_dependence_not_collapsible():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.store(datasrc=1, addr_reg=8, addr=0x100)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 0
    assert result.cycles == 2


def test_store_address_dependence_collapsible():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.store(datasrc=8, addr_reg=1, addr=0x100)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 1
    assert result.cycles == 1


def test_load_result_never_collapses():
    """Loads are not collapsible producers."""
    builder = TraceBuilder()
    builder.load(dest=1, addr_reg=9, addr=0x40)
    builder.add(dest=2, src1=1, imm=True)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 0
    assert result.cycles == 3


def test_mul_and_div_never_collapse():
    builder = TraceBuilder()
    builder.mul(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    builder.div(dest=3, src1=2, imm=True)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 0


def test_issued_producer_cannot_collapse():
    """With window=1 the producer issues before the consumer enters."""
    trace = serial_pair()
    result = sim(trace, width=1, window=1, collapse=PAPER)
    assert result.collapse.events == 0
    assert result.cycles == 2


def test_nonconsecutive_collapse_and_distance():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: producer
    builder.move(dest=5, imm=True)              # 1: filler
    builder.move(dest=6, imm=True)              # 2: filler
    builder.add(dest=2, src1=1, imm=True)       # 3: consumer, distance 3
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 1
    assert result.collapse.distance_counts[3] == 1
    assert result.cycles == 1


def test_consecutive_only_rule_blocks_distant_pairs():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.move(dest=5, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    rules = CollapseRules.consecutive_only()
    result = sim(builder.build(), width=4, collapse=rules)
    assert result.collapse.events == 0
    adjacent = sim(serial_pair(), width=4, collapse=rules)
    assert adjacent.collapse.events == 1


def test_cross_block_rule():
    """A collapse across a branch is blocked by within_block_only."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: producer
    builder.cmp(src1=8, imm=True)               # 1
    builder.branch(taken=True)                  # 2: block boundary
    builder.add(dest=2, src1=1, imm=True)       # 3: consumer
    blocked = sim(builder.build(), width=8,
                  collapse=CollapseRules.within_block_only())
    open_rules = sim(builder.build(), width=8, collapse=PAPER)
    blocked_pairs = [k for k in blocked.collapse.pair_signatures
                     if k == ("arri", "arri")]
    open_pairs = [k for k in open_rules.collapse.pair_signatures
                  if k == ("arri", "arri")]
    assert not blocked_pairs
    assert open_pairs


def test_pairs_only_rule():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    builder.add(dest=3, src1=2, imm=True)
    result = sim(builder.build(), width=4,
                 collapse=CollapseRules.pairs_only())
    # B collapses A; C cannot join (group limit 2) but C can't collapse B
    # either (B's group is already size 2).
    assert result.collapse.events == 1
    assert result.cycles == 2


def test_double_use_counts_twice():
    """Rc = Rb + Rb after Rb = Ra + Rd -> 4-1."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, src2=10)
    builder.add(dest=2, src1=1, src2=1)
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.category_counts["4-1"] == 1
    assert result.cycles == 1


def test_triple_signature_recorded_in_order():
    builder = TraceBuilder()
    builder.shift(dest=1, src1=9)               # shri
    builder.add(dest=2, src1=1, src2=10)        # arrr
    builder.load(dest=3, addr_reg=2, addr=0x9)  # ldr
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.triple_signatures[("shri", "arrr", "ldr")] == 1


def test_one_producer_can_collapse_into_many_consumers():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # producer
    builder.add(dest=2, src1=1, imm=True)       # consumer 1
    builder.add(dest=3, src1=1, imm=True)       # consumer 2
    result = sim(builder.build(), width=4, collapse=PAPER)
    assert result.collapse.events == 2
    assert result.cycles == 1
    assert result.collapse.collapsed == 3


def test_collapse_does_not_change_instruction_count():
    from repro.trace.synth import random_trace
    trace = random_trace(300, seed=4)
    base = sim(trace, width=4)
    collapsed = sim(trace, width=4, collapse=PAPER)
    assert collapsed.instructions == base.instructions
    assert collapsed.cycles <= base.cycles
