"""Node-elimination extension tests (paper Figure 1.f)."""

from helpers import make_branch_result
from synth import TraceBuilder, random_trace

from repro.collapse import CollapseRules
from repro.core import MachineConfig, compute_sole_readers
from repro.core.scheduler import WindowScheduler

PAPER = CollapseRules.paper()


def run(trace, width=4, node_elimination=True, window=None):
    config = MachineConfig(width, window_size=window,
                           collapse_rules=PAPER,
                           node_elimination=node_elimination)
    scheduler = WindowScheduler(trace, config,
                                make_branch_result(trace))
    return scheduler.run()


# ----------------------------------------------------------- analysis

def test_sole_reader_simple_pair():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: read only by 1
    builder.add(dest=2, src1=1, imm=True)       # 1
    builder.add(dest=1, src1=9, imm=True)       # 2: kills r1's liveness
    readers = compute_sole_readers(builder.build())
    assert readers[0] == 1
    assert readers[1] == -1          # r2 live at end of trace
    assert readers[2] == -1          # also live at end


def test_sole_reader_two_readers():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=2, src1=1, imm=True)
    builder.add(dest=3, src1=1, imm=True)
    readers = compute_sole_readers(builder.build())
    assert readers[0] == -1


def test_sole_reader_double_use_same_reader():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, src2=10)
    builder.add(dest=2, src1=1, src2=1)         # reads twice, one reader
    builder.add(dest=1, src1=9, imm=True)       # overwrite kills liveness
    readers = compute_sole_readers(builder.build())
    assert readers[0] == 1


def test_sole_reader_requires_overwrite_before_end():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0
    builder.add(dest=2, src1=1, imm=True)       # 1: sole use
    builder.add(dest=1, src1=9, imm=True)       # 2: overwrites r1
    readers = compute_sole_readers(builder.build())
    assert readers[0] == 1


def test_sole_reader_cc_counts_as_reader():
    builder = TraceBuilder()
    builder.cmp(src1=9, imm=True)               # 0: writes cc only
    builder.branch(taken=True)                  # 1: reads cc
    builder.cmp(src1=9, imm=True)               # 2: overwrites cc
    builder.branch(taken=False)                 # 3
    readers = compute_sole_readers(builder.build())
    assert readers[0] == 1


def test_sole_reader_cc_and_register_must_agree():
    """An addcc whose register goes to one instruction and whose flags go
    to another is needed by both -> not eliminable."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True, writes_cc=True)    # 0
    builder.add(dest=2, src1=1, imm=True)                    # 1 reads r1
    builder.branch(taken=True)                               # 2 reads cc
    builder.add(dest=1, src1=9, imm=True, writes_cc=True)    # overwrite
    builder.branch(taken=True)
    builder.add(dest=3, src1=1, imm=True)
    readers = compute_sole_readers(builder.build())
    assert readers[0] == -1


def test_sole_reader_store_data_counts():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)           # 0
    builder.store(datasrc=1, addr_reg=8, addr=0x10)  # 1 reads r1 as data
    builder.add(dest=1, src1=9, imm=True)           # overwrite
    readers = compute_sole_readers(builder.build())
    assert readers[0] == 1


# ----------------------------------------------------------- timing

def chain_with_dead_producer():
    """p0 -> p1 where p0's value is only used by p1, then r1 reused."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: eliminable
    builder.add(dest=2, src1=1, imm=True)       # 1: collapses 0
    builder.add(dest=1, src1=9, imm=True)       # 2: overwrites r1
    builder.add(dest=3, src1=2, imm=True)       # 3
    return builder.build()


def test_eliminated_producer_frees_issue_slot():
    trace = chain_with_dead_producer()
    without = run(trace, width=1, window=8, node_elimination=False)
    with_elim = run(trace, width=1, window=8)
    assert with_elim.collapse.eliminated >= 1
    # Width 1: every surviving instruction costs one slot, so removing a
    # node saves at least a cycle.
    assert with_elim.cycles < without.cycles


def test_elimination_off_by_default():
    trace = chain_with_dead_producer()
    result = run(trace, node_elimination=False)
    assert result.collapse.eliminated == 0


def test_producer_with_second_reader_not_eliminated():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)       # 0: two readers
    builder.add(dest=2, src1=1, imm=True)       # 1 collapses 0
    builder.add(dest=3, src1=1, imm=True)       # 2 also reads r1
    builder.add(dest=1, src1=9, imm=True)
    result = run(builder.build())
    assert result.collapse.eliminated == 0


def test_store_keeping_data_register_blocks_elimination():
    """st %r1, [%r1]: the address arc collapses but the data arc still
    needs the producer, so it must not be eliminated."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)               # 0
    builder.store(datasrc=1, addr_reg=1, addr=0x40)     # 1: addr+data r1
    builder.add(dest=1, src1=9, imm=True)               # overwrite
    result = run(builder.build())
    assert result.collapse.eliminated == 0
    assert result.instructions == 3


def test_all_instructions_accounted_with_elimination():
    trace = random_trace(400, seed=6)
    result = run(trace, width=4)
    assert result.instructions == len(trace)
    # Simulation terminates and cycle count is sane.
    assert result.cycles > 0
    assert result.collapse.eliminated >= 0


def test_elimination_never_slows_down():
    for seed in range(5):
        trace = random_trace(300, seed=seed)
        without = run(trace, width=4, node_elimination=False)
        with_elim = run(trace, width=4)
        assert with_elim.cycles <= without.cycles


def test_config_requires_collapsing():
    import pytest
    from repro.errors import ConfigError
    with pytest.raises(ConfigError):
        MachineConfig(8, node_elimination=True)
