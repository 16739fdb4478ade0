"""Trace container and builder tests."""

from synth import TraceBuilder

from repro.asm import assemble
from repro.emu import trace_program
from repro.trace.records import AR, BRC, LD, ST, StaticTable


def test_static_table_from_program_classes():
    program = assemble("""
        .text
main:   mov 1, %l0
        add %l0, 2, %l1
        sll %l1, 3, %l2
        ld [%l2 + 4], %l3
        st %l3, [%l2]
        cmp %l3, 0
        be main
        halt
    """)
    table = StaticTable.from_program(program)
    assert table.sig[0] == "mvi"
    assert table.sig[1] == "arri"
    assert table.sig[2] == "shri"
    assert table.sig[3] == "ldri"
    assert table.sig[4] == "str0"
    assert table.sig[5] == "arr0"
    assert table.sig[6] == "brc"


def test_static_table_store_data_source_split():
    program = assemble(".text\nmain: st %l3, [%l2 + 4]\nhalt")
    table = StaticTable.from_program(program)
    assert table.dest[0] == -1
    assert table.datasrc[0] == 19
    assert table.src1[0] == 18


def test_static_table_cc_flags():
    program = assemble(".text\nmain: cmp %l0, 1\nbe main\nhalt")
    table = StaticTable.from_program(program)
    assert table.writes_cc[0] and not table.reads_cc[0]
    assert table.reads_cc[1] and not table.writes_cc[1]


def test_static_table_latencies():
    program = assemble("""
        .text
main:   ld [%l0], %l1
        smul %l1, 2, %l2
        udiv %l2, 3, %l3
        add %l3, 1, %l4
        halt
    """)
    table = StaticTable.from_program(program)
    assert table.lat[0] == 2
    assert table.lat[1] == 2
    assert table.lat[2] == 12
    assert table.lat[3] == 1


def test_static_table_jmpl_dependence():
    program = assemble(".text\nmain: ret\nhalt")
    table = StaticTable.from_program(program)
    assert table.src1[0] == 15       # jmpl reads %o7


def test_builder_positions_and_classes():
    builder = TraceBuilder()
    a = builder.add(dest=1, src1=2, imm=True)
    b = builder.load(dest=3, addr_reg=1, addr=0x100)
    c = builder.store(datasrc=3, addr_reg=1, addr=0x104)
    d = builder.cmp(src1=3, imm=True)
    e = builder.branch(taken=True)
    trace = builder.build()
    assert [a, b, c, d, e] == [0, 1, 2, 3, 4]
    assert [trace.static.cls[s] for s in trace.sidx] == [AR, LD, ST, AR, BRC]
    assert trace.eff_addr[1] == 0x100
    assert trace.taken[4] is True


def test_builder_signature_and_leaves():
    builder = TraceBuilder()
    builder.add(dest=1, src1=2, src2=3)
    builder.add(dest=1, src1=2, imm=True)
    builder.move(dest=1, imm=True)
    builder.cmp(src1=1, imm=True)
    trace = builder.build()
    static = trace.static
    assert static.sig[0] == "arrr" and static.leaves[0] == 2
    assert static.sig[1] == "arri" and static.leaves[1] == 2
    assert static.sig[2] == "mvi" and static.leaves[2] == 1
    assert static.writes_cc[3]


def test_builder_repeat_shares_static_entry():
    builder = TraceBuilder()
    load = builder.load(dest=1, addr_reg=1, addr=0x10)
    builder.repeat(load, eff_addr=0x20)
    builder.repeat(load, eff_addr=0x30)
    trace = builder.build()
    assert len(trace) == 3
    assert len(trace.static) == 1
    assert trace.sidx == [0, 0, 0]
    assert trace.eff_addr == [0x10, 0x20, 0x30]


def test_trace_from_emulated_loop_uses_shared_static_entries():
    program = assemble("""
        .text
main:   mov 0, %l0
loop:   inc %l0
        cmp %l0, 4
        bl loop
        halt
    """)
    trace, _, _ = trace_program(program)
    # 1 mov + 4 * (inc, cmp, bl) = 13 dynamic instructions
    assert len(trace) == 13
    # But only 4 distinct static instructions appear.
    assert len(set(trace.sidx)) == 4
