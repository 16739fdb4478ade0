"""Structural checks on the synthetic trace generators."""

from synth import (
    collapsible_pairs,
    dependent_chain,
    independent_stream,
    pointer_chase_loop,
    random_trace,
    strided_load_loop,
)

from repro.trace.records import LD, MV


def test_dependent_chain_length_and_structure():
    trace = dependent_chain(10)
    assert len(trace) == 10
    static = trace.static
    # Every instruction after the first reads register 1 and writes it.
    for s in trace.sidx[1:]:
        assert static.src1[s] == 1
        assert static.dest[s] == 1


def test_independent_stream_has_no_register_reads():
    trace = independent_stream(20)
    static = trace.static
    assert all(static.src1[s] == -1 for s in trace.sidx)
    assert all(static.cls[s] == MV for s in trace.sidx)


def test_strided_addresses_are_strided():
    trace = strided_load_loop(50, stride=8, base=0x1000)
    loads = [trace.eff_addr[i] for i, s in enumerate(trace.sidx)
             if trace.static.cls[s] == LD]
    assert len(loads) == 50
    deltas = {b - a for a, b in zip(loads, loads[1:])}
    assert deltas == {8}


def test_strided_loop_shares_static_body():
    trace = strided_load_loop(50)
    assert len(trace.static) == 5       # 2 moves + 3-instruction body


def test_pointer_chase_addresses_not_strided():
    trace = pointer_chase_loop(100, seed=3)
    loads = [trace.eff_addr[i] for i, s in enumerate(trace.sidx)
             if trace.static.cls[s] == LD]
    deltas = {b - a for a, b in zip(loads, loads[1:])}
    assert len(deltas) > 10             # effectively random walk


def test_pointer_chase_is_deterministic():
    a = pointer_chase_loop(50, seed=9)
    b = pointer_chase_loop(50, seed=9)
    assert a.eff_addr == b.eff_addr


def test_collapsible_pairs_structure():
    trace = collapsible_pairs(8)
    assert len(trace) == 16
    static = trace.static
    for i in range(0, 16, 2):
        first, second = trace.sidx[i], trace.sidx[i + 1]
        assert static.dest[first] == static.src1[second]


def test_random_trace_deterministic_and_sized():
    a = random_trace(100, seed=5)
    b = random_trace(100, seed=5)
    assert a.sidx == b.sidx and a.eff_addr == b.eff_addr
    # length = warmup moves + requested body
    assert len(a) >= 100


def test_random_trace_reads_are_always_preceded_by_writes():
    trace = random_trace(300, seed=11)
    static = trace.static
    written = set()
    for position, s in enumerate(trace.sidx):
        for src in (static.src1[s], static.src2[s], static.datasrc[s]):
            if src >= 0:
                assert src in written, \
                    "position %d reads unwritten register %d" % (position,
                                                                 src)
        if static.dest[s] >= 0:
            written.add(static.dest[s])
