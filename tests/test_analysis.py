"""Dependence-graph and dataflow-limit tests."""

from helpers import sim
from references import critical_path_members
from synth import (
    TraceBuilder,
    dependent_chain,
    independent_stream,
    random_trace,
)

from repro.analysis import DependenceGraph, collapsed_critical_path, \
    collapsed_depths, restructured_depths
from repro.analysis.depgraph import issue_cycles
from repro.collapse import CollapseRules
from repro.trace.records import LD

PAPER = CollapseRules.paper()


def test_chain_critical_path_equals_length():
    graph = DependenceGraph(dependent_chain(25))
    assert graph.critical_path() == 25


def test_independent_critical_path_is_one():
    graph = DependenceGraph(independent_stream(40))
    assert graph.critical_path() == 1
    assert not any(graph.preds)


def test_load_latency_on_path():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)          # 1 cycle
    builder.load(dest=2, addr_reg=1, addr=0x10)    # +2
    builder.add(dest=3, src1=2, imm=True)          # +1
    graph = DependenceGraph(builder.build())
    assert graph.critical_path() == 4


def test_memory_edges():
    builder = TraceBuilder()
    builder.store(datasrc=9, addr_reg=8, addr=0x10)
    builder.load(dest=1, addr_reg=8, addr=0x10)
    builder.load(dest=2, addr_reg=8, addr=0x20)
    graph = DependenceGraph(builder.build())
    assert ("mem" in {kind for _, kind in graph.preds[1]})
    assert graph.preds[2] == []


def test_cc_edges():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    graph = DependenceGraph(builder.build())
    assert graph.preds[1] == [(0, "cc")]


def test_store_data_edge_kind():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.store(datasrc=1, addr_reg=8, addr=0x10)
    graph = DependenceGraph(builder.build())
    assert (0, "data") in graph.preds[1]


def test_critical_path_members_is_a_real_path():
    trace = random_trace(200, seed=9)
    graph = DependenceGraph(trace)
    path = critical_path_members(graph)
    assert path == sorted(path)
    preds = graph.preds
    for earlier, later in zip(path, path[1:]):
        assert earlier in {p for p, _ in preds[later]}
    # Path length in cycles equals the critical path.
    lat = trace.static.lat
    total = sum(lat[trace.sidx[p]] for p in path)
    assert total == graph.critical_path()


def test_dataflow_limit_bounds_the_simulator():
    """No finite machine without collapsing beats the dataflow limit
    (compared on issue cycles, which is what the simulator reports)."""
    for seed in range(4):
        trace = random_trace(250, seed=seed)
        graph = DependenceGraph(trace)
        limit = issue_cycles(trace, graph.depths())
        result = sim(trace, width=2048)
        assert result.cycles >= limit
        assert limit <= graph.critical_path()


def test_wide_machine_approaches_dataflow_limit():
    """With perfect branches, a huge window and no collapsing, the
    simulator should achieve exactly the critical path on a trace with
    no branches."""
    builder = TraceBuilder()
    for i in range(30):
        builder.add(dest=1 + (i % 3), src1=1 + ((i + 1) % 3), imm=True)
    trace = builder.build()
    limit = DependenceGraph(trace).critical_path()
    result = sim(trace, width=2048)
    assert result.cycles == limit


def test_collapsed_critical_path_shorter_on_chains():
    trace = dependent_chain(30)
    plain = DependenceGraph(trace).critical_path()
    collapsed = collapsed_critical_path(trace, PAPER)
    assert collapsed < plain
    assert collapsed >= plain / 3 - 1     # at most 3-wide groups


def test_collapsed_critical_path_never_longer():
    for seed in range(4):
        trace = random_trace(250, seed=seed)
        plain = DependenceGraph(trace).critical_path()
        collapsed = collapsed_critical_path(trace, PAPER)
        assert collapsed <= plain


def test_empty_trace():
    graph = DependenceGraph(TraceBuilder().build())
    assert graph.critical_path() == 0
    assert critical_path_members(graph) == []


def test_depths_memoized():
    graph = DependenceGraph(random_trace(120, seed=7))
    assert graph.depths() is graph.depths()


def test_cut_addr_loads_removes_address_edges():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.load(dest=2, addr_reg=1, addr=0x10)
    builder.add(dest=3, src1=2, imm=True)
    trace = builder.build()
    lat = [trace.static.lat[s] for s in trace.sidx]
    plain = restructured_depths(trace)
    cut = restructured_depths(trace, cut_addr_loads={trace.sidx[1]})
    assert max(cut) < max(plain)
    # The load no longer waits for its address; its consumer still
    # waits for the load.
    assert cut == [lat[0], lat[1], lat[1] + lat[2]]


def test_restructured_matches_plain_without_options():
    for seed in range(4):
        trace = random_trace(200, seed=seed, load_frac=0.3)
        assert tuple(restructured_depths(trace)) \
            == tuple(DependenceGraph(trace).depths())


def test_restructured_contraction_pointwise_below_plain():
    for seed in range(4):
        trace = random_trace(200, seed=seed, load_frac=0.3)
        plain = DependenceGraph(trace).depths()
        contracted = restructured_depths(trace, collapse=True)
        assert all(c <= p for c, p in zip(contracted, plain))


def test_restructured_cut_ordering():
    """Cutting more address arcs can only lower every depth."""
    for seed in range(4):
        trace = random_trace(250, seed=seed, load_frac=0.4)
        loads = {s for i, s in enumerate(trace.sidx)
                 if trace.static.cls[s] == LD}
        some = set(sorted(loads)[: len(loads) // 2])
        uncut = restructured_depths(trace, collapse=True)
        part = restructured_depths(trace, collapse=True,
                                   cut_addr_loads=some)
        full = restructured_depths(trace, collapse=True,
                                   cut_all_loads=True)
        assert all(f <= p <= u for f, p, u in zip(full, part, uncut))


def test_restructured_contraction_bounds_collapsed_estimate():
    """Free contraction is a floor under the greedy group estimate."""
    for seed in range(4):
        trace = random_trace(250, seed=seed, load_frac=0.3)
        free = restructured_depths(trace, collapse=True)
        greedy = collapsed_depths(trace, PAPER)
        assert all(f <= g for f, g in zip(free, greedy))
