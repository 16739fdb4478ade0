"""Property-based invariants of the timing model (hypothesis).

These pin down relationships that must hold for *any* well-formed trace:
monotonicity in width and window, bounds on IPC, configuration ordering
(collapsing and speculation can only help or leave timing unchanged), and
conservation of instruction counts.
"""

from helpers import sim
from synth import random_trace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collapse import CollapseRules
from repro.core import paper_config, simulate_many

PAPER = CollapseRules.paper()

trace_params = st.tuples(
    st.integers(min_value=1, max_value=120),    # length
    st.integers(min_value=0, max_value=10_000), # seed
    st.floats(min_value=0.0, max_value=0.4),    # load fraction
    st.floats(min_value=0.0, max_value=0.3),    # branch fraction
)


def make_trace(params):
    length, seed, load_frac, branch_frac = params
    return random_trace(length, seed=seed, load_frac=load_frac,
                        branch_frac=branch_frac)


@settings(max_examples=40, deadline=None)
@given(trace_params, st.sampled_from([1, 2, 4, 8]))
def test_ipc_bounded_by_width_and_positive(params, width):
    trace = make_trace(params)
    result = sim(trace, width=width)
    assert 0 < result.ipc <= width + 1e-9
    assert result.cycles >= (len(trace) + width - 1) // width


@settings(max_examples=30, deadline=None)
@given(trace_params)
def test_wider_machine_never_slower(params):
    trace = make_trace(params)
    narrow = sim(trace, width=2)
    wide = sim(trace, width=8)
    assert wide.cycles <= narrow.cycles


@settings(max_examples=30, deadline=None)
@given(trace_params)
def test_bigger_window_never_slower_without_collapsing(params):
    """With collapsing off, a larger window only exposes more parallelism.

    (With collapsing on, window size changes *which* pairs co-reside, so
    strict monotonicity is not guaranteed — matching the paper's model.)
    """
    trace = make_trace(params)
    small = sim(trace, width=4, window=4)
    large = sim(trace, width=4, window=32)
    assert large.cycles <= small.cycles


@settings(max_examples=30, deadline=None)
@given(trace_params)
def test_collapsing_rarely_slows_and_never_much(params):
    """Collapsing makes every instruction ready no later, but greedy
    oldest-first issue is not optimal: an older instruction made ready
    earlier can steal a width slot from a younger one and cascade a
    small delay.  The property that *does* hold is near-monotonicity.
    """
    trace = make_trace(params)
    base = sim(trace, width=4)
    collapsed = sim(trace, width=4, collapse=PAPER)
    slack = max(2, base.cycles // 50)
    assert collapsed.cycles <= base.cycles + slack


@settings(max_examples=30, deadline=None)
@given(trace_params)
def test_serial_issue_matches_trace_length(params):
    """A width-1, window-1 machine issues exactly one instruction per
    cycle when every latency is 1... in general it needs at least N
    cycles and exactly N when no latency gaps exist."""
    trace = make_trace(params)
    result = sim(trace, width=1, window=1)
    assert result.cycles >= len(trace)


@settings(max_examples=25, deadline=None)
@given(trace_params)
def test_config_e_at_least_as_fast_as_a(params):
    """Same greedy-scheduling caveat as collapsing: tiny regressions are
    possible, large ones are a bug."""
    trace = make_trace(params)
    a, e = simulate_many(trace, [paper_config("A", 8), paper_config("E", 8)])
    slack = max(2, a.cycles // 50)
    assert e.cycles <= a.cycles + slack


@settings(max_examples=25, deadline=None)
@given(trace_params)
def test_collapse_accounting_consistent(params):
    trace = make_trace(params)
    result = sim(trace, width=8, collapse=PAPER)
    stats = result.collapse
    assert sum(stats.category_counts.values()) == stats.events
    assert sum(stats.distance_counts.values()) == stats.events
    assert stats.collapsed <= len(trace)
    assert 0.0 <= stats.collapsed_fraction <= 1.0
    # Pair + triple(+) signature events never exceed total events.
    recorded = (sum(stats.pair_signatures.values())
                + sum(stats.triple_signatures.values()))
    assert recorded == stats.events


@settings(max_examples=25, deadline=None)
@given(trace_params)
def test_load_categories_complete(params):
    from repro.core import simulate_trace
    trace = make_trace(params)
    result = simulate_trace(trace, paper_config("D", 4))
    loads = sum(1 for s in trace.sidx if trace.static.cls[s] == 4)
    assert result.loads.total == loads


@settings(max_examples=20, deadline=None)
@given(trace_params)
def test_determinism(params):
    trace = make_trace(params)
    first = sim(trace, width=4, collapse=PAPER, load_spec="ideal")
    second = sim(trace, width=4, collapse=PAPER, load_spec="ideal")
    assert first.cycles == second.cycles
    assert first.collapse.events == second.collapse.events
