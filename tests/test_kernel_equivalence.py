"""Reference-vs-kernel equivalence matrix.

Every vectorized pass must be byte-identical to the scalar reference
loop it reproduces on real workload traces — not approximately equal:
the exhibits (EXPERIMENTS.md tables, lint cross-checks) come from the
vectorized passes, and the references spell out the paper's
per-instruction semantics.  The matrix runs all 7 suite workloads at
two scales, plus four edge traces, against every pair:

- dependence depths, plain (``DependenceGraph._walk_depths``) and all
  restructured variants (``depgraph._walk_restructured``);
- the vectorized branch predictors (combining, bimodal, local) against
  an explicit default-parameter instance;
- the two-delta address sweep, including per-PC histograms, against an
  explicit ``TwoDeltaTable``;
- every value-predictor sweep against an explicit default table;
- sole-reader (node elimination) precomputation
  (``elimination._walk_sole_readers``);
- the issue-count distribution of a simulated schedule
  (``means._count_distribution``).

The configuration F-J cells simulate once with the reference passes
handed to the scheduler and once with the default (vectorized) passes;
the full result payloads must agree.
"""

import pytest

from repro.addrpred import TwoDeltaTable
from repro.addrpred.runner import run_address_predictor
from repro.analysis.depgraph import (
    DependenceGraph,
    _walk_restructured,
    restructured_depths,
)
from repro.bpred.runner import make_branch_predictor, run_branch_predictor
from repro.core import simulate_trace
from repro.core.config import MachineConfig, paper_config
from repro.core.elimination import _walk_sole_readers, compute_sole_readers
from repro.metrics.means import _count_distribution, issue_distribution
from repro.trace.records import TraceBuilder
from repro.trace.synth import (
    dependent_chain,
    independent_stream,
    strided_load_loop,
)
from repro.vpred.runner import (
    PREDICTORS,
    make_value_table,
    run_value_predictor,
)
from repro.workloads import EXTRAS, SUITE, cached_trace

#: all 7 registered workloads: the Table 1 suite plus the extras
ALL = SUITE + EXTRAS
SCALES = (0.03, 0.05)

_MATRIX = [(workload.name, scale) for workload in ALL
           for scale in SCALES]

#: corners real workloads never reach: no instructions, no branches or
#: loads, no branches, a single instruction
EDGE_TRACES = {
    "empty": lambda: TraceBuilder(name="empty").build(),
    "chain": lambda: dependent_chain(20),
    "strided": lambda: strided_load_loop(20),
    "single": lambda: independent_stream(1),
}


def _assert_depths_identical(trace):
    for collapse in (False, True):
        for cut in (False, True):
            reference = _walk_restructured(trace, collapse=collapse,
                                           cut_all_loads=cut)
            kernel = restructured_depths(trace, collapse=collapse,
                                         cut_all_loads=cut)
            assert reference == kernel, (collapse, cut)
    assert tuple(DependenceGraph(trace)._walk_depths()) \
        == DependenceGraph(trace).depths()


def _assert_stats_identical(reference, kernel, what):
    assert list(reference) == list(kernel), what
    for pc, stat in reference.items():
        other = kernel[pc]
        for field in stat.__slots__:
            assert getattr(stat, field) == getattr(other, field), \
                (what, hex(pc), field)


def _assert_load_passes_identical(reference, kernel, what):
    for field in ("loads", "would_correct", "first_misses",
                  "warm_would_correct", "attempted", "correct"):
        assert getattr(reference, field) == getattr(kernel, field), \
            (what, field)
    assert list(reference.attempted) == list(kernel.attempted), what
    _assert_stats_identical(reference.per_pc, kernel.per_pc, what)


def _assert_predictors_identical(trace):
    for kind in ("combining", "bimodal", "local"):
        reference = run_branch_predictor(
            trace, make_branch_predictor(kind), per_pc=True)
        kernel = run_branch_predictor(trace, kind, per_pc=True)
        assert reference.mispredicted == kernel.mispredicted, kind
        assert list(reference.mispredicted) \
            == list(kernel.mispredicted), kind
        for field in ("conditional", "correct", "trace_length",
                      "confident", "confident_correct"):
            assert getattr(reference, field) == getattr(kernel, field), \
                (kind, field)
        _assert_stats_identical(reference.per_pc, kernel.per_pc, kind)

    _assert_load_passes_identical(
        run_address_predictor(trace, TwoDeltaTable(), per_pc=True),
        run_address_predictor(trace, per_pc=True), "address")

    for kind in PREDICTORS:
        _assert_load_passes_identical(
            run_value_predictor(trace, make_value_table(kind),
                                predictor=kind, per_pc=True),
            run_value_predictor(trace, predictor=kind, per_pc=True), kind)


def _assert_accounting_identical(trace):
    assert _walk_sole_readers(trace) == compute_sole_readers(trace)
    result = simulate_trace(trace,
                            MachineConfig(issue_width=8, window_size=64))
    reference = _count_distribution(result)
    kernel = issue_distribution(result)
    assert reference == kernel
    assert list(reference) == list(kernel)


@pytest.mark.parametrize("name,scale", _MATRIX)
def test_depth_kernels_identical(name, scale):
    _assert_depths_identical(cached_trace(name, scale))


@pytest.mark.parametrize("name,scale", _MATRIX)
def test_predictor_sweeps_identical(name, scale):
    _assert_predictors_identical(cached_trace(name, scale))


@pytest.mark.parametrize("name", [workload.name for workload in ALL])
def test_core_accounting_identical(name):
    _assert_accounting_identical(cached_trace(name, 0.03))


@pytest.mark.parametrize("edge", sorted(EDGE_TRACES))
def test_edge_traces_identical(edge):
    trace = EDGE_TRACES[edge]()
    _assert_depths_identical(trace)
    _assert_predictors_identical(trace)
    _assert_accounting_identical(trace)


def _reference_payload(trace, config, **plans):
    """``simulate_trace`` payload with every predictor pass run by its
    scalar reference (a config ignores the passes it does not use; I and
    J speculate on the stride value predictor)."""
    return simulate_trace(
        trace, config,
        branch_result=run_branch_predictor(trace, make_branch_predictor()),
        load_prediction=run_address_predictor(trace, TwoDeltaTable()),
        value_prediction=run_value_predictor(
            trace, make_value_table("stride"), predictor="stride"),
        **plans).to_payload()


@pytest.mark.parametrize("name", [workload.name for workload in ALL])
@pytest.mark.parametrize("letter", ["F", "G"])
def test_mdpt_cells_identical(name, letter):
    """The realistic-disambiguation configs run the predictor passes
    upstream of the scheduler; the full result payload — cycles, load
    categories, collapse stats, MDPT violation pairs — must not depend
    on which implementation ran them."""
    trace = cached_trace(name, 0.03)
    config = paper_config(letter, 8)
    payload = simulate_trace(trace, config).to_payload()
    assert _reference_payload(trace, config) == payload
    memdep = payload.get("memdep")
    assert memdep is not None
    assert memdep["loads"] > 0


@pytest.mark.parametrize("name", [workload.name for workload in ALL])
def test_value_spec_cells_identical(name):
    """Configuration I runs the stride value sweep upstream of the
    scheduler; the full result payload — cycles, squash/replay counts,
    collapse stats — must equal the one the reference table feeds."""
    trace = cached_trace(name, 0.03)
    config = paper_config("I", 8)
    payload = simulate_trace(trace, config).to_payload()
    assert _reference_payload(trace, config) == payload
    vspec = payload.get("value_spec")
    assert vspec is not None
    assert vspec["replays"] == vspec["squashes"]


@pytest.mark.parametrize("name", [workload.name for workload in ALL])
def test_branch_spec_cells_identical(name):
    """Configuration J threads a lint-derived branch plan into the
    scheduler on top of config I's value-speculation pass; the full
    result payload — cycles, exit-branch waive counts, squash stats —
    must equal the one the reference passes feed."""
    from repro.workloads import cached_branch_plan
    trace = cached_trace(name, 0.03)
    config = paper_config("J", 8)
    plan = cached_branch_plan(name, 0.03)
    payload = simulate_trace(trace, config, branch_plan=plan).to_payload()
    assert _reference_payload(trace, config, branch_plan=plan) == payload
    bspec = payload.get("branch_spec")
    assert bspec is not None
    if not plan.resolves:
        # An empty plan keeps the mechanism armed but idle.
        assert bspec["exit_branches"] == 0


@pytest.mark.parametrize("name", [workload.name for workload in ALL])
def test_dae_cells_identical(name):
    """Configuration H threads a lint-derived DAE plan into the
    scheduler; queue accounting and timing must equal the run the
    reference passes feed (the plan itself is pure-python and shared)."""
    from repro.workloads import cached_dae_plan
    trace = cached_trace(name, 0.03)
    config = paper_config("H", 8)
    plan = cached_dae_plan(name, 0.03)
    payload = simulate_trace(trace, config, dae_plan=plan).to_payload()
    assert _reference_payload(trace, config, dae_plan=plan) == payload
    assert "dae" in payload
