"""Differential test of the producers an MDPT squash replays against.

``MemorySpeculation`` keeps no per-instruction producer record: at a
squash it rebuilds each member's timing producers from the trace's last
writers, the producers merged into it and the store it synchronized
with (``MemorySpeculation._producers``).  Here the record it replaced
rides along as a reference: ``reference_entered`` computes, at window
entry, exactly what the scheduler used to store for every position, and
every rebuild (each squashed member, and each merged producer an
instruction entering while anything is tainted folds in) must equal it.

The machines are F, G, G with node elimination and MDPT machines with
ideal or real load speculation, with and without collapsing and
elimination: together they reach every entry-time input the record
read (merged producers, eliminated ones, dropped address arcs and
synchronized loads).
"""

from contextlib import contextmanager
from unittest import mock

from helpers import make_branch_result, prediction_pass, programs

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.collapse import CollapseRules
from repro.core import MachineConfig
from repro.core.components import _KIND_ADDR, MemorySpeculation
from repro.core.config import MEM_SPEC_MDPT, paper_config
from repro.core.simulator import (
    branch_outcomes,
    load_outcomes,
    simulate_trace,
)
from repro.workloads.registry import cached_trace

#: (label, collapse, node elimination, load speculation)
MACHINES = [
    ("F", False, False, "none"),
    ("G", True, False, "none"),
    ("G+elim", True, True, "none"),
] + [("%s+lspec-%s" % (base, spec), collapse, elim, spec)
     for base, collapse, elim in (("F", False, False), ("G", True, False),
                                  ("G+elim", True, True))
     for spec in ("ideal", "real")]


def machine(width, collapse, elim, load_spec):
    return MachineConfig(
        width, collapse_rules=CollapseRules.paper() if collapse else None,
        node_elimination=elim, load_spec=load_spec,
        mem_spec=MEM_SPEC_MDPT)


def reference_entered(entered):
    """``entered`` that first records ``i``'s timing producers as the
    scheduler used to: its pending producers, its issued producers
    other than merged ones, and each merged producer's own record; no
    address producer once the address arcs were dropped."""
    def hook(self, i, s, cls, arcs, pending, merged, addr_dropped, now):
        record = self.__dict__.setdefault("reference", {})
        tracked = []
        folded = ()
        if merged is not None:
            folded = {p for p, _kind in merged}
            tracked = [(q, kind) for p, kind in merged
                       for q in record[p]]
        tracked += [(p, kind) for p, kind, _c, _u in arcs
                    if self.issue_cycle[p] >= 0 and p not in folded]
        rec = {p for p, _kind in pending}
        rec.update(p for p, kind in tracked
                   if not (addr_dropped and kind == _KIND_ADDR))
        record[i] = rec
        return entered(self, i, s, cls, arcs, pending, merged,
                       addr_dropped, now)
    return hook


@contextmanager
def checked_rebuilds():
    """Patch ``MemorySpeculation`` so every rebuild is compared with the
    reference record; yields the list of positions checked."""
    checked = []
    rebuild = MemorySpeculation._producers

    def producers(self, p):
        rebuilt = rebuild(self, p)
        assert rebuilt == self.reference[p], \
            "position %d: rebuilt %s, recorded %s" % (
                p, sorted(rebuilt), sorted(self.reference[p]))
        checked.append(p)
        return rebuilt

    with mock.patch.object(MemorySpeculation, "entered",
                           reference_entered(MemorySpeculation.entered)), \
            mock.patch.object(MemorySpeculation, "_producers", producers):
        yield checked


def run(trace, config, mispredicted=(), outcomes=None):
    load_prediction = prediction_pass(outcomes or {}) \
        if config.load_spec == "real" else None
    return simulate_trace(trace, config,
                          branch_result=make_branch_result(trace,
                                                           mispredicted),
                          load_prediction=load_prediction)


@settings(deadline=None)
@given(programs(), st.sampled_from([1, 2, 4, 8]), st.sampled_from(MACHINES))
def test_rebuilt_producers_match_the_record_on_drawn_programs(
        program, width, spec):
    trace, mispredicted, outcomes = program
    _label, collapse, elim, load_spec = spec
    with checked_rebuilds() as checked:
        result = run(trace, machine(width, collapse, elim, load_spec),
                     mispredicted, outcomes)
    event("squashes" if result.memdep.squashed else "no squash")
    assert len(checked) >= result.memdep.squashed


def test_rebuilt_producers_match_the_record_on_trained_eqntott():
    """eqntott at scale 0.3 with the real branch and address
    predictors: F, G and G+elim make 8-87 violations and squash up to
    394 instructions per cell; G+elim eliminates about 12.5k
    producers."""
    trace = cached_trace("eqntott", 0.3)
    branches = branch_outcomes(trace)
    loads = load_outcomes(trace)
    cells = [paper_config(letter, width, node_elimination=elim)
             for width in (8, 2048)
             for letter, elim in (("F", False), ("G", False), ("G", True))]
    cells += [machine(2048, collapse, elim, load_spec)
              for _label, collapse, elim, load_spec in MACHINES
              if load_spec != "none"]
    squashed = 0
    with checked_rebuilds() as checked:
        for config in cells:
            result = simulate_trace(trace, config, branch_result=branches,
                                    load_prediction=loads)
            assert result.memdep.violations > 0, config.name
            squashed += result.memdep.squashed
    assert len(checked) >= squashed
