"""Decoupled access/execute scheduling (configuration H): bounded FIFO
value queues, the access window, and the sanitizer's DAE invariants."""

import pytest

from repro.core import MachineConfig
from repro.core.scheduler import WindowScheduler
from repro.lint import DAEPlan, static_signature
from repro.lint.sanitize import SchedulerSanitizer

from .helpers import make_branch_result
from synth import TraceBuilder

# The synthetic loop (static indices):
#   0: add  r1 <- imm          (init, pre-loop)
#   1: add  r1 <- r1 + imm     (access: induction update)
#   2: ld   r2 <- [r1]         (boundary load)
#   3: add  r3 <- r2 + r3      (execute: consumes the loaded value)
#   4: cmp  r1, imm            (execute)
#   5: bne                     (execute)
_HEADER = 1
_BODY = frozenset({1, 2, 3, 4, 5})
_ACCESS = {1: _HEADER, 2: _HEADER}
_BOUNDARY = {2: _HEADER}


def loop_trace(iters=8):
    tb = TraceBuilder()
    tb.add(1, imm=True)
    body = [
        tb.add(1, 1, imm=True),
        tb.load(2, addr_reg=1, addr=0x100),
        tb.add(3, 2, 3),
        tb.cmp(1, imm=True),
        tb.branch(taken=iters > 1),
    ]
    for k in range(1, iters):
        for j, pos in enumerate(body):
            tb.repeat(pos,
                      eff_addr=0x100 + 4 * k if j == 1 else 0,
                      taken=(j == 4 and k < iters - 1))
    return tb.build()


def make_plan(trace, depth):
    return DAEPlan(static_signature(trace.static),
                   dict(_ACCESS), dict(_BOUNDARY),
                   {i: _HEADER for i in _BODY}, dict(_ACCESS),
                   {_HEADER: frozenset({2})}, {_HEADER: depth},
                   frozenset({_HEADER}))


def run_dae(trace, plan, width=2, window=None):
    config = MachineConfig(width, window_size=window, dae=True)
    branch = make_branch_result(trace)
    san = SchedulerSanitizer(trace, config, branch.mispredicted,
                             dae_plan=plan)
    result = WindowScheduler(trace, config, branch, sanitizer=san,
                             dae_plan=plan).run()
    return result, san


def run_base(trace, width=2, window=None):
    config = MachineConfig(width, window_size=window)
    return WindowScheduler(trace, config,
                           make_branch_result(trace)).run()


# ---------------------------------------------------------------------


def test_depth_one_queue_works():
    trace = loop_trace(iters=8)
    result, san = run_dae(trace, make_plan(trace, 1), width=2, window=4)
    stats = result.dae.loops[_HEADER]
    # Every boundary load either enqueued or fell back coupled, and a
    # one-slot queue never holds two values.
    assert stats.enqueued + stats.full_stalls == 8
    assert stats.enqueued >= 1
    assert stats.peak == 1
    assert stats.popped <= stats.enqueued
    # The 8 iterations are one contiguous body stretch: one run.
    assert stats.runs == 1
    assert san.dae_enqueues == stats.enqueued
    assert san.dae_pops == stats.popped
    assert san.violation_count == 0


def test_depth_zero_queue_rejected():
    trace = loop_trace(iters=2)
    with pytest.raises(ValueError):
        make_plan(trace, 0)


def test_full_queue_stall_is_counted():
    # Width 1 drains the execute slice slowly while fetch runs far
    # ahead: later loads must find the one-slot queue full.
    trace = loop_trace(iters=8)
    result, _ = run_dae(trace, make_plan(trace, 1), width=1, window=64)
    stats = result.dae.loops[_HEADER]
    assert stats.full_stalls > 0
    assert stats.enqueued < 8
    assert stats.chase_deps == 0      # the loop is genuinely clean


def test_deep_queue_absorbs_every_iteration():
    trace = loop_trace(iters=8)
    result, san = run_dae(trace, make_plan(trace, 16), width=1,
                          window=64)
    stats = result.dae.loops[_HEADER]
    assert stats.full_stalls == 0
    assert stats.enqueued == 8
    assert stats.peak <= 16
    assert san.violation_count == 0


def test_dae_without_plan_degenerates_to_base():
    trace = loop_trace(iters=8)
    config = MachineConfig(2, window_size=4, dae=True)
    result = WindowScheduler(trace, config,
                             make_branch_result(trace)).run()
    assert result.dae is None
    assert result.cycles == run_base(trace, width=2, window=4).cycles


def test_queues_only_relax_occupancy_not_timing():
    # With no window pressure decoupling changes nothing: dependence
    # timing is identical to the base machine.
    trace = loop_trace(iters=8)
    result, _ = run_dae(trace, make_plan(trace, 4), width=2, window=64)
    assert result.cycles == run_base(trace, width=2, window=64).cycles


def test_decoupling_helps_under_window_pressure():
    trace = loop_trace(iters=16)
    result, _ = run_dae(trace, make_plan(trace, 8), width=4, window=4)
    base = run_base(trace, width=4, window=4)
    assert result.dae.bypassed > 0
    assert result.cycles <= base.cycles


def test_plan_signature_mismatch_rejected():
    trace = loop_trace(iters=4)
    plan = make_plan(trace, 2)
    other = loop_trace(iters=4)
    tb = TraceBuilder()
    tb.add(1, imm=True)
    tb.add(2, 1, imm=True)
    foreign = tb.build()
    config = MachineConfig(2, dae=True)
    with pytest.raises(ValueError):
        WindowScheduler(foreign, config, make_branch_result(foreign),
                        dae_plan=plan)
    # Same static program, different dynamic length: still valid.
    WindowScheduler(other, config, make_branch_result(other),
                    dae_plan=plan)
