"""Fetch-model ablation tests: taken-branch fetch breaks."""

from helpers import make_branch_result
from synth import TraceBuilder, independent_stream, random_trace

from repro.core import MachineConfig
from repro.core.scheduler import WindowScheduler


def run(trace, width=8, window=None, fetch_break=True):
    config = MachineConfig(width, window_size=window,
                           fetch_taken_break=fetch_break)
    return WindowScheduler(trace, config, make_branch_result(trace)).run()


def taken_jump_stream(blocks, block_size=2):
    """`blocks` basic blocks, each ending in a taken jump."""
    builder = TraceBuilder()
    for b in range(blocks):
        for k in range(block_size - 1):
            builder.move(dest=1 + ((b + k) % 8), imm=True)
        builder.jump()
    return builder.build()


def test_taken_branches_limit_fetch_rate():
    """With fetch breaks and tiny blocks, IPC caps near block size even
    on fully parallel code."""
    trace = taken_jump_stream(blocks=40, block_size=2)
    broken = run(trace, width=8, window=64)
    free = run(trace, width=8, window=64, fetch_break=False)
    assert free.ipc > broken.ipc
    # One 2-instruction block enters per cycle: IPC approaches 2.
    assert broken.ipc < 2.5


def test_not_taken_branches_do_not_break_fetch():
    builder = TraceBuilder()
    for i in range(20):
        builder.cmp(src1=1, imm=True)
        builder.branch(taken=False)
        builder.move(dest=2 + (i % 4), imm=True)
    trace = builder.build()
    broken = run(trace, width=8)
    free = run(trace, width=8, fetch_break=False)
    assert broken.cycles == free.cycles


def test_fetch_break_is_a_pure_slowdown():
    for seed in (3, 7, 11):
        trace = random_trace(300, seed=seed, branch_frac=0.2)
        broken = run(trace, width=8)
        free = run(trace, width=8, fetch_break=False)
        assert broken.cycles >= free.cycles
        assert broken.instructions == free.instructions


def test_no_branches_identical():
    trace = independent_stream(64)
    assert run(trace).cycles == run(trace, fetch_break=False).cycles


def test_default_is_paper_model():
    assert MachineConfig(8).fetch_taken_break is False
