"""Branch handling in the timing model."""

from helpers import sim
from synth import TraceBuilder



def cmp_branch_adds(taken=True):
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)          # 0
    builder.branch(taken=taken)            # 1
    builder.move(dest=2, imm=True)         # 2
    builder.move(dest=3, imm=True)         # 3
    return builder.build()


def test_correct_prediction_zero_penalty():
    """Followers of a correctly predicted branch issue immediately."""
    result = sim(cmp_branch_adds(), width=4)
    # cmp@0 + both moves@0; branch@1 (cc ready at 1) -> 2 cycles.
    assert result.cycles == 2


def test_misprediction_blocks_followers():
    """Followers cannot issue before or during the branch's issue cycle."""
    result = sim(cmp_branch_adds(), width=4, mispredicted=[1])
    # cmp@0; branch@1; moves enter after branch issues -> @2. 3 cycles.
    assert result.cycles == 3


def test_misprediction_penalty_grows_with_late_branch():
    """A branch behind a long dependence chain delays followers more."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)          # 0
    builder.add(dest=1, src1=1, imm=True)          # 1
    builder.add(dest=1, src1=1, imm=True)          # 2
    builder.cmp(src1=1, imm=True)                  # 3 (cc at 4)
    builder.branch(taken=True)                     # 4 issues @4
    builder.move(dest=2, imm=True)                 # 5
    result = sim(builder.build(), width=4, mispredicted=[4])
    # chain 0,1,2 @0,1,2; cmp@3; branch@4; move@5 -> 6 cycles.
    assert result.cycles == 6


def test_back_to_back_mispredictions_serialise():
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)          # 0
    builder.branch(taken=True)             # 1
    builder.cmp(src1=1, imm=True)          # 2
    builder.branch(taken=False)            # 3
    builder.move(dest=2, imm=True)         # 4
    result = sim(builder.build(), width=4, mispredicted=[1, 3])
    # cmp@0; br@1; cmp@2; br@3; move@4 -> 5 cycles.
    assert result.cycles == 5


def test_window_refills_after_misprediction():
    """After the mispredicted branch issues, fetch resumes and the window
    fills with the post-branch instructions."""
    builder = TraceBuilder()
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    for i in range(8):
        builder.move(dest=2 + (i % 4), imm=True)
    result = sim(builder.build(), width=4, window=8, mispredicted=[1])
    # cmp@0, branch@1, then 8 moves at 4/cycle: @2, @3 -> 4 cycles.
    assert result.cycles == 4


def test_unconditional_control_never_blocks():
    builder = TraceBuilder()
    builder.move(dest=1, imm=True)
    builder.jump(src=1)
    builder.move(dest=2, imm=True)
    result = sim(builder.build(), width=4)
    # move@0; jump@1 (reads r1); follower move@0 (not blocked).
    assert result.cycles == 2


def test_branch_result_is_attached_to_sim_result():
    trace = cmp_branch_adds()
    result = sim(trace, width=4, mispredicted=[1])
    assert result.branch.conditional == 1
    assert result.branch.accuracy == 0.0
