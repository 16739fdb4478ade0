"""TraceStats and signature-mix tests."""

from synth import TraceBuilder

from repro.trace.records import AR, BRC, LD
from repro.trace.stats import TraceStats, signature_mix


def build_mixed():
    builder = TraceBuilder(name="mixed")
    for _ in range(4):
        builder.add(dest=1, src1=1, imm=True)
    for _ in range(2):
        builder.load(dest=2, addr_reg=1, addr=0x100)
    builder.store(datasrc=2, addr_reg=1, addr=0x104)
    builder.cmp(src1=1, imm=True)
    builder.branch(taken=True)
    builder.shift(dest=3, src1=1)
    return builder.build()


def test_length_and_counts():
    stats = TraceStats(build_mixed())
    assert stats.length == 10
    assert stats.count(AR) == 5            # 4 adds + cmp
    assert stats.count(LD) == 2
    assert stats.count(BRC) == 1


def test_fractions():
    stats = TraceStats(build_mixed())
    assert abs(stats.cond_branch_fraction - 0.1) < 1e-12
    assert abs(stats.load_fraction - 0.2) < 1e-12
    assert abs(stats.store_fraction - 0.1) < 1e-12
    assert abs(stats.shift_fraction - 0.1) < 1e-12


def test_empty_trace_safe():
    stats = TraceStats(TraceBuilder(name="empty").build())
    assert stats.length == 0
    assert stats.cond_branch_fraction == 0.0


def test_summary_row_fields():
    row = TraceStats(build_mixed()).summary_row()
    assert row["name"] == "mixed"
    assert row["instructions"] == 10
    assert abs(row["cond_branch_pct"] - 10.0) < 1e-9


def test_signature_mix_weighted_dynamically():
    builder = TraceBuilder()
    load = builder.load(dest=1, addr_reg=1, addr=0)
    for i in range(9):
        builder.repeat(load, eff_addr=4 * i)
    builder.add(dest=2, src1=1, imm=True)
    mix = signature_mix(builder.build())
    assert mix[0] == ("ldr", 10 / 11)
