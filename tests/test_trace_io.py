"""Binary trace serialisation round-trip tests."""

import pytest

from repro.errors import TraceFormatError
from repro.trace.io import MAGIC, load_trace, save_trace
from repro.trace.synth import random_trace, strided_load_loop


def test_round_trip_preserves_everything(tmp_path):
    trace = random_trace(200, seed=3)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == trace.name
    assert loaded.sidx == trace.sidx
    assert loaded.eff_addr == trace.eff_addr
    assert loaded.taken == trace.taken
    assert loaded.mem_value == trace.mem_value
    original, restored = trace.static, loaded.static
    assert restored.cls == original.cls
    assert restored.sig == original.sig
    assert restored.leaves == original.leaves
    assert restored.dest == original.dest
    assert restored.writes_cc == original.writes_cc
    assert restored.pc == original.pc


def test_round_trip_simulates_identically(tmp_path):
    from repro.core import paper_config, simulate_trace
    trace = strided_load_loop(100)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    loaded = load_trace(path)
    a = simulate_trace(trace, paper_config("D", 8))
    b = simulate_trace(loaded, paper_config("D", 8))
    assert a.cycles == b.cycles
    assert a.loads.counts == b.loads.counts


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTATRACE")
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_truncated_file_rejected(tmp_path):
    trace = random_trace(50, seed=1)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_magic_constant_stable():
    assert MAGIC == b"REPROTR1"


def test_round_trip_every_suite_workload(tmp_path):
    """Every registered workload's trace survives save/load bit-exactly,
    including the mem_value column (the format-doc drift regression)."""
    from repro.workloads import SUITE, cached_trace
    for workload in SUITE:
        trace = cached_trace(workload.name, 0.02)
        path = tmp_path / ("%s.trace" % workload.name)
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.sidx == trace.sidx
        assert loaded.eff_addr == trace.eff_addr
        assert loaded.taken == trace.taken
        assert loaded.mem_value == trace.mem_value
        assert loaded.static.sig == trace.static.sig
        assert loaded.static.cls == trace.static.cls


def test_mem_value_length_mismatch_rejected(tmp_path):
    """load_trace asserts the mem_value column round-trips at full
    length; a truncated final block must fail loudly, not load short."""
    trace = random_trace(60, seed=2)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    data = path.read_bytes()
    # Chop half the trailing mem_value block (8 bytes per entry).
    path.write_bytes(data[:len(data) - 8 * 30])
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_format_docstring_matches_bytes():
    """The documented dynamic layout is the one written to disk: three
    signed 8-byte columns (sidx, eff_addr, mem_value) plus packed taken
    bytes."""
    from repro.trace import io
    doc = io.__doc__
    for claim in ('``sidx`` (signed 8-byte ``"q"``)',
                  '``eff_addr`` (signed 8-byte ``"q"``)',
                  '``mem_value`` (signed 8-byte ``"q"``)',
                  "``taken`` (one byte per entry)"):
        assert claim in doc


def test_empty_trace_round_trip(tmp_path):
    from repro.trace.records import TraceBuilder
    trace = TraceBuilder(name="empty").build()
    path = tmp_path / "empty.bin"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.name == "empty"
