"""Binary trace serialisation round-trip tests."""

import pytest

from synth import TraceBuilder, random_trace, strided_load_loop

from repro.errors import TraceFormatError
from repro.trace.io import MAGIC, load_trace, save_trace


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
    with pytest.raises(TraceFormatError) as excinfo:
        load_trace(path)
    message = str(excinfo.value)
    assert message.startswith("%s is not a repro trace" % (path,))
    assert "b'NOTATRAC'" in message
    assert "`repro trace <workload> -o FILE`" in message


def test_truncated_file_rejected(tmp_path):
    trace = random_trace(50, seed=1)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    with pytest.raises(TraceFormatError):
        load_trace(path)


def test_magic_constant_stable():
    assert MAGIC == b"REPROTR2"


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


def test_format_docstring_matches_bytes(tmp_path):
    """The layout the module docstring documents is the one written to
    disk: magic, u64 header length, JSON header, then every column at
    its 64-byte-aligned offset past the header with the documented
    dtype and count."""
    import json
    import struct

    import numpy as np

    from repro.trace import io
    doc = " ".join(io.__doc__.split())
    for claim in ('magic ``b"REPROTR2"``', "a u64 byte count",
                  "64-byte-aligned offset",
                  "``sig_offsets`` (``int64``, ``static_len + 1``",
                  "``sig_blob`` (``uint8``",
                  "``sidx`` (``int64``)", "``eff_addr`` (``int64``)",
                  "``taken`` (``bool``)", "``mem_value`` (``int64``)"):
        assert claim in doc, claim
    trace = random_trace(70, seed=9)
    path = tmp_path / "t.bin"
    save_trace(trace, path)
    data = path.read_bytes()
    assert data[:8] == b"REPROTR2"
    (length,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + length].decode("utf-8"))
    assert {key: header[key] for key in ("version", "name", "static_len",
                                         "dyn_len")} \
        == {"version": 2, "name": trace.name,
            "static_len": len(trace.static), "dyn_len": len(trace)}
    data_start = (16 + length + 63) // 64 * 64

    def block(name, dtype, count):
        meta = header["columns"][name]
        assert meta["offset"] % 64 == 0, name
        assert (meta["dtype"], meta["count"]) \
            == (np.dtype(dtype).name, count), name
        start = data_start + meta["offset"]
        return np.frombuffer(data, dtype=np.dtype(dtype).newbyteorder("<"),
                             count=count, offset=start).tolist()

    for name in ("sidx", "eff_addr", "mem_value"):
        assert block(name, np.int64, len(trace)) == getattr(trace, name)
    assert block("taken", np.bool_, len(trace)) == trace.taken
    for name in ("cls", "lat", "dest", "src1", "src2", "datasrc",
                 "leaves", "zeros", "pc"):
        assert block(name, np.int64, len(trace.static)) \
            == getattr(trace.static, name), name
    for name in ("writes_cc", "reads_cc", "producer_ok", "consumer_ok"):
        assert block(name, np.bool_, len(trace.static)) \
            == getattr(trace.static, name), name
    offsets = block("sig_offsets", np.int64, len(trace.static) + 1)
    blob = bytes(block("sig_blob", np.uint8, offsets[-1]))
    assert [blob[a:b].decode("utf-8")
            for a, b in zip(offsets, offsets[1:])] == trace.static.sig


def test_empty_trace_round_trip(tmp_path):
    trace = TraceBuilder(name="empty").build()
    path = tmp_path / "empty.bin"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.name == "empty"
