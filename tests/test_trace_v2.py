"""Trace format v2 round-trip and validation tests (property-based where
it pays).

- every trace round-trips bit-exactly, memory-mapped and read eagerly;
- signatures survive as length-prefixed strings: one or several empty
  signatures, and signatures holding a newline;
- saves are atomic;
- blocks are 64-byte aligned and load zero-copy (memmap);
- a file of the retired format v1, a truncated file and every kind of
  malformed header or out-of-range ``sidx`` raise
  :class:`TraceFormatError`.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.trace.io import MAGIC, load_trace, save_trace
from repro.trace.records import AR, BRC, LD, ST, DynTrace, StaticTable
from repro.trace.synth import random_trace

_I64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
_SIG = st.text(st.characters(max_codepoint=0x2FF), max_size=6)


@st.composite
def traces(draw):
    static_len = draw(st.integers(min_value=0, max_value=6))
    static = StaticTable()
    for _ in range(static_len):
        static.add(cls=draw(st.sampled_from((AR, LD, ST, BRC))),
                   dest=draw(st.integers(min_value=-1, max_value=31)),
                   src1=draw(st.integers(min_value=-1, max_value=31)),
                   writes_cc=draw(st.booleans()),
                   pc=draw(st.integers(min_value=0, max_value=2 ** 31)))
    static.sig = [draw(_SIG) for _ in range(static_len)]
    trace = DynTrace(static, name=draw(st.text(max_size=8)))
    dyn_len = draw(st.integers(min_value=0, max_value=10)) \
        if static_len else 0
    for _ in range(dyn_len):
        trace.sidx.append(draw(st.integers(min_value=0,
                                           max_value=static_len - 1)))
        trace.eff_addr.append(draw(_I64))
        trace.taken.append(draw(st.booleans()))
        trace.mem_value.append(draw(_I64))
    return trace


def _assert_equal(loaded, trace):
    assert loaded.name == trace.name
    assert loaded.sidx == trace.sidx
    assert loaded.eff_addr == trace.eff_addr
    assert loaded.taken == trace.taken
    assert loaded.mem_value == trace.mem_value
    for column in ("cls", "lat", "dest", "writes_cc", "reads_cc", "src1",
                   "src2", "datasrc", "sig", "leaves", "zeros", "pc",
                   "producer_ok", "consumer_ok"):
        assert getattr(loaded.static, column) \
            == getattr(trace.static, column), column


@settings(max_examples=30, deadline=None)
@given(trace=traces(), mmap=st.booleans())
def test_round_trip_property(tmp_path_factory, trace, mmap):
    path = tmp_path_factory.mktemp("rt") / "t.trace"
    save_trace(trace, path)
    _assert_equal(load_trace(path, mmap=mmap), trace)


def _round_trip_sigs(tmp_path, sigs):
    static = StaticTable()
    for _ in sigs:
        static.add(cls=AR, dest=1)
    static.sig = list(sigs)
    path = tmp_path / "t.trace"
    save_trace(DynTrace(static), path)
    return load_trace(path).static.sig


def test_single_empty_signature_round_trips_v1(tmp_path):
    """Regression from format v1, whose newline-joined blob reloaded
    sig == [""] as [] and failed the static length check; the
    length-prefixed signatures keep it."""
    assert _round_trip_sigs(tmp_path, [""]) == [""]


def test_all_empty_signatures_round_trip(tmp_path):
    assert _round_trip_sigs(tmp_path, ["", "", ""]) == ["", "", ""]


def test_newline_signature_rejected_in_v1(tmp_path):
    """Format v1 had to reject a signature holding a newline; the
    length-prefixed encoding represents it."""
    assert _round_trip_sigs(tmp_path, ["ar\nri"]) == ["ar\nri"]


def test_failed_save_leaves_no_partial_file(tmp_path, monkeypatch):
    """Atomicity: a save that fails after writing the magic and header
    leaves neither the target nor its temp file behind."""
    from repro.trace import io

    def disk_full(_):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(io, "memoryview", disk_full, raising=False)
    target = tmp_path / "t.trace"
    with pytest.raises(OSError, match="No space"):
        save_trace(random_trace(40, seed=3), target)
    assert list(tmp_path.iterdir()) == []


def test_save_overwrites_atomically(tmp_path):
    first = random_trace(40, seed=1)
    second = random_trace(60, seed=2)
    path = tmp_path / "t.trace"
    save_trace(first, path)
    save_trace(second, path)
    assert len(load_trace(path)) == len(second)


def test_v2_magic_and_alignment(tmp_path):
    trace = random_trace(50, seed=4)
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    data = path.read_bytes()
    assert data[:8] == MAGIC
    (header_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + header_len].decode("utf-8"))
    assert header["version"] == 2
    for name, meta in header["columns"].items():
        assert meta["offset"] % 64 == 0, name


def _is_mapped(array):
    """True when the array's buffer chain bottoms out in a memmap."""
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = getattr(array, "base", None)
    return False


def test_v2_memmap_zero_copy(tmp_path):
    trace = random_trace(80, seed=5)
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    loaded = load_trace(path, mmap=True)
    soa = loaded.soa()
    assert _is_mapped(soa.dyn["sidx"])
    assert _is_mapped(soa.static["cls"])
    assert not _is_mapped(load_trace(path, mmap=False).soa().dyn["sidx"])
    assert soa.dyn["sidx"].tolist() == trace.sidx


def test_v2_truncated_column_rejected(tmp_path):
    trace = random_trace(64, seed=6)
    path = tmp_path / "t.trace"
    save_trace(trace, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 64])
    with pytest.raises(TraceFormatError, match="EOF|payload"):
        load_trace(path, mmap=False)


def test_v2_is_default_and_v1_still_loads(tmp_path):
    """Saves write v2; a format-v1 file is rejected with the command
    that regenerates it."""
    trace = random_trace(30, seed=7)
    path = tmp_path / "default.trace"
    save_trace(trace, path)
    assert path.read_bytes()[:8] == MAGIC
    v1_path = tmp_path / "v1.trace"
    v1_path.write_bytes(b"REPROTR1" + path.read_bytes()[8:])
    with pytest.raises(TraceFormatError,
                       match=r"v1.*no longer read.*repro trace"):
        load_trace(v1_path)


# ----------------------------------------------------------------------
# Malformed files.
# ----------------------------------------------------------------------

def _align(offset):
    return (offset + 63) & ~63


def _header_of(data):
    """(header dict, data start) of a saved file."""
    (length,) = struct.unpack("<Q", data[8:16])
    return json.loads(data[16:16 + length]), _align(16 + length)


def _with_header(data, header_blob):
    """``data`` (a saved file) with its header replaced by
    ``header_blob``, the column blocks moved to the new data start."""
    blocks = data[_header_of(data)[1]:]
    head = data[:8] + struct.pack("<Q", len(header_blob)) + header_blob
    return head + b"\0" * (_align(len(head)) - len(head)) + blocks


def _edited(edit):
    """A file whose JSON header ``edit`` mutates in place."""
    def build(data):
        header, _ = _header_of(data)
        edit(header)
        return _with_header(data, json.dumps(header).encode("utf-8"))
    return build


def _first_sidx(value):
    """A file whose first ``sidx`` entry is ``value(static_len)``."""
    def build(data):
        header, data_start = _header_of(data)
        at = data_start + header["columns"]["sidx"]["offset"]
        return data[:at] + struct.pack("<q", value(header["static_len"])) \
            + data[at + 8:]
    return build


MALFORMED = {
    "header-not-json": lambda data: _with_header(data, b"{not json"),
    "header-not-utf8": lambda data: _with_header(data, b"\xff\xfe{}"),
    "header-json-list": lambda data: _with_header(data, b"[2]"),
    "header-past-eof": lambda data: data[:8] + struct.pack("<Q", 2 ** 63)
    + data[16:],
    "unknown-version": _edited(lambda h: h.update(version=3)),
    "no-columns": _edited(lambda h: h.pop("columns")),
    "no-static_len": _edited(lambda h: h.pop("static_len")),
    "no-name": _edited(lambda h: h.pop("name")),
    "columns-not-object": _edited(lambda h: h.update(columns=[])),
    "negative-dyn_len": _edited(lambda h: h.update(dyn_len=-1)),
    "unknown-dtype": _edited(
        lambda h: h["columns"]["sidx"].update(dtype="int65")),
    "negative-count": _edited(
        lambda h: h["columns"]["sig_blob"].update(count=-1)),
    "negative-offset": _edited(
        lambda h: h["columns"]["sidx"].update(offset=-64)),
    "string-offset": _edited(
        lambda h: h["columns"]["sidx"].update(offset="0")),
    "sidx-past-static-table": _first_sidx(lambda static_len: static_len),
    "sidx-negative": _first_sidx(lambda static_len: -1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_v2_rejected(tmp_path, case):
    path = tmp_path / "t.trace"
    save_trace(random_trace(40, seed=8), path)
    path.write_bytes(MALFORMED[case](path.read_bytes()))
    for mmap in (True, False):
        with pytest.raises(TraceFormatError):
            load_trace(path, mmap=mmap)
