"""Binary save/load for dynamic traces (format v2).

The format is the structure-of-arrays layout of
:data:`repro.trace.soa.TRACE_DTYPES`, all little-endian:

- the 8-byte magic ``b"REPROTR2"``;
- a u64 byte count, then that many bytes of UTF-8 JSON header: a JSON
  object with ``version`` (2), ``name``, ``static_len``, ``dyn_len``
  and ``columns``, which maps every block name to its ``offset`` (in
  bytes past the first 64-byte boundary after the header), its element
  ``count`` and its numpy ``dtype`` name;
- the blocks, each one contiguous array at a 64-byte-aligned offset,
  with u64 sizes throughout (no 4 GiB limit): the signatures as
  ``sig_offsets`` (``int64``, ``static_len + 1`` byte offsets) into
  ``sig_blob`` (``uint8``, the UTF-8 strings back to back, so a
  signature may hold any character, newlines included); then the
  static table, one block per column (``cls``, ``lat``, ``dest``,
  ``src1``, ``src2``, ``datasrc``, ``leaves``, ``zeros``, ``pc`` as
  ``int64``; ``writes_cc``, ``reads_cc``, ``producer_ok``,
  ``consumer_ok`` as ``bool``, one byte per entry); then the dynamic
  columns, ``sidx`` (``int64``), ``eff_addr`` (``int64``), ``taken``
  (``bool``) and ``mem_value`` (``int64``).

Aligned blocks make a file loadable zero-copy: :func:`load_trace` maps
each column with ``np.memmap`` and attaches the mapped arrays as the
trace's SoA snapshot, so the vectorized kernels read straight from the
page cache.  The reader validates the header (its keys, every block's
dtype, offset and count, the file size) and every ``sidx`` before it
trusts them, raising :class:`TraceFormatError` for a malformed file.
:func:`save_trace` is atomic (temp file + ``os.replace``).

Traces regenerate quickly from workloads, so this exists mainly to let
the benchmark harness and the experiment disk cache (``repro.cache``)
share expensive traces across processes and to make traces portable
artifacts.
"""

import json
import os
import struct

from ..errors import TraceFormatError
from ..fsutil import atomic_write
from .records import DynTrace, StaticTable

MAGIC = b"REPROTR2"
#: magic of the retired format v1, recognised only to say so
_MAGIC_V1 = b"REPROTR1"

_ALIGN = 64

#: block order after the signatures: every TRACE_DTYPES column, static
#: then dynamic.
_COLUMNS = ("cls", "lat", "dest", "src1", "src2", "datasrc", "leaves",
            "zeros", "pc", "writes_cc", "reads_cc", "producer_ok",
            "consumer_ok", "sidx", "eff_addr", "taken", "mem_value")


def _align(offset):
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _blocks(trace):
    """(block name, ndarray) in file order."""
    import numpy as np
    soa = trace.soa()
    encoded = [sig.encode("utf-8") for sig in trace.static.sig]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    if encoded:
        offsets[1:] = np.cumsum([len(blob) for blob in encoded])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8) \
        if encoded else np.empty(0, dtype=np.uint8)
    return [("sig_offsets", offsets), ("sig_blob", blob)] \
        + [(col, soa.col(col)) for col in _COLUMNS]


def save_trace(trace, path):
    """Serialise ``trace`` to ``path`` atomically."""
    blocks = _blocks(trace)
    manifest = {}
    offset = 0
    for name, arr in blocks:
        offset = _align(offset)
        manifest[name] = {
            "offset": offset,
            "count": int(arr.shape[0]),
            "dtype": arr.dtype.name,
        }
        offset += arr.nbytes
    header = {
        "version": 2,
        "name": trace.name,
        "static_len": len(trace.static),
        "dyn_len": len(trace),
        "columns": manifest,
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")

    def write(tmp_path):
        with open(tmp_path, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<Q", len(header_blob)))
            handle.write(header_blob)
            data_start = _align(handle.tell())
            for name, arr in blocks:
                target = data_start + manifest[name]["offset"]
                handle.write(b"\0" * (target - handle.tell()))
                handle.write(memoryview(arr).cast("B"))

    atomic_write(path, write)


def _size(value, what):
    """``value`` checked to be a non-negative JSON integer."""
    if type(value) is not int or value < 0:
        raise TraceFormatError("malformed header: %s is %r, not a "
                               "non-negative integer" % (what, value))
    return value


def _read_header(handle, file_size):
    raw = handle.read(8)
    if len(raw) != 8:
        raise TraceFormatError("truncated trace file (header length)")
    (header_len,) = struct.unpack("<Q", raw)
    if 16 + header_len > file_size:
        raise TraceFormatError("truncated trace file (header)")
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except ValueError as exc:   # not UTF-8, or not JSON
        raise TraceFormatError("malformed header: %s" % (exc,))
    if not isinstance(header, dict):
        raise TraceFormatError("malformed header: not a JSON object")
    if header.get("version") != 2:
        raise TraceFormatError(
            "unsupported version: %r" % (header.get("version"),))
    for key in ("name", "static_len", "dyn_len", "columns"):
        if key not in header:
            raise TraceFormatError("malformed header: no %r" % (key,))
    if not isinstance(header["name"], str) \
            or not isinstance(header["columns"], dict):
        raise TraceFormatError("malformed header: bad 'name' or "
                               "'columns'")
    _size(header["static_len"], "static_len")
    _size(header["dyn_len"], "dyn_len")
    return header, _align(16 + header_len)


def _load(handle, path, mmap):
    import numpy as np

    from .soa import DYN_COLUMNS, STATIC_COLUMNS, TRACE_DTYPES, TraceArrays

    file_size = os.fstat(handle.fileno()).st_size
    header, data_start = _read_header(handle, file_size)
    manifest = header["columns"]

    def column(name, dtype, expect_count=None):
        meta = manifest.get(name)
        if not isinstance(meta, dict):
            raise TraceFormatError("header misses column %r" % (name,))
        dtype = np.dtype(dtype)
        if meta.get("dtype") != dtype.name:
            raise TraceFormatError(
                "column %r has dtype %r, expected %s"
                % (name, meta.get("dtype"), dtype.name))
        count = _size(meta.get("count"), "column %r count" % (name,))
        if expect_count is not None and count != expect_count:
            raise TraceFormatError(
                "column %r length mismatch: %d != %d"
                % (name, count, expect_count))
        offset = data_start + _size(meta.get("offset"),
                                    "column %r offset" % (name,))
        if offset + count * dtype.itemsize > file_size:
            raise TraceFormatError(
                "truncated trace file (column %r extends past EOF)"
                % (name,))
        if count == 0:
            return np.empty(0, dtype=dtype)
        if mmap:
            return np.memmap(path, dtype=dtype, mode="r", offset=offset,
                             shape=(count,))
        handle.seek(offset)
        payload = handle.read(count * dtype.itemsize)
        if len(payload) != count * dtype.itemsize:
            raise TraceFormatError(
                "truncated trace file (column %r payload)" % (name,))
        return np.frombuffer(payload, dtype=dtype)

    static_len = header["static_len"]
    dyn_len = header["dyn_len"]
    arrays = {name: column(name, TRACE_DTYPES[name], static_len)
              for name in STATIC_COLUMNS}
    arrays.update({name: column(name, TRACE_DTYPES[name], dyn_len)
                   for name in DYN_COLUMNS})
    sidx = arrays["sidx"]
    if dyn_len and (int(sidx.min()) < 0 or int(sidx.max()) >= static_len):
        raise TraceFormatError(
            "sidx outside the static table [0, %d)" % (static_len,))

    sig_offsets = column("sig_offsets", np.int64,
                         static_len + 1 if static_len else None)
    sig_blob = column("sig_blob", np.uint8)
    if static_len:
        bounds = sig_offsets.tolist()
        if bounds[0] != 0 or any(a > b for a, b in zip(bounds, bounds[1:])) \
                or bounds[-1] != sig_blob.shape[0]:
            raise TraceFormatError("malformed signature offsets")
        blob_bytes = sig_blob.tobytes()
        try:
            sigs = [blob_bytes[a:b].decode("utf-8")
                    for a, b in zip(bounds, bounds[1:])]
        except UnicodeDecodeError as exc:
            raise TraceFormatError("malformed signature blob: %s"
                                   % (exc,))
    else:
        sigs = []

    static = StaticTable()
    for name in STATIC_COLUMNS:
        setattr(static, name, arrays[name].tolist())
    static.sig = sigs
    trace = DynTrace(static, name=header["name"])
    for name in DYN_COLUMNS:
        setattr(trace, name, arrays[name].tolist())
    # Attach the (possibly memory-mapped) arrays as the SoA snapshot so
    # vectorized kernels reuse them zero-copy.
    trace._soa = TraceArrays(
        {name: arrays[name] for name in STATIC_COLUMNS},
        {name: arrays[name] for name in DYN_COLUMNS},
        name=trace.name)
    return trace


def load_trace(path, mmap=True):
    """Load a trace previously written by :func:`save_trace`.
    ``mmap=True`` maps column blocks zero-copy; ``mmap=False`` reads
    them into process memory instead."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic == MAGIC:
            return _load(handle, os.fspath(path), mmap)
        if magic == _MAGIC_V1:
            raise TraceFormatError(
                "%s is trace format v1, which is no longer read; "
                "regenerate it with `repro trace <workload> -o FILE`"
                % (os.fspath(path),))
        raise TraceFormatError(
            "%s is not a repro trace (it starts with %r, not %r); "
            "write one with `repro trace <workload> -o FILE`"
            % (os.fspath(path), magic, MAGIC))
