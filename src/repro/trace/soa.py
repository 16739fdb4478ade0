"""Structure-of-arrays view of a dynamic trace.

The canonical trace representation (:mod:`repro.trace.records`) stores
columns as Python lists, which the event-driven scheduler indexes one
element at a time — numpy scalar indexing would slow that loop down, so
the lists stay authoritative.  The vectorized kernels instead consume a
cached :class:`TraceArrays` snapshot whose columns are ndarrays with the
dtypes of :data:`TRACE_DTYPES`; format v2 of :mod:`repro.trace.io`
writes exactly these arrays as aligned blocks so a saved trace can be
mapped back zero-copy with ``np.memmap``.

``DynTrace.soa()`` builds the snapshot lazily and memoises it; the
snapshot remembers the trace length and is rebuilt transparently if the
trace grew since (traces are append-only during construction and
immutable afterwards).
"""

import numpy as np

#: dtype schema of every serialised column, static then dynamic: int64
#: holds every value the list columns carry (signed, up to 64 bits),
#: bool one byte per flag.
TRACE_DTYPES = {
    # static table ----------------------------------------------------
    "cls": np.int64,
    "lat": np.int64,
    "dest": np.int64,
    "writes_cc": np.bool_,
    "reads_cc": np.bool_,
    "src1": np.int64,
    "src2": np.int64,
    "datasrc": np.int64,
    "leaves": np.int64,
    "zeros": np.int64,
    "pc": np.int64,
    "producer_ok": np.bool_,
    "consumer_ok": np.bool_,
    # dynamic columns -------------------------------------------------
    "sidx": np.int64,
    "eff_addr": np.int64,
    "taken": np.bool_,
    "mem_value": np.int64,
}

STATIC_COLUMNS = ("cls", "lat", "dest", "writes_cc", "reads_cc", "src1",
                  "src2", "datasrc", "leaves", "zeros", "pc",
                  "producer_ok", "consumer_ok")
DYN_COLUMNS = ("sidx", "eff_addr", "taken", "mem_value")


def _freeze(array):
    array.flags.writeable = False
    return array


class TraceArrays:
    """Read-only ndarray snapshot of one trace's columns.

    Static columns keep their per-static-index shape; convenience
    ``*_d`` accessors gather them to per-dynamic-position shape.  The
    ``cache`` dict is scratch space for analysis layers (dependence
    columns, depth variants) that want per-trace memoisation without
    the trace package importing them.
    """

    __slots__ = ("n", "static_len", "name", "static", "dyn", "cache",
                 "_gathered")

    def __init__(self, static, dyn, name=""):
        self.static = {col: _freeze(np.ascontiguousarray(
            arr, dtype=TRACE_DTYPES[col])) for col, arr in static.items()}
        self.dyn = {col: _freeze(np.ascontiguousarray(
            arr, dtype=TRACE_DTYPES[col])) for col, arr in dyn.items()}
        self.name = name
        self.n = int(self.dyn["sidx"].shape[0])
        self.static_len = int(self.static["cls"].shape[0])
        self.cache = {}
        self._gathered = {}

    @classmethod
    def from_trace(cls, trace):
        static = trace.static
        return cls(
            {col: np.asarray(getattr(static, col),
                             dtype=TRACE_DTYPES[col])
             for col in STATIC_COLUMNS},
            {col: np.asarray(getattr(trace, col), dtype=TRACE_DTYPES[col])
             for col in DYN_COLUMNS},
            name=trace.name)

    def __len__(self):
        return self.n

    def col(self, name):
        """A serialised column by name (static or dynamic shape)."""
        if name in self.dyn:
            return self.dyn[name]
        return self.static[name]

    def gathered(self, name):
        """Static column gathered to dynamic shape (memoised)."""
        array = self._gathered.get(name)
        if array is None:
            array = _freeze(self.static[name][self.dyn["sidx"]])
            self._gathered[name] = array
        return array


def trace_arrays(trace):
    """The memoised :class:`TraceArrays` snapshot for ``trace``."""
    cached = getattr(trace, "_soa", None)
    if cached is not None and cached.n == len(trace) \
            and cached.static_len == len(trace.static):
        return cached
    arrays = TraceArrays.from_trace(trace)
    try:
        trace._soa = arrays
    except AttributeError:  # __slots__ without _soa (defensive)
        pass
    return arrays
