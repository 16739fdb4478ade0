"""Content-keyed on-disk cache for traces and simulation results.

Layout under the cache root::

    traces/<key>.trace     binary traces (the format of repro.trace.io)
    results/<key>.json     SimResult payloads (core.results codec)
    blobs/<key>.json       arbitrary JSON payloads (branch passes,
                           dependence-graph analysis, ...)

Keys are SHA-256 digests over a JSON description of everything that can
change the cached bytes:

- **traces**: workload name, scale, and the *code fingerprint*;
- **results**: workload name, scale, the machine-configuration
  fingerprint (:meth:`MachineConfig.fingerprint`), and the code
  fingerprint.

The code fingerprint hashes the source of every module of the
``repro`` package, so editing any code a simulation or a cached
analysis blob runs through invalidates the cache automatically (at the
price of invalidating it on reporting/CLI edits too).  Writes go
through a temp file + ``os.replace`` so concurrent workers never
observe half-written entries.
"""

import hashlib
import json
import os

from .core.results import SimResult
from .errors import ReproError, TraceFormatError
from .fsutil import atomic_write as _atomic_write
from .trace.io import load_trace, save_trace

#: Bump to invalidate every cache entry regardless of source hashing
#: (e.g. when the payload codec itself changes shape).
CACHE_FORMAT_VERSION = 1

_code_fingerprint = None


def code_fingerprint():
    """Digest of every ``.py`` source under the ``repro`` package
    (memoised)."""
    global _code_fingerprint
    if _code_fingerprint is None:
        digest = hashlib.sha256()
        digest.update(b"format:%d" % CACHE_FORMAT_VERSION)
        root = os.path.dirname(os.path.abspath(__file__))
        for directory, subdirs, files in os.walk(root):
            subdirs.sort()
            for entry in sorted(files):
                if not entry.endswith(".py"):
                    continue
                path = os.path.join(directory, entry)
                relative = os.path.relpath(path, root).replace(os.sep, "/")
                digest.update(relative.encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:32]


class DiskCache:
    """Persistent (workload, scale, config, code-version)-keyed cache.

    Counters track hits and misses separately for traces and results so
    sweeps can report cache effectiveness (`--profile`).
    """

    def __init__(self, root):
        self.root = str(root)
        self.trace_dir = os.path.join(self.root, "traces")
        self.result_dir = os.path.join(self.root, "results")
        self.blob_dir = os.path.join(self.root, "blobs")
        os.makedirs(self.trace_dir, exist_ok=True)
        os.makedirs(self.result_dir, exist_ok=True)
        os.makedirs(self.blob_dir, exist_ok=True)
        self.counters = {"trace_hits": 0, "trace_misses": 0,
                         "result_hits": 0, "result_misses": 0,
                         "blob_hits": 0, "blob_misses": 0}

    # ------------------------------------------------------------------
    # Keys.
    # ------------------------------------------------------------------

    def trace_key(self, name, scale):
        return _digest({"kind": "trace", "name": name,
                        "scale": repr(float(scale)),
                        "code": code_fingerprint()})

    def result_key(self, name, scale, config, extra=None):
        """``extra`` keys simulation inputs the config cannot express
        (e.g. which address-predictor table fed the scheduler)."""
        return _digest({"kind": "result", "name": name,
                        "scale": repr(float(scale)),
                        "config": config.fingerprint(),
                        "extra": extra,
                        "code": code_fingerprint()})

    def trace_path(self, name, scale):
        return os.path.join(self.trace_dir,
                            "%s.trace" % self.trace_key(name, scale))

    def result_path(self, name, scale, config, extra=None):
        return os.path.join(self.result_dir,
                            "%s.json" % self.result_key(name, scale,
                                                        config, extra))

    # ------------------------------------------------------------------
    # Traces.
    # ------------------------------------------------------------------

    def load_trace(self, name, scale):
        """Cached trace or ``None``; counts the hit/miss."""
        path = self.trace_path(name, scale)
        if not os.path.exists(path):
            self.counters["trace_misses"] += 1
            return None
        try:
            trace = load_trace(path)
        except TraceFormatError:
            # A corrupt or truncated entry: regenerate it.
            self.counters["trace_misses"] += 1
            return None
        self.counters["trace_hits"] += 1
        return trace

    def store_trace(self, trace, name, scale):
        # save_trace is itself atomic (fsutil.atomic_write).
        save_trace(trace, self.trace_path(name, scale))

    def get_trace(self, name, scale, generate):
        """Cached trace, generating (and persisting) on miss."""
        trace = self.load_trace(name, scale)
        if trace is None:
            trace = generate()
            self.store_trace(trace, name, scale)
        return trace

    # ------------------------------------------------------------------
    # Results.
    # ------------------------------------------------------------------

    def load_result(self, name, scale, config, extra=None):
        """Cached ``SimResult`` or ``None``; counts the hit/miss."""
        payload = self._read_json(self.result_path(name, scale, config,
                                                   extra), "result")
        if payload is None:
            return None
        return SimResult.from_payload(payload)

    def store_result(self, result, name, scale, config, extra=None):
        self._write_json(self.result_path(name, scale, config, extra),
                         result.to_payload())

    # ------------------------------------------------------------------
    # Blobs: arbitrary JSON-safe payloads (predictor passes, analysis
    # products) keyed by a caller-supplied JSON-safe description.
    # ------------------------------------------------------------------

    def blob_path(self, kind, key):
        digest = _digest({"kind": "blob:%s" % kind, "key": key,
                          "code": code_fingerprint()})
        return os.path.join(self.blob_dir, "%s.json" % digest)

    def load_blob(self, kind, key):
        """Cached JSON payload or ``None``; counts the hit/miss."""
        return self._read_json(self.blob_path(kind, key), "blob")

    def store_blob(self, kind, key, payload):
        self._write_json(self.blob_path(kind, key), payload)

    # ------------------------------------------------------------------

    def _read_json(self, path, counter):
        if not os.path.exists(path):
            self.counters[counter + "_misses"] += 1
            return None
        with open(path, "r") as handle:
            try:
                payload = json.load(handle)
            except ValueError:
                # A corrupt entry behaves like a miss; it will be rewritten.
                self.counters[counter + "_misses"] += 1
                return None
        self.counters[counter + "_hits"] += 1
        return payload

    def _write_json(self, path, payload):
        def write(tmp_path):
            with open(tmp_path, "w") as handle:
                json.dump(payload, handle, separators=(",", ":"))

        _atomic_write(path, write)

    # ------------------------------------------------------------------

    def merge_counters(self, counters):
        """Fold another process's counters into this one (sweep totals)."""
        for key, value in counters.items():
            if key not in self.counters:
                raise ReproError("unknown cache counter %r" % (key,))
            self.counters[key] += value
        return self

    def stats(self):
        return dict(self.counters)

    def __repr__(self):
        return "DiskCache(%r: %s)" % (self.root, self.stats())
