"""The four workloads and the timed loop of the pipeline benchmark.

Imported by ``measure.py`` in a child process after its clock started,
so the launch time covers these imports.  Every timed interval is read
through :class:`clock.Clock`, as seconds at reference speed.  All timing
wraps calls into public ``repro`` functions from outside.
"""

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from repro import kernel
from repro.cache import code_fingerprint
from repro.core.config import LOAD_SPEC_REAL, paper_config
from repro.core.simulator import (
    branch_outcomes,
    load_outcomes,
    simulate_trace,
    value_outcomes,
)
from repro.experiments import report
from repro.experiments.exhibit import all_exhibits
from repro.workloads import registry

import spans

SIM_LETTERS = {"sim-base": "ABCDE", "sim-spec": "FGHIJ"}
SIM_WIDTHS = spans.WIDTHS
#: One issue width keeps a cold report near 15 s; every exhibit and shape
#: check still runs (the default five widths take three times as long).
REPORT_WIDTHS = (8,)


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def clear_registry_caches():
    """Drop the per-process memo of traces and static plans, so the next
    user rebuilds (or reloads) them."""
    for memo in (registry.cached_trace, registry.cached_dae_plan,
                 registry.cached_branch_plan):
        memo.cache_clear()


class Op:
    """One timed operation: ``prepare()`` runs untimed, ``run(prepared)``
    is timed, ``digest(result)`` runs untimed afterwards."""

    __slots__ = ("label", "prepare", "run", "digest")

    def __init__(self, label, run, digest, prepare=lambda: None):
        self.label = label
        self.prepare = prepare
        self.run = run
        self.digest = digest


def cell_digest(result):
    """Cycles plus a SHA-256 of the full result payload, including the
    per-instruction issue cycles."""
    payload = json.dumps(result.to_payload(), sort_keys=True,
                         separators=(",", ":"))
    return {"cycles": result.cycles, "sha256": sha256(payload)}


def report_digest(text):
    """SHA-256 of the report without its wall-clock line."""
    body = "\n".join(line for line in text.split("\n")
                     if not line.startswith("_Generated in"))
    return {"sha256": sha256(body)}


class SimGrid:
    """The six suite traces x ``letters`` x widths {8, 2048}: one op per
    (workload, letter, width) cell, each a ``simulate_trace`` call on
    inputs the set-up prepared (trace, branch/address/value predictor
    passes, DAE and branch plans)."""

    setup_repeats = 3
    traced_setup = True

    def __init__(self, letters, scale):
        self.scale = scale
        self.configs = [paper_config(letter, width)
                        for letter in letters for width in SIM_WIDTHS]

    def setup(self):
        clear_registry_caches()
        configs = self.configs
        wants = {
            "load": any(c.load_spec == LOAD_SPEC_REAL for c in configs),
            # Configs I and J speculate on the confident stride predictor.
            "value": any(c.value_spec for c in configs),
            "dae": any(c.dae for c in configs),
            "plan": any(c.branch_spec for c in configs),
        }
        ops = []
        for workload in registry.SUITE:
            name = workload.name
            trace = registry.cached_trace(name, self.scale)
            inputs = {
                "branch_result": branch_outcomes(trace),
                "load_prediction": load_outcomes(trace)
                if wants["load"] else None,
                "value_prediction": value_outcomes(trace, predictor="stride")
                if wants["value"] else None,
                "dae_plan": registry.cached_dae_plan(name, self.scale)
                if wants["dae"] else None,
                "branch_plan": registry.cached_branch_plan(name, self.scale)
                if wants["plan"] else None,
            }
            for config in configs:
                ops.append(Op("%s/%s" % (name, config.name),
                              self._cell(trace, config, inputs),
                              cell_digest))
        return ops

    @staticmethod
    def _cell(trace, config, inputs):
        kwargs = {
            "branch_result": inputs["branch_result"],
            "load_prediction": inputs["load_prediction"]
            if config.load_spec == LOAD_SPEC_REAL else None,
            "value_prediction": inputs["value_prediction"]
            if config.value_spec else None,
            "dae_plan": inputs["dae_plan"] if config.dae else None,
            "branch_plan": inputs["branch_plan"]
            if config.branch_spec else None,
        }
        return lambda prepared: simulate_trace(trace, config, **kwargs)

    @staticmethod
    def summarize(times):
        """Each cell's median over the passes: the grid's wall time is
        their sum, and the op percentiles are over the cells."""
        cells = [statistics.median(samples) for samples in times.values()]
        return sum(cells), cells


class Report:
    """``repro.experiments.report.generate`` at one issue width.

    Cold: every call writes into a fresh cache directory.  Warm: the
    set-up fills one directory with a cold call plus an untimed warm-up
    call, and every timed call reads it; it sets up once, because that
    set-up costs a whole cold report.
    """

    traced_setup = False

    def __init__(self, scale, scratch, warm):
        self.scale = scale
        self.scratch = scratch
        self.warm = warm
        self.setup_repeats = 1 if warm else 3
        self.cache_dir = None

    def _generate(self, cache_dir):
        return report.generate(scale=self.scale, widths=REPORT_WIDTHS,
                               cache_dir=cache_dir)

    def setup(self):
        code_fingerprint()      # memoised source hash every call needs
        if self.warm:
            self.cache_dir = tempfile.mkdtemp(dir=self.scratch)
            for _ in range(2):  # the cold fill, then the warm-up call
                clear_registry_caches()
                self._generate(self.cache_dir)
        return [Op("report", self._generate, report_digest, self._prepare)]

    def _prepare(self):
        clear_registry_caches()
        if not self.warm:
            if self.cache_dir is not None:
                shutil.rmtree(self.cache_dir)
            self.cache_dir = tempfile.mkdtemp(dir=self.scratch)
        return self.cache_dir

    @staticmethod
    def summarize(times):
        """Every call is a sample; the wall time is the median call."""
        samples = times["report"]
        return statistics.median(samples), samples


def make_workload(name, scale, scratch):
    if name in SIM_LETTERS:
        return SimGrid(SIM_LETTERS[name], scale)
    return Report(scale, scratch, warm=name == "report-warm")


class Outcome:
    """The run-wide ledger of attempted ops, failures and digests."""

    def __init__(self):
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def record(self, label, digest):
        """Keep the first digest per label; a later repeat that differs
        is a failed op (the simulator must be deterministic)."""
        first = self.digests.setdefault(label, dict(digest, runs=0))
        first["runs"] += 1
        if {k: v for k, v in first.items() if k != "runs"} != digest:
            self.failed += 1
            print("nondeterministic output: %s" % (label,), file=sys.stderr)


def timed_passes(ops, seconds, outcome, tracer=None):
    """Run complete passes over ``ops``, at least one, and no further
    pass once another as long as the last would end after ``seconds``;
    returns (label -> [(begin, end)] ``perf_counter`` readings, passes)."""
    intervals = {op.label: [] for op in ops}
    started = time.perf_counter()
    passes = 0
    while True:
        pass_started = time.perf_counter()
        gc.collect()
        for op in ops:
            prepared = op.prepare()
            run = op.run
            if tracer is not None:
                tracer.begin("pass", op.label)
                run = tracer.wrap("bench.op", run)
            outcome.attempted += 1
            begin = time.perf_counter()
            try:
                result = run(prepared)
            except Exception:   # a failed op is counted, the run goes on
                outcome.failed += 1
                traceback.print_exc()
                continue
            intervals[op.label].append((begin, time.perf_counter()))
            outcome.record(op.label, op.digest(result))
            if tracer is not None and prepared is not None:
                tracer.add("cache.bytes", directory_bytes(prepared))
            del result
        passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break
    return intervals, passes


def durations(intervals, read):
    """label -> [read(begin, end)] for every label that ran."""
    return {label: [read(begin, end) for begin, end in pairs]
            for label, pairs in intervals.items() if pairs}


def directory_bytes(root):
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _, names in os.walk(root) for name in names)


def quantiles(samples):
    """(p50, p75) of ``samples``; one sample is both."""
    if len(samples) < 2:
        return samples[0], samples[0]
    _, p50, p75 = statistics.quantiles(samples, n=4)
    return p50, p75


def measure(name, scale, seconds, trace, scratch, clock, launch_s,
            trace_out=None):
    """Set up, time and (with ``trace``) trace one workload; returns the
    record ``run.py`` checks and prints."""
    workload = make_workload(name, scale, scratch)
    setups = []
    for _ in range(workload.setup_repeats):
        begin = time.perf_counter()
        ops = workload.setup()
        setups.append((begin, time.perf_counter()))
    outcome = Outcome()
    box = seconds / 2.0 if trace else seconds
    intervals, _ = timed_passes(ops, box, outcome)
    wall_s, samples = workload.summarize(durations(intervals, clock.seconds))
    raw_wall_s, _ = workload.summarize(
        durations(intervals, lambda begin, end: end - begin))
    p50, p75 = quantiles(samples)
    metrics = {
        "setup_s": launch_s + statistics.median(
            clock.seconds(*interval) for interval in setups),
        "wall_s": wall_s,
        "op_p50_ms": 1e3 * p50,
        "op_p75_ms": 1e3 * p75,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    layers = None
    if trace:
        tracer = spans.Tracer(clock)
        tracer.install()
        if workload.traced_setup:
            tracer.begin("setup", "setup")
            ops = tracer.wrap("bench.setup", workload.setup)()
        intervals, passes = timed_passes(ops, box, outcome, tracer)
        traced_wall, _ = workload.summarize(
            durations(intervals, clock.seconds))
        layers = tracer.layer_metrics(
            passes, [spec.key for spec in all_exhibits()])
        layers["bench.tracing_overhead_pct"] = \
            100.0 * (traced_wall / wall_s - 1.0)
        if trace_out:
            tracer.write(trace_out)
    return {
        "workload": name,
        "scale": scale,
        "kernel": kernel.active_kernel(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "digests": outcome.digests,
        "metrics": metrics,
        "raw_wall_s": raw_wall_s,
        "layers": layers,
    }
