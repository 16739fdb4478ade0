"""In-memory span tracer for the pipeline benchmark's ``--trace`` runs.

:meth:`Tracer.install` wraps the public entry point of every layer
wherever it is bound: in its defining module, in every ``repro`` module
that imported it by name, and on the class for methods.  A wrapper that
is never reached shows up as a zero layer metric, which the coverage
check in ``run.py`` reports.

Each call records a span ``[name, start, end, parent, op]`` in memory;
``start``/``end`` are raw ``time.perf_counter()`` readings, ``parent`` is
the index of the enclosing span and ``op`` the benchmark operation (one
set-up, one simulated cell or one report call) the span belongs to.  A
layer's self time is its spans' durations, read through the run's
:class:`clock.Clock`, minus the time their child spans cover.  Nothing
under ``src/`` changes; the wrappers are installed only in a traced
child process.
"""

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict

#: (span name, module, attribute): module-level functions and class
#: methods ("Class.method") that open a span.
TARGETS = (
    ("asm.assemble", "repro.asm.assembler", "assemble"),
    ("emu.trace_program", "repro.emu.tracer", "trace_program"),
    ("trace.soa", "repro.trace.soa", "trace_arrays"),
    ("trace.save", "repro.trace.io", "save_trace"),
    ("trace.load", "repro.trace.io", "load_trace"),
    ("bpred.pass", "repro.bpred.runner", "run_branch_predictor"),
    ("addrpred.pass", "repro.addrpred.runner", "run_address_predictor"),
    ("vpred.pass", "repro.vpred.runner", "run_value_predictor"),
    ("core.run", "repro.core.scheduler", "WindowScheduler.run"),
    ("cache.open", "repro.cache", "DiskCache.__init__"),
    ("cache.load_trace", "repro.cache", "DiskCache.load_trace"),
    ("cache.store_trace", "repro.cache", "DiskCache.store_trace"),
    ("cache.load_result", "repro.cache", "DiskCache.load_result"),
    ("cache.store_result", "repro.cache", "DiskCache.store_result"),
    ("cache.load_blob", "repro.cache", "DiskCache.load_blob"),
    ("cache.store_blob", "repro.cache", "DiskCache.store_blob"),
    ("lint.addrclass", "repro.lint.addrclass",
     "AddressClassification.__init__"),
    ("lint.valueflow", "repro.lint.valueflow", "ValueFlowAnalysis.__init__"),
    ("lint.recurrence", "repro.lint.recurrence",
     "RecurrenceAnalysis.__init__"),
    ("lint.branchflow", "repro.lint.branchflow",
     "BranchFlowAnalysis.__init__"),
    ("lint.branchflow", "repro.lint.branchflow", "BranchFlowAnalysis.plan"),
    ("lint.dae", "repro.lint.dae", "DAEAnalysis.__init__"),
    ("lint.dae", "repro.lint.dae", "DAEAnalysis.plan"),
    ("lint.addr_check", "repro.lint.addrclass", "cross_check"),
    ("lint.value_check", "repro.lint.valueflow", "valueflow_cross_check"),
    ("lint.branch_check", "repro.lint.branchflow",
     "branchflow_cross_check"),
    ("lint.dae_check", "repro.lint.dae", "dae_cross_check"),
    ("lint.recur_check", "repro.lint.ipcbound", "recurrence_cross_check"),
    ("analysis.depths", "repro.analysis.depgraph", "DependenceGraph.depths"),
    ("analysis.depths", "repro.analysis.depgraph", "restructured_depths"),
    ("analysis.depths", "repro.analysis.depgraph", "collapsed_depths"),
    ("analysis.depths", "repro.analysis.depgraph",
     "collapsed_critical_path"),
    ("experiments.report", "repro.experiments.report", "generate"),
    ("metrics.render", "repro.metrics.tables", "render_table"),
    ("metrics.render", "repro.metrics.tables", "render_series"),
    ("metrics.render", "repro.metrics.tables", "render_bar_chart"),
) + tuple(
    ("experiments.runner", "repro.experiments.runner",
     "ExperimentRunner." + method)
    for method in ("result", "simulate", "trace", "branch", "cached_blob",
                   "load_prediction", "value_prediction", "prefetch"))

#: Letters and widths of the per-configuration scheduler throughputs.
LETTERS = "ABCDEFGHIJ"
WIDTHS = (8, 2048)


def import_all():
    """Import every ``repro`` module, so each by-name binding of a
    wrapped function exists before :func:`install` rebinds it (and so
    no timed call pays for a lazy import)."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _rebind(original, wrapper):
    """Point every module-level binding of ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


class Tracer:
    """Spans, per-phase counters and scheduler results of one traced run.

    ``begin(phase, label)`` starts a benchmark operation; ``phase`` is
    ``"setup"`` or ``"pass"`` and decides how the operation's layer time
    is normalised (see :meth:`layer_metrics`).
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.ops = []
        self.counts = {"setup": defaultdict(float), "pass": defaultdict(float)}
        self.cells = []         # (config name, instructions, span, events)
        self.caches = []        # every DiskCache opened while tracing
        self._stack = []

    def begin(self, phase, label):
        self.ops.append({"phase": phase, "label": label})

    def add(self, name, value):
        self.counts[self.ops[-1]["phase"]][name] += value

    def wrap(self, name, fn, observe=None):
        """``fn`` wrapped to record a span (and call ``observe(args,
        result, span)`` after it returns)."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      stack[-1] if stack else None, len(self.ops) - 1]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result, record)
            return result
        return wrapper

    # ------------------------------------------------------------------

    def _observe_emulation(self, args, result, span):
        self.add("emu.instructions", len(result[0]))

    def _observe_cell(self, args, result, span):
        self.add("core.instructions", result.instructions)
        events = Counter()
        if result.collapse is not None:
            events.update(collapse=result.collapse.events)
        if result.memdep is not None:
            events.update(violations=result.memdep.violations,
                          replayed=result.memdep.squashed)
        if result.value_spec is not None:
            events.update(squashes=result.value_spec.squashes,
                          replayed=result.value_spec.replays)
        if result.dae is not None:
            events.update(full_stalls=result.dae.full_stalls)
        if result.branch_spec is not None:
            events.update(early=result.branch_spec.early_resolved)
        self.cells.append((args[0].config.name, result.instructions, span,
                           events))

    def _observe_cache(self, args, result, span):
        self.caches.append(args[0])

    def install(self):
        """Wrap every target, the exhibit builders and each suite
        workload's ``validate``.  There is no uninstall: call it only in
        a child process that exits after its traced phase."""
        import_all()
        observers = {"emu.trace_program": self._observe_emulation,
                     "core.run": self._observe_cell,
                     "cache.open": self._observe_cache}
        for name, module_name, attr in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(owner, class_name)
                setattr(owner, method, self.wrap(
                    name, getattr(owner, method), observers.get(name)))
            else:
                original = getattr(owner, attr)
                _rebind(original, self.wrap(name, original,
                                            observers.get(name)))
        from repro.experiments.exhibit import all_exhibits
        for spec in all_exhibits():
            original = spec.builder
            spec.builder = self.wrap("experiments.exhibit." + spec.key,
                                     original)
            _rebind(original, spec.builder)
        from repro.workloads.registry import SUITE
        for workload_class in {type(workload) for workload in SUITE}:
            workload_class.validate = self.wrap("workloads.validate",
                                                workload_class.validate)

    # ------------------------------------------------------------------

    def self_times(self):
        """Per phase, span name -> summed self seconds and call count."""
        durations = [self.clock.seconds(start, end)
                     for name, start, end, parent, op in self.spans]
        covered = [0.0] * len(self.spans)
        for (name, start, end, parent, op), duration in zip(self.spans,
                                                              durations):
            if parent is not None:
                covered[parent] += duration
        seconds = {"setup": defaultdict(float), "pass": defaultdict(float)}
        calls = {"setup": defaultdict(int), "pass": defaultdict(int)}
        for (name, start, end, parent, op), duration, inner in zip(
                self.spans, durations, covered):
            phase = self.ops[op]["phase"]
            seconds[phase][name] += duration - inner
            calls[phase][name] += 1
        return seconds, calls

    def layer_metrics(self, passes, exhibit_keys):
        """Per-layer metrics of the traced phase.

        Times (``*_s``) and counts are per *round*: one traced set-up
        plus one pass over the workload's operations, i.e. the setup
        phase's total plus the pass phase's total divided by ``passes``.
        Rates and ratios are over everything traced.
        """
        seconds, calls = self.self_times()
        setups = sum(1 for op in self.ops if op["phase"] == "setup")

        def per_round(table, name):
            value = table["pass"][name] / passes
            if setups:
                value += table["setup"][name] / setups
            return value

        def total(table, name):
            return table["setup"][name] + table["pass"][name]

        def rate(numerator, denominator, scale=1.0):
            return scale * numerator / denominator if denominator else 0.0

        m = {
            "asm.assemble_s": per_round(seconds, "asm.assemble"),
            "asm.calls": per_round(calls, "asm.assemble"),
            "emu.trace_program_s": per_round(seconds, "emu.trace_program"),
            "emu.kips": rate(total(self.counts, "emu.instructions"),
                             total(seconds, "emu.trace_program"), 1e-3),
            "workloads.validate_s": per_round(seconds, "workloads.validate"),
            "core.run_s": per_round(seconds, "core.run"),
            "core.cells": per_round(calls, "core.run"),
            "core.sim_kinst": per_round(self.counts,
                                        "core.instructions") / 1e3,
            "analysis.depths_s": per_round(seconds, "analysis.depths"),
            "experiments.runner_self_s": per_round(seconds,
                                                   "experiments.runner"),
            "metrics.render_s": per_round(seconds, "metrics.render"),
        }
        for part in ("soa", "save", "load"):
            m["trace.%s_s" % part] = per_round(seconds, "trace." + part)
        for layer in ("bpred", "addrpred", "vpred"):
            m[layer + ".pass_s"] = per_round(seconds, layer + ".pass")
            m[layer + ".calls"] = per_round(calls, layer + ".pass")
        for action in ("load", "store"):
            for kind in ("trace", "result", "blob"):
                name = "cache.%s_%s" % (action, kind)
                m[name + "_s"] = per_round(seconds, name)
        for name in ("addrclass", "valueflow", "recurrence", "branchflow",
                     "dae", "addr_check", "value_check", "branch_check",
                     "dae_check", "recur_check"):
            m["lint.%s_s" % name] = per_round(seconds, "lint." + name)
        for key in exhibit_keys:
            name = "experiments.exhibit." + key
            m[name + "_s"] = per_round(seconds, name)

        hits = misses = 0
        for cache in self.caches:
            for counter, value in cache.stats().items():
                if counter.endswith("_hits"):
                    hits += value
                else:
                    misses += value
        m["cache.hit_ratio"] = rate(hits, hits + misses)
        m["cache.bytes"] = per_round(self.counts, "cache.bytes")
        m.update(self._cell_metrics())
        return m

    def _cell_metrics(self):
        """Scheduler throughput per configuration and simulated-event
        rates; the event rates are model statistics that a change which
        only speeds up the simulator must leave exactly unchanged."""
        instructions = sum(cell[1] for cell in self.cells)
        by_config = defaultdict(lambda: [0, 0.0])
        events = Counter()
        for config_name, count, span, cell_events in self.cells:
            by_config[config_name][0] += count
            by_config[config_name][1] += self.clock.seconds(span[1], span[2])
            events.update(cell_events)

        def per_kinst(name):
            return 1e3 * events[name] / instructions if instructions else 0.0

        m = {}
        for letter in LETTERS:
            for width in WIDTHS:
                count, seconds = by_config["%s/w%d" % (letter, width)]
                m["core.kips.%s.w%d" % (letter, width)] = \
                    count / seconds / 1e3 if seconds else 0.0
        m["core.replayed_per_kinst"] = per_kinst("replayed")
        m["core.useful_issue_ratio"] = (
            instructions / (instructions + events["replayed"])
            if instructions else 0.0)
        m["collapse.events_per_kinst"] = per_kinst("collapse")
        m["memdep.violations_per_kinst"] = per_kinst("violations")
        m["core.vspec_squashes_per_kinst"] = per_kinst("squashes")
        m["core.dae_full_stalls_per_kinst"] = per_kinst("full_stalls")
        m["core.bspec_early_per_kinst"] = per_kinst("early")
        return m

    def write(self, path):
        """Write the operations and spans as one JSON document."""
        with open(path, "w") as handle:
            json.dump({"ops": self.ops, "spans": self.spans}, handle,
                      separators=(",", ":"))
