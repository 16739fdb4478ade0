"""Experiment runner with per-trace memoisation, optional parallelism,
and an optional persistent disk cache.

All paper exhibits share (trace, configuration) simulation results; the
runner caches them in memory so regenerating every figure and table
costs each simulation once.  Branch- and address-prediction passes are
likewise cached per trace (they are configuration independent), and so
is each workload's lint report, which every lint check run on the
runner shares.

Two optional layers sit under the in-memory memo:

- ``cache_dir`` plugs in a :class:`repro.cache.DiskCache`, so results
  (and traces) persist across processes and invocations;
- ``jobs > 1`` makes :meth:`prefetch` / :meth:`sweep` fan cells out over
  a process pool (:mod:`repro.experiments.parallel`) instead of
  simulating serially.  Results are reassembled in deterministic order,
  so exhibits are identical either way.
"""

import time
from functools import partial

from ..cache import DiskCache
from ..core.config import PAPER_ISSUE_WIDTHS, config_letters, paper_config
from ..core.simulator import (
    branch_outcomes,
    load_outcomes,
    simulate_trace,
    value_outcomes,
    value_predictor_kind,
)
from ..workloads.registry import (
    SUITE,
    cached_branch_plan,
    cached_dae_plan,
    cached_trace,
)
from .parallel import SweepProfile, cell_label, run_cells


def _branch_from_payload(payload):
    from ..bpred.runner import BranchRunResult
    return BranchRunResult.from_payload(payload)


class ExperimentRunner:
    """Runs (workload, configuration letter, width) cells on demand.

    Parameters
    ----------
    scale:
        Workload scale passed to trace generation (1.0 = full-size
        reproduction runs; tests and benches use smaller values).
    widths:
        Issue widths to sweep; defaults to the paper's 4/8/16/32/2048.
    names:
        Workload subset; defaults to the whole suite.
    jobs:
        Process count for :meth:`prefetch`/:meth:`sweep`; 1 = serial.
    cache_dir:
        Directory for the persistent disk cache; ``None`` disables it.
    progress:
        Passed through to the parallel engine (``True`` = stderr line).
    sanitize:
        Attach a scheduler sanitizer (``repro.lint.sanitize``) to every
        simulation this runner performs; any invariant violation raises.
        Cache hits are results of *previous* runs and are not re-checked.
    """

    def __init__(self, scale=1.0, widths=PAPER_ISSUE_WIDTHS, names=None,
                 keep_schedules=False, jobs=1, cache_dir=None,
                 progress=None, sanitize=False):
        self.scale = scale
        self.widths = tuple(widths)
        self.names = tuple(names) if names is not None \
            else tuple(w.name for w in SUITE)
        #: keep per-instruction issue cycles on cached results (they are
        #: only needed for schedule-level verification and cost O(trace)
        #: memory per cached cell)
        self.keep_schedules = keep_schedules
        self.jobs = max(1, int(jobs))
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.cache = DiskCache(cache_dir) if cache_dir is not None \
            else None
        self.progress = progress
        self.sanitize = sanitize
        #: simulations that ran (and passed) under the sanitizer
        self.sanitized_runs = 0
        #: accumulated per-cell wall times and cache counters for every
        #: cell resolved through this runner (the ``--profile`` source);
        #: the counters are the disk cache's own, into which
        #: :meth:`prefetch` merges the worker processes' counts
        self.profile = SweepProfile()
        if self.cache is not None:
            self.profile.cache_counters = self.cache.counters
        self._results = {}
        self._branch = {}
        self._loads = {}
        self._values = {}       # (name, predictor kind) -> vpred pass
        self._lint = {}         # name -> LintReport

    # ------------------------------------------------------------------

    def trace(self, name):
        if self.cache is not None:
            return self.cache.get_trace(
                name, self.scale, lambda: cached_trace(name, self.scale))
        return cached_trace(name, self.scale)

    def branch(self, name):
        if name not in self._branch:
            self._branch[name] = self.cached_blob(
                "branch-pass", {"name": name, "scale": repr(self.scale)},
                lambda: branch_outcomes(self.trace(name)).to_payload(),
                decode=_branch_from_payload)
        return self._branch[name]

    def cached_blob(self, kind, key, compute, decode=None):
        """Disk-cached JSON payload; ``compute`` runs only on a miss."""
        if self.cache is None:
            payload = compute()
        else:
            payload = self.cache.load_blob(kind, key)
            if payload is None:
                payload = compute()
                self.cache.store_blob(kind, key, payload)
        return decode(payload) if decode is not None else payload

    def load_prediction(self, name):
        if name not in self._loads:
            self._loads[name] = load_outcomes(self.trace(name))
        return self._loads[name]

    def value_prediction(self, name, config):
        """Program-order value-prediction pass for a ``value_spec``
        cell (config I runs on the confident stride predictor)."""
        kind = value_predictor_kind(config)
        key = (name, kind)
        if key not in self._values:
            self._values[key] = value_outcomes(self.trace(name),
                                               predictor=kind)
        return self._values[key]

    def lint(self, name):
        """The workload's lint report at this runner's scale, memoised:
        every check run on this runner shares one run of the passes."""
        if name not in self._lint:
            from ..lint.analyzer import lint_workload
            self._lint[name] = lint_workload(name, scale=self.scale)
        return self._lint[name]

    def lint_check(self, pass_name, name, width):
        """Registered lint pass ``pass_name``'s check of workload
        ``name``, against this runner's trace and cells at ``width``."""
        from ..lint.registry import LINT_PASSES
        return LINT_PASSES[pass_name].check.run(self.lint(name), self,
                                                name, width)

    def result(self, name, letter, width):
        """Simulation result for one paper cell: a memo over
        :meth:`simulate` of the letter's configuration."""
        key = (name, letter, width)
        if key not in self._results:
            self._results[key] = self.simulate(name,
                                               paper_config(letter, width))
        return self._results[key]

    def simulate(self, name, config, extra_key=None, load_prediction=None):
        """Disk-cached, profiled simulation of any config: the one path
        every runner cell takes, paper letters (:meth:`result`), pool
        workers and the extension exhibits' variants alike.

        On a cache miss it hands ``simulate_trace`` this runner's memo
        of predictor passes and the workload's static plans, as
        callables that run only when the config uses them; a warm cache
        skips them along with the simulation.  ``load_prediction``
        overrides the memo's address pass (an object or a zero-argument
        callable); ``extra_key`` must then distinguish the input the
        config fingerprint cannot express (e.g. which predictor table
        produced ``load_prediction``).
        """
        started = time.perf_counter()
        result = None
        if self.cache is not None:
            result = self.cache.load_result(name, self.scale, config,
                                            extra=extra_key)
        cache_hit = result is not None
        if result is None:
            if load_prediction is None:
                load_prediction = partial(self.load_prediction, name)
            result = simulate_trace(
                self.trace(name), config,
                branch_result=partial(self.branch, name),
                load_prediction=load_prediction,
                value_prediction=partial(self.value_prediction, name,
                                         config),
                sanitize=self.sanitize,
                dae_plan=partial(cached_dae_plan, name, self.scale),
                branch_plan=partial(cached_branch_plan, name, self.scale))
            if self.sanitize:
                self.sanitized_runs += 1
            if not self.keep_schedules:
                result.issue_cycles = None
            if self.cache is not None:
                self.cache.store_result(result, name, self.scale, config,
                                        extra=extra_key)
        # Resolved inline: being serial, the cell's time is wall time as
        # well as cell work.
        seconds = time.perf_counter() - started
        self.profile.record((name, cell_label(config, extra_key),
                             config.issue_width), seconds, cache_hit)
        self.profile.wall_seconds += seconds
        return result

    def results(self, letter, width, names=None):
        """Results for each workload at one (configuration, width)."""
        return [self.result(name, letter, width)
                for name in (names or self.names)]

    # ------------------------------------------------------------------

    def missing_cells(self, letters=None, names=None, widths=None):
        """Cross-product cells not yet resolved in the in-memory memo.

        ``letters`` defaults to the live configuration registry
        (:func:`repro.core.config.config_letters`).
        """
        return [(name, letter, width)
                for name in (names or self.names)
                for letter in (letters if letters is not None
                               else config_letters())
                for width in (widths or self.widths)
                if (name, letter, width) not in self._results]

    def prefetch(self, letters=None, names=None, widths=None):
        """Resolve the whole (names x letters x widths) grid up front.

        With ``jobs > 1`` the missing cells fan out over a process pool;
        either way, subsequent :meth:`result` calls are memo hits.
        ``letters`` defaults to the live configuration registry.
        Returns the number of cells resolved by this call.
        """
        cells = self.missing_cells(letters, names, widths)
        if not cells:
            return 0
        if self.jobs <= 1:
            for name, letter, width in cells:
                self.result(name, letter, width)
            return len(cells)
        results, profile = run_cells(
            cells, self.scale, jobs=self.jobs, cache_dir=self.cache_dir,
            keep_schedules=self.keep_schedules, progress=self.progress,
            sanitize=self.sanitize)
        if self.sanitize:
            self.sanitized_runs += profile.misses
        for cell, result in zip(cells, results):
            self._results[cell] = result
        self.profile.cells.extend(profile.cells)
        self.profile.wall_seconds += profile.wall_seconds
        if self.cache is not None:
            self.cache.merge_counters(profile.cache_counters)
        return len(cells)

    def sweep(self, letters, names=None):
        """Mapping (letter, width) -> list of per-workload results."""
        self.prefetch(letters, names)
        out = {}
        for letter in letters:
            for width in self.widths:
                out[(letter, width)] = self.results(letter, width, names)
        return out
