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

from ..cache import DiskCache
from ..core.config import PAPER_ISSUE_WIDTHS, config_letters, paper_config
from ..core.scheduler import WindowScheduler
from ..core.simulator import (
    _value_predictor_kind,
    branch_outcomes,
    load_outcomes,
    value_outcomes,
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
        #: cell resolved through this runner (the ``--profile`` source)
        self.profile = SweepProfile()
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
        kind = _value_predictor_kind(config)
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

    def _dae_plan(self, name, config):
        """Static decoupling plan for configuration-H cells; the plan
        derives from the workload's assembly at this runner's scale."""
        if not config.dae:
            return None
        return cached_dae_plan(name, self.scale)

    def _branch_plan(self, name, config):
        """Static load-driven exit-branch plan for configuration-J
        cells; like the DAE plan it derives from the workload's
        assembly at this runner's scale."""
        if not config.branch_spec:
            return None
        return cached_branch_plan(name, self.scale)

    def _make_sanitizer(self, name, config, dae_plan=None,
                        branch_plan=None):
        if not self.sanitize:
            return None
        from ..core.simulator import make_sanitizer
        return make_sanitizer(self.trace(name), config,
                              self.branch(name), dae_plan=dae_plan,
                              branch_plan=branch_plan)

    def result(self, name, letter, width):
        """Simulation result for one cell, memoised (and disk-cached)."""
        key = (name, letter, width)
        if key not in self._results:
            started = time.perf_counter()
            config = paper_config(letter, width)
            result = None
            if self.cache is not None:
                result = self.cache.load_result(name, self.scale, config)
            cache_hit = result is not None
            if result is None:
                prediction = (self.load_prediction(name)
                              if config.load_spec == "real" else None)
                values = (self.value_prediction(name, config)
                          if config.value_spec else None)
                dae_plan = self._dae_plan(name, config)
                branch_plan = self._branch_plan(name, config)
                scheduler = WindowScheduler(
                    self.trace(name), config, self.branch(name),
                    prediction, values,
                    sanitizer=self._make_sanitizer(name, config,
                                                   dae_plan,
                                                   branch_plan),
                    dae_plan=dae_plan, branch_plan=branch_plan)
                result = scheduler.run()
                if self.sanitize:
                    self.sanitized_runs += 1
                if not self.keep_schedules:
                    result.issue_cycles = None
                if self.cache is not None:
                    self.cache.store_result(result, name, self.scale,
                                            config)
            self._results[key] = result
            self._record(key, started, cache_hit)
        return self._results[key]

    def _record(self, cell, started, cache_hit):
        """Profile one cell resolved inline: being serial, its time is
        wall time as well as cell work."""
        seconds = time.perf_counter() - started
        self.profile.record(cell, seconds, cache_hit)
        self.profile.wall_seconds += seconds

    def simulate(self, name, config, extra_key=None, load_prediction=None,
                 value_prediction=None):
        """Disk-cached, profiled simulation of an *arbitrary* config
        (extension exhibits: elimination/value-speculation variants,
        alternative address predictors).

        ``load_prediction`` / ``value_prediction`` may be zero-argument
        callables; they run only on a cache miss, so a warm cache skips
        the predictor passes along with the simulation.  ``extra_key``
        must distinguish any simulation input the config fingerprint
        cannot express (e.g. which predictor table produced
        ``load_prediction``).
        """
        started = time.perf_counter()
        result = None
        if self.cache is not None:
            result = self.cache.load_result(name, self.scale, config,
                                            extra=extra_key)
        cache_hit = result is not None
        if result is None:
            prediction = load_prediction
            if callable(prediction):
                prediction = prediction()
            elif prediction is None and config.load_spec == "real":
                prediction = self.load_prediction(name)
            values = value_prediction
            if callable(values):
                values = values()
            elif values is None and config.value_spec:
                values = self.value_prediction(name, config)
            dae_plan = self._dae_plan(name, config)
            branch_plan = self._branch_plan(name, config)
            scheduler = WindowScheduler(
                self.trace(name), config, self.branch(name), prediction,
                values,
                sanitizer=self._make_sanitizer(name, config, dae_plan,
                                               branch_plan),
                dae_plan=dae_plan, branch_plan=branch_plan)
            result = scheduler.run()
            if self.sanitize:
                self.sanitized_runs += 1
            if not self.keep_schedules:
                result.issue_cycles = None
            if self.cache is not None:
                self.cache.store_result(result, name, self.scale, config,
                                        extra=extra_key)
        self._record((name, cell_label(config, extra_key),
                      config.issue_width), started, cache_hit)
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
        self.profile.merge_cache_counters(profile.cache_counters)
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
