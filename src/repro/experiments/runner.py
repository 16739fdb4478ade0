"""Experiment runner with per-trace memoisation, optional parallelism,
and an optional persistent disk cache.

All paper exhibits share (trace, configuration) simulation results; the
runner caches them in memory so regenerating every figure and table
costs each simulation once.  Branch- and address-prediction passes are
likewise cached per trace (they are configuration independent), and so
is each workload's lint report, which every lint check run on the
runner shares.  A configuration that only resizes the MDPT is derived
from the default-geometry run whenever neither table can lose a pair
that run trained (:meth:`ExperimentRunner.simulate`).

Two optional layers sit under the in-memory memo:

- ``cache_dir`` plugs in a :class:`repro.cache.DiskCache`, so results
  (and traces) persist across processes and invocations;
- ``jobs > 1`` makes :meth:`prefetch` / :meth:`sweep` fan cells out over
  a process pool (:mod:`repro.experiments.parallel`) instead of
  simulating serially.  Results are reassembled in deterministic order,
  so exhibits are identical either way.
"""

import copy
import json
import time
from functools import partial

from ..cache import DiskCache
from ..core.config import PAPER_ISSUE_WIDTHS, config_letters, paper_config
from ..core.results import SimResult
from ..core.simulator import (
    branch_outcomes,
    load_outcomes,
    simulate_trace,
    value_outcomes,
    value_predictor_kind,
)
from ..memdep import MDPT
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


def _memo_key(name, config, extra_key):
    """What the disk cache keys a result on, short of the scale and the
    code version, which every cell of one runner shares."""
    return (name, json.dumps(config.fingerprint(), sort_keys=True),
            json.dumps(extra_key, sort_keys=True))


def _renamed(result, config):
    """``result`` as ``config``'s result: a copy under ``config.name``
    when the two differ (configurations with one fingerprint share a
    result)."""
    if result.config_name == config.name:
        return result
    return SimResult.from_payload(dict(result.to_payload(),
                                       config_name=config.name))


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

    Cells resolve through one in-memory memo keyed like the disk
    cache's results (workload, config fingerprint, extra key), which
    :meth:`result`, :meth:`prefetch` and the MDPT derivation fill.  A
    configuration that sets ``mdpt_entries`` or ``mdpt_store_set`` is a
    *derived* cell when neither its table nor the default one can lose
    a pair the default-geometry run trained: its result is that run's,
    under its own name.  A derived cell is neither written to the disk
    cache nor re-run under the sanitizer: its run is the default run.
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
        self._results = {}      # (name, letter, width) -> result
        self._memo = {}         # _memo_key -> result
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
            self._results[key] = self._memoised(
                name, paper_config(letter, width))
        return self._results[key]

    def simulate(self, name, config, extra_key=None, load_prediction=None):
        """Memoised, derived, disk-cached or simulated result of any
        config, profiled: the one path every runner cell takes, paper
        letters (:meth:`result`), pool workers and the extension
        exhibits' variants alike.

        The memo comes first; it holds what :meth:`result`,
        :meth:`prefetch` and the derivation resolved (a worker never
        fills it).  A config that sets ``mdpt_entries`` or
        ``mdpt_store_set`` is then derived from the same config at the
        default geometry when :meth:`MDPT.lossless
        <repro.memdep.MDPT.lossless>` holds for both tables on that
        run's ``violation_pairs``; a derived cell is not written to the
        disk cache and not re-run under the sanitizer.  Otherwise the
        disk cache answers, or the cell is simulated: ``simulate_trace``
        gets this runner's memo of predictor passes and the workload's
        static plans, as callables that run only when the config uses
        them.  ``load_prediction`` overrides the memo's address pass (an
        object or a zero-argument callable); ``extra_key`` must then
        distinguish the input the config fingerprint cannot express
        (e.g. which predictor table produced ``load_prediction``).
        """
        memoised = self._memo.get(_memo_key(name, config, extra_key))
        if memoised is not None:
            return _renamed(memoised, config)
        if config.mdpt_entries is not None \
                or config.mdpt_store_set is not None:
            derived = self._derived(name, config, extra_key,
                                    load_prediction)
            if derived is not None:
                return derived
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
        self._record(name, config, extra_key, started,
                     "cache" if cache_hit else "sim")
        return result

    def _memoised(self, name, config, extra_key=None,
                  load_prediction=None):
        """:meth:`simulate`, remembered in the memo."""
        result = self.simulate(name, config, extra_key, load_prediction)
        self._memo.setdefault(_memo_key(name, config, extra_key), result)
        return result

    def _derived(self, name, config, extra_key, load_prediction):
        """``config``'s result read off the default-geometry run, or
        None when either table could lose a pair that run trained.

        The geometry changes nothing but the MDPT, and the default run
        trained its table on exactly its ``violation_pairs``.  If
        neither table can lose one of them, both hold what an unbounded
        table holds after every step; so, by induction over the run's
        MDPT operations, the variant makes the same lookups, gets the
        same answers and ends with the same schedule and counters."""
        default = copy.copy(config)
        default.mdpt_entries = default.mdpt_store_set = None
        base = self._memoised(name, default, extra_key, load_prediction)
        pairs = base.memdep.violation_pairs
        if not (MDPT.of(default).lossless(pairs)
                and MDPT.of(config).lossless(pairs)):
            return None
        started = time.perf_counter()
        result = _renamed(base, config)
        self._record(name, config, extra_key, started, "derived")
        return result

    def _record(self, name, config, extra_key, started, source):
        # Resolved inline: being serial, the cell's time is wall time as
        # well as cell work.
        seconds = time.perf_counter() - started
        self.profile.record((name, cell_label(config, extra_key),
                             config.issue_width), seconds, source)
        self.profile.wall_seconds += seconds

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
        for (name, letter, width), result in zip(cells, results):
            self._results[(name, letter, width)] = result
            self._memo.setdefault(
                _memo_key(name, paper_config(letter, width), None), result)
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
