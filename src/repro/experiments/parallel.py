"""Parallel experiment engine: fan (workload, letter, width) cells out
over a process pool, with an optional persistent disk cache.

Each *cell* is one simulation of one workload on one paper configuration
at one issue width — the unit every exhibit is assembled from.  Workers
return compact :class:`SimResult` payloads (see ``core.results``), so
nothing crosses the process boundary but plain dicts; the parent decodes
them and reassembles results **in input order**, making a parallel sweep
byte-identical to a serial one.

Each worker process resolves its cells through one
:class:`ExperimentRunner` per (scale, cache directory, keep_schedules,
sanitize) — the same :meth:`ExperimentRunner.simulate` path a serial
sweep takes — so cells landing in the same worker share the runner's
memo of configuration-independent predictor passes.  With a cache
directory, traces and results also persist across processes and
invocations (see ``repro.cache``).
"""

import functools
import multiprocessing
import sys
import time

from ..core.config import config_specs, paper_config
from ..core.results import SimResult
from ..metrics.tables import render_table


@functools.lru_cache(maxsize=None)
def _worker_runner(scale, cache_dir, keep_schedules, sanitize):
    """This process's :class:`~repro.experiments.runner.ExperimentRunner`
    for one (scale, cache directory, keep_schedules, sanitize)
    combination.  Its memo holds the branch, address and value passes
    per workload, so the cells a worker handles share them."""
    from .runner import ExperimentRunner
    return ExperimentRunner(scale=scale, cache_dir=cache_dir,
                            keep_schedules=keep_schedules,
                            sanitize=sanitize)


def _run_cell(task):
    """Worker entry point: resolve one cell through the worker's runner.

    Returns ``(index, payload, profile entry, cache counter deltas)``.
    """
    (index, name, letter, width, scale, cache_dir, keep_schedules,
     sanitize) = task
    runner = _worker_runner(scale, cache_dir, keep_schedules, sanitize)
    cache = runner.cache
    before = cache.stats() if cache is not None else {}
    result = runner.simulate(name, paper_config(letter, width))
    counters = {key: cache.counters[key] - value
                for key, value in before.items()}
    return index, result.to_payload(), runner.profile.cells.pop(), counters


def cell_label(config, extra_key=None):
    """Profile label of a cell: the most specific registered letter the
    configuration extends, then ``+feature`` for each mechanism beyond
    it and ``+key=value`` for each ``extra_key`` entry, e.g. ``J``,
    ``F+mdpt64-2``, ``D+elim+vspec`` or ``D+addrpred=markov``.  A
    registered letter's own configuration is labelled by the letter."""
    features = config.features()
    letter, base = None, []
    for spec in config_specs():
        candidate = spec.build(config.issue_width).features()
        if set(candidate) <= set(features) \
                and (letter is None or len(candidate) > len(base)):
            letter, base = spec.letter, candidate
    parts = [letter or "base"]
    parts += [feature for feature in features if feature not in base]
    parts += ["%s=%s" % (key, extra_key[key])
              for key in sorted(extra_key or ())]
    return "+".join(parts)


class SweepProfile:
    """Observability for one sweep: per-cell wall time + cache counters.

    Each cell's source is ``"cache"`` (read from the disk cache),
    ``"derived"`` (read off another cell's run, see
    :meth:`ExperimentRunner.simulate`) or ``"sim"`` (simulated)."""

    def __init__(self):
        self.cells = []          # (name, label, width, seconds, source)
        self.cache_counters = {}
        self.wall_seconds = 0.0

    def record(self, cell, seconds, source):
        """Record one ``(name, label, width)`` cell resolved from
        ``source``; the label is a registered letter or a
        :func:`cell_label`."""
        name, label, width = cell
        self.cells.append((name, label, width, seconds, source))

    def merge_cache_counters(self, counters):
        for key, value in counters.items():
            self.cache_counters[key] = \
                self.cache_counters.get(key, 0) + value

    def _count(self, source):
        return sum(1 for cell in self.cells if cell[4] == source)

    @property
    def hits(self):
        return self._count("cache")

    @property
    def derived(self):
        return self._count("derived")

    @property
    def misses(self):
        """Cells simulated."""
        return self._count("sim")

    @property
    def cell_seconds(self):
        return sum(cell[3] for cell in self.cells)

    def summary_line(self):
        return ("%d cells in %.1f s wall (%.1f s of cell work; "
                "%d from cache, %d derived, %d simulated)"
                % (len(self.cells), self.wall_seconds, self.cell_seconds,
                   self.hits, self.derived, self.misses))

    def render(self, limit=12):
        """Profile table (slowest cells first) via metrics.tables."""
        ordered = sorted(self.cells, key=lambda cell: -cell[3])
        rows = [[name, letter, width, seconds, source]
                for name, letter, width, seconds, source
                in ordered[:limit]]
        text = render_table(
            ["workload", "config", "width", "seconds", "source"], rows,
            title="sweep profile — %s" % (self.summary_line(),),
            precision=3)
        if self.cache_counters:
            pairs = ", ".join("%s=%d" % (key, self.cache_counters[key])
                              for key in sorted(self.cache_counters))
            text += "\n(cache counters: %s)" % (pairs,)
        return text


def _progress(stream, done, total, cell, cache_hit):
    name, letter, width = cell
    stream.write("\r[%*d/%d] %s/w%-4d %-10s%s"
                 % (len(str(total)), done, total, letter, width, name,
                    " (cache)" if cache_hit else "        "))
    if done == total:
        stream.write("\n")
    stream.flush()


def run_cells(cells, scale, jobs=1, cache_dir=None, keep_schedules=False,
              progress=None, sanitize=False):
    """Run every ``(name, letter, width)`` cell; return results + profile.

    Results come back in the order of ``cells`` regardless of ``jobs``,
    so downstream figures and tables are identical to a serial run.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` runs inline (no pool, no pickling).
    cache_dir:
        Optional persistent cache directory (see :mod:`repro.cache`).
    progress:
        ``True`` for a stderr progress line, a callable
        ``(done, total, cell, cache_hit)`` for custom reporting.
    """
    cells = [tuple(cell) for cell in cells]
    cache_dir = str(cache_dir) if cache_dir is not None else None
    tasks = [(index, name, letter, width, scale, cache_dir,
              keep_schedules, sanitize)
             for index, (name, letter, width) in enumerate(cells)]
    profile = SweepProfile()
    started = time.perf_counter()
    results = [None] * len(cells)
    if progress is True:
        stream = sys.stderr
        progress = (lambda done, total, cell, hit:
                    _progress(stream, done, total, cell, hit))

    def consume(outcomes):
        done = 0
        for index, payload, entry, counters in outcomes:
            results[index] = SimResult.from_payload(payload)
            profile.cells.append(entry)
            profile.merge_cache_counters(counters)
            done += 1
            if progress is not None:
                progress(done, len(cells), cells[index],
                         entry[4] == "cache")

    if jobs <= 1 or len(tasks) <= 1:
        consume(map(_run_cell, tasks))
    else:
        with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
            consume(pool.imap_unordered(_run_cell, tasks))
    profile.wall_seconds = time.perf_counter() - started
    return results, profile
