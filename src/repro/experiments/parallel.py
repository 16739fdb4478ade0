"""Worker side of the parallel experiment engine, and sweep profiles.

Each *cell* is one simulation of one workload on one paper configuration
at one issue width — the unit every exhibit is assembled from.
:meth:`ExperimentRunner.prefetch
<repro.experiments.runner.ExperimentRunner.prefetch>` maps
:func:`_run_cell` over a process pool.  Workers return compact
:class:`SimResult` payloads (see ``core.results``), so nothing crosses
the process boundary but plain dicts; the parent decodes each into its
memo under the cell's own key, making a parallel sweep byte-identical
to a serial one.

Each worker process resolves its cells through one
:class:`ExperimentRunner` per (scale, cache directory, keep_schedules,
sanitize) — the same :meth:`ExperimentRunner.simulate` path a serial
sweep takes — so cells landing in the same worker share the runner's
memo of configuration-independent predictor passes.  With a cache
directory, traces and results also persist across processes and
invocations (see ``repro.cache``).
"""

import functools

from ..core.config import config_specs, paper_config
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
