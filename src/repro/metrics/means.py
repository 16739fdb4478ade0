"""Aggregation helpers.

The paper summarises per-benchmark results with the *harmonic mean*
(Section 5: "we summarize results by taking the harmonic mean over the
benchmark set"), which is the right mean for rates like IPC and for
speedups expressed as cycle-count ratios.
"""

from ..errors import ReproError


def harmonic_mean(values):
    """Harmonic mean of positive values."""
    values = list(values)
    if not values:
        raise ReproError("harmonic mean of no values")
    if any(v <= 0 for v in values):
        raise ReproError("harmonic mean needs positive values: %r"
                         % (values,))
    return len(values) / sum(1.0 / v for v in values)


def arithmetic_mean(values):
    values = list(values)
    if not values:
        raise ReproError("mean of no values")
    return sum(values) / len(values)


def geometric_mean(values):
    values = list(values)
    if not values:
        raise ReproError("geometric mean of no values")
    if any(v <= 0 for v in values):
        raise ReproError("geometric mean needs positive values")
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def mean_ipc(results):
    """Harmonic-mean IPC over a list of SimResults (Figure 2 style).

    A zero-cycle result (empty or degenerate trace) has IPC 0.0, which
    the harmonic mean cannot absorb; fail with the offending trace names
    instead of the generic positivity error.
    """
    results = list(results)
    if not results:
        raise ReproError("mean_ipc of no results")
    degenerate = [r.trace_name for r in results if not r.cycles]
    if degenerate:
        raise ReproError(
            "mean_ipc: zero-cycle (empty or degenerate) results for %s; "
            "regenerate the traces at a larger scale or drop them from "
            "the set" % (", ".join(sorted(set(degenerate))),))
    return harmonic_mean(r.ipc for r in results)


def issue_distribution(result):
    """Per-cycle issue-count distribution of a simulation.

    Returns a mapping ``instructions issued in a cycle -> fraction of
    cycles`` (including idle cycles as 0).  Requires the result to carry
    ``issue_cycles`` (the default for direct simulations; the experiment
    runner drops them unless ``keep_schedules=True``).
    """
    import numpy as np

    if result.issue_cycles is None:
        raise ReproError("result carries no schedule; simulate with "
                         "keep_schedules or use simulate_trace directly")
    # Eliminated instructions never occupy an issue slot: their
    # issue_cycles entries record the fold-away cycle (core/results.py),
    # so counting them would let a cycle appear to issue more than
    # issue_width instructions.
    eliminated = result.eliminated_positions
    total_cycles = max(1, result.cycles)
    cycles = np.asarray(result.issue_cycles, dtype=np.int64)
    mask = cycles >= 0
    if eliminated:
        mask[np.fromiter(eliminated, dtype=np.int64,
                         count=len(eliminated))] = False
    per_cycle = np.bincount(cycles[mask])
    busy = per_cycle[per_cycle > 0]
    counts = np.bincount(busy) if busy.size else busy
    idle = total_cycles - int(busy.shape[0])
    distribution = {count: int(cycles_at)
                    for count, cycles_at in enumerate(counts.tolist())
                    if cycles_at and count}
    if idle > 0:
        distribution[0] = idle
    return {count: cycles_at / total_cycles
            for count, cycles_at in sorted(distribution.items())}


def _count_distribution(result):
    """:func:`issue_distribution` counted per position: the scalar
    reference of the vectorized count."""
    from collections import Counter

    eliminated = result.eliminated_positions
    total_cycles = max(1, result.cycles)
    per_cycle = Counter(
        c for position, c in enumerate(result.issue_cycles)
        if c >= 0 and position not in eliminated)
    distribution = Counter(per_cycle.values())
    idle = total_cycles - sum(distribution.values())
    if idle > 0:
        distribution[0] = idle
    return {count: cycles / total_cycles
            for count, cycles in sorted(distribution.items())}


def mean_speedup(results, baselines):
    """Harmonic-mean speedup of ``results`` over per-trace ``baselines``
    (Figure 3 style).  Baselines are matched by trace name."""
    by_trace = {b.trace_name: b for b in baselines}
    ratios = []
    for result in results:
        try:
            baseline = by_trace[result.trace_name]
        except KeyError:
            raise ReproError("no baseline for trace %r"
                             % (result.trace_name,))
        ratios.append(result.speedup_over(baseline))
    return harmonic_mean(ratios)
