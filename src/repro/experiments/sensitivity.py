"""Trace-length sensitivity: does the substitution hold?

DESIGN.md's central substitution claim is that the paper's metrics are
*rates* that stabilise well below our trace lengths.  This driver
measures key metrics at several workload scales and reports the drift, so
the claim is checked by the repository itself rather than asserted.
"""

from ..core.config import paper_config
from ..core.simulator import simulate_many
from ..workloads.registry import cached_trace
from .exhibit import Exhibit


def scale_sensitivity(name, scales=(0.25, 0.5, 1.0), width=16):
    """Per-scale key metrics for one workload (configuration D).

    Columns: trace length, D IPC, D/A speedup, collapsed fraction,
    branch accuracy, load predicted-correctly fraction.  Stable rows
    mean the scale substitution is safe for that workload.
    """
    rows = []
    configs = (paper_config("A", width), paper_config("D", width))
    for scale in scales:
        trace = cached_trace(name, scale)
        base, result = simulate_many(trace, configs)
        fractions = result.loads.fractions()
        rows.append([
            scale,
            len(trace),
            result.ipc,
            result.speedup_over(base),
            100.0 * result.collapse.collapsed_fraction,
            100.0 * result.branch.accuracy,
            100.0 * fractions["predicted_correctly"],
        ])
    return Exhibit(
        "Sensitivity", "Scale sensitivity for %s (width %d)"
        % (name, width),
        ["scale", "instructions", "D IPC", "D speedup",
         "collapsed (%)", "branch acc (%)", "loads correct (%)"],
        rows,
        note="stable rows justify the trace-length substitution")


def max_drift(exhibit, column):
    """Largest relative deviation of ``column`` from its last-row value."""
    values = exhibit.column(column)
    reference = values[-1]
    if not reference:
        return 0.0
    return max(abs(v - reference) / abs(reference) for v in values)
