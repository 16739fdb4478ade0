"""Per-exhibit experiment drivers (one per paper table/figure).

Exhibit builders self-register (``repro.experiments.exhibit``); the
report generator and prefetch logic iterate :func:`all_exhibits` /
:func:`exhibit_requirements` instead of hand-listing functions.
"""

from .exhibit import (
    Exhibit,
    ExhibitSpec,
    all_exhibits,
    exhibit_requirements,
    register_exhibit,
)
from .figures import (
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
)
from .extensions import (
    dataflow_limits,
    decoupled_streams,
    elimination_counts,
    extension_figure,
    mdpt_sensitivity,
    memory_speculation,
    predictor_comparison,
    recurrence_bounds,
)
from .parallel import SweepProfile, run_cells
from .runner import ExperimentRunner
from .tables import table1, table2, table3, table4, table5, table6

__all__ = [
    "Exhibit", "ExhibitSpec", "ExperimentRunner", "SweepProfile",
    "run_cells",
    "all_exhibits", "exhibit_requirements", "register_exhibit",
    "figure2", "figure3", "figure4", "figure5", "figure6", "figure7",
    "figure8", "figure9", "figure10",
    "table1", "table2", "table3", "table4", "table5", "table6",
    "dataflow_limits", "decoupled_streams", "elimination_counts",
    "extension_figure", "mdpt_sensitivity", "memory_speculation",
    "predictor_comparison", "recurrence_bounds",
]
