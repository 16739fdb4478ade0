"""The paper's core contribution: the windowed timing model with
dependence speculation and collapsing."""

from .config import (
    LOAD_SPEC_IDEAL,
    LOAD_SPEC_NONE,
    LOAD_SPEC_REAL,
    MEM_SPEC_MDPT,
    MEM_SPEC_PERFECT,
    PAPER_ISSUE_WIDTHS,
    WIDTH_LABELS,
    ConfigSpec,
    MachineConfig,
    config_letters,
    config_specs,
    get_config_spec,
    paper_config,
    register_config,
    unregister_config,
)
from .results import (
    LOAD_CATEGORIES,
    LOAD_NOT_PREDICTED,
    LOAD_PRED_CORRECT,
    LOAD_PRED_INCORRECT,
    LOAD_READY,
    LoadStats,
    SimResult,
)
from .elimination import compute_sole_readers
from .scheduler import WindowScheduler
from .simulator import (
    branch_outcomes,
    load_outcomes,
    simulate_many,
    simulate_trace,
    value_outcomes,
)

__all__ = [
    "LOAD_SPEC_IDEAL", "LOAD_SPEC_NONE", "LOAD_SPEC_REAL",
    "MEM_SPEC_MDPT", "MEM_SPEC_PERFECT",
    "PAPER_ISSUE_WIDTHS", "WIDTH_LABELS", "ConfigSpec", "MachineConfig",
    "config_letters", "config_specs", "get_config_spec",
    "paper_config", "register_config", "unregister_config",
    "LOAD_CATEGORIES", "LOAD_NOT_PREDICTED", "LOAD_PRED_CORRECT",
    "LOAD_PRED_INCORRECT", "LOAD_READY", "LoadStats", "SimResult",
    "WindowScheduler", "compute_sole_readers",
    "branch_outcomes", "load_outcomes", "simulate_many", "simulate_trace",
    "value_outcomes",
]

