"""Branch prediction: bimodal, gshare and the McFarling combining scheme."""

from .bimodal import BimodalPredictor
from .combining import CombiningPredictor, PerfectPredictor
from .counters import CounterTable
from .gshare import GsharePredictor
from .local import LocalHistoryPredictor, StaticPredictor
from .runner import (
    BranchRunResult,
    PREDICTORS,
    PerPCBranchStat,
    make_branch_predictor,
    run_branch_predictor,
)

__all__ = [
    "BimodalPredictor", "CombiningPredictor", "PerfectPredictor",
    "CounterTable", "GsharePredictor",
    "LocalHistoryPredictor", "StaticPredictor",
    "BranchRunResult", "PerPCBranchStat", "PREDICTORS",
    "make_branch_predictor", "run_branch_predictor",
]
