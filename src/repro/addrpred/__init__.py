"""Load-stream prediction: the paper's two-delta stride table (with
confidence) plus Markov and hybrid tables, and one program-order runner
over effective addresses or loaded values."""

from .markov import HybridTable, MarkovTable
from .runner import LoadPredictionResult, PerPCStat, \
    run_address_predictor
from .two_delta import LastStrideTable, TwoDeltaEntry, TwoDeltaTable

__all__ = [
    "LoadPredictionResult", "PerPCStat", "run_address_predictor",
    "LastStrideTable", "TwoDeltaEntry", "TwoDeltaTable",
    "HybridTable", "MarkovTable",
]
