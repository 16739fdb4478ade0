"""Dynamic-trace representation, statistics, serialisation and transforms."""

from .io import load_trace, save_trace
from .records import (
    AR, BRC, CTI, DIV, LD, LG, MUL, MV, SH, ST,
    DynTrace, StaticTable,
)
from .stats import TraceStats, signature_mix
from .transform import trace_concat, trace_slice, truncate

__all__ = [
    "AR", "BRC", "CTI", "DIV", "LD", "LG", "MUL", "MV", "SH", "ST",
    "DynTrace", "StaticTable",
    "TraceStats", "signature_mix",
    "load_trace", "save_trace",
    "trace_concat", "trace_slice", "truncate",
]
