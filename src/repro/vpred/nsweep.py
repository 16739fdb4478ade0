"""Vectorized value-predictor sweeps (numpy kernel).

The ``"stride"``, ``"fcm"`` and ``"hybrid"`` kinds are the shared
load-stream sweeps of :mod:`repro.addrpred.nsweep` run over loaded
values; only the last-value sweep is value-specific: the predicted value
is a segment shift of the loaded-value stream within each table-index
bucket (the cold entry predicts 0), and the confidence gate is the
shared segmented clamped-counter scan.
"""

from ..addrpred.nsweep import (
    confidence_gate,
    hybrid_sweep,
    markov_sweep,
    two_delta_sweep,
)
from ..nscan import segment_shift, segment_sort
from .last_value import LastValueTable


def last_value_sweep(pc, value):
    """Per-load ``(would_use, correct)`` of the default last-value
    table."""
    reference = LastValueTable()
    index = (pc >> 2) & reference.index_mask
    order, seg_start, seg_id = segment_sort(index)
    v = value[order]
    return confidence_gate(order, seg_id, segment_shift(v, seg_start, 0) == v,
                           reference)


#: runner-facing dispatch: value-predictor kind -> sweep
SWEEPS = {
    "last": last_value_sweep,
    "stride": two_delta_sweep,
    "fcm": markov_sweep,
    "hybrid": hybrid_sweep,
}
