"""Vectorized branch-predictor sweeps (numpy kernel).

Reproduces :func:`repro.bpred.runner.run_branch_predictor` for the
default-parameter combining, bimodal and local-history predictors
exactly, without the per-branch Python loop:

- the global history register seen by conditional branch ``j`` is
  rebuilt with shifted ORs — bit ``k`` of the pre-branch history is
  simply ``taken[j - 1 - k]`` over the conditional-branch stream;
- the local predictor's per-branch history registers are the same
  construction *per history slot*: sorted stably by slot, bit ``k`` of
  an event's history is its ``k+1``-back predecessor within the slot
  segment;
- each counter table (bimodal, gshare, chooser, local PHT) becomes a
  segmented clamped-counter scan over events bucketed by table index
  (:mod:`repro.nscan`), yielding every branch's pre-update counter —
  which also gives the confidence bit (counter at 0 or maximum) for
  free;
- the chooser participates only on component disagreement, expressed as
  inactive (identity) steps rather than a separate event stream, which
  keeps its scan aligned with the prediction stream.

The scalar runner stays the reference semantics; the results here are
byte-identical (the equivalence suite compares both on every workload).
"""

import numpy as np

from ..addrpred.runner import PC_WARMUP
from ..nscan import (
    KeySegments,
    segment_first_index,
    segment_sort,
    segmented_counter_states,
)
from ..trace.records import BRC
from .bimodal import BimodalPredictor
from .combining import CombiningPredictor
from .local import LocalHistoryPredictor
from .runner import PerPCBranchStat


def _branch_stream(trace):
    """(positions, pc, taken) over the conditional-branch stream."""
    soa = trace.soa()
    cls = soa.gathered("cls")
    mask = cls == BRC
    positions = np.flatnonzero(mask)
    pc = soa.gathered("pc")[mask]
    taken = soa.dyn["taken"][mask]
    return positions, pc, taken


def _table_states(index, step, table, active=None):
    """Pre-update counter value per event for one :class:`CounterTable`."""
    order, _, seg_id = segment_sort(index)
    act = active[order] if active is not None else None
    states_sorted = segmented_counter_states(
        seg_id, step[order], 0, table.maximum, table.value(0), act)
    states = np.empty(index.shape[0], dtype=np.int64)
    states[order] = states_sorted
    return states


def _saturated(states, table):
    """Confidence bit per event: the pre-update counter is pinned."""
    return (states == 0) | (states == table.maximum)


def _global_history(taken, history_bits):
    """Per-branch global history register (state *before* the branch)."""
    n = taken.shape[0]
    history = np.zeros(n, dtype=np.int64)
    bits = taken.astype(np.int64)
    for k in range(history_bits):
        if n - 1 - k <= 0:
            break
        history[k + 1:] |= bits[:n - 1 - k] << k
    return history


def _segment_history(seg_start, taken_sorted, history_bits):
    """Per-event history register within each segment (pre-update).

    ``taken_sorted`` is the outcome stream in segment-sorted order; bit
    ``k`` of an event's history is its ``k+1``-back predecessor inside
    the same segment (most recent outcome in bit 0), zero-filled at
    segment starts — exactly the ``(history << 1) | taken`` register
    the scalar local predictor shifts.
    """
    n = taken_sorted.shape[0]
    history = np.zeros(n, dtype=np.int64)
    bits = taken_sorted.astype(np.int64)
    first = segment_first_index(seg_start)
    idx = np.arange(n, dtype=np.int64)
    for k in range(history_bits):
        if n - 1 - k <= 0:
            break
        contribution = np.zeros(n, dtype=np.int64)
        contribution[k + 1:] = bits[:n - 1 - k] << k
        history |= np.where(idx - (k + 1) >= first, contribution, 0)
    return history


def combining_sweep(trace):
    """Per-conditional-branch outcome of the default combining predictor.

    Returns ``(positions, correct, confident, conditional)``: the trace
    positions of conditional branches, matching bool arrays of
    prediction correctness and pre-update confidence, and the branch
    count.
    """
    positions, pc, taken = _branch_stream(trace)
    conditional = int(positions.shape[0])
    if not conditional:
        empty = np.empty(0, dtype=bool)
        return positions, empty, empty, 0

    reference = CombiningPredictor()
    word = pc >> 2
    step = np.where(taken, 1, -1).astype(np.int64)

    bimodal_table = reference.bimodal.table
    bimodal_index = word & (bimodal_table.size - 1)
    bimodal_states = _table_states(bimodal_index, step, bimodal_table)
    bimodal_pred = bimodal_states >= bimodal_table.threshold

    gshare = reference.gshare
    history = _global_history(taken, gshare.history_bits) \
        & gshare.history_mask
    gshare_index = (word ^ history) & (gshare.table.size - 1)
    gshare_states = _table_states(gshare_index, step, gshare.table)
    gshare_pred = gshare_states >= gshare.table.threshold

    chooser = reference.chooser
    disagree = bimodal_pred != gshare_pred
    chooser_step = np.where(gshare_pred == taken, 1, -1).astype(np.int64)
    chooser_index = word & (chooser.size - 1)
    use_gshare = _table_states(chooser_index, chooser_step, chooser,
                               active=disagree) >= chooser.threshold

    predicted = np.where(use_gshare, gshare_pred, bimodal_pred)
    chosen_states = np.where(use_gshare, gshare_states, bimodal_states)
    confident = _saturated(chosen_states, bimodal_table)
    return positions, predicted == taken, confident, conditional


def bimodal_sweep(trace):
    """Per-conditional-branch outcome of the default bimodal predictor."""
    positions, pc, taken = _branch_stream(trace)
    conditional = int(positions.shape[0])
    if not conditional:
        empty = np.empty(0, dtype=bool)
        return positions, empty, empty, 0
    reference = BimodalPredictor()
    table = reference.table
    step = np.where(taken, 1, -1).astype(np.int64)
    index = (pc >> 2) & (table.size - 1)
    states = _table_states(index, step, table)
    predicted = states >= table.threshold
    return (positions, predicted == taken, _saturated(states, table),
            conditional)


def local_sweep(trace):
    """Per-conditional-branch outcome of the default two-level local
    (PAg) predictor."""
    positions, pc, taken = _branch_stream(trace)
    conditional = int(positions.shape[0])
    if not conditional:
        empty = np.empty(0, dtype=bool)
        return positions, empty, empty, 0
    reference = LocalHistoryPredictor()
    word = pc >> 2
    slot = word & reference.history_mask_index
    order, seg_start, _ = segment_sort(slot)
    history_sorted = _segment_history(seg_start, taken[order],
                                      reference.history_bits)
    history = np.empty(conditional, dtype=np.int64)
    history[order] = history_sorted
    pht = reference.pht
    step = np.where(taken, 1, -1).astype(np.int64)
    states = _table_states(history & (pht.size - 1), step, pht)
    predicted = states >= pht.threshold
    return (positions, predicted == taken, _saturated(states, pht),
            conditional)


#: runner-facing dispatch: predictor name -> sweep
SWEEPS = {
    "combining": combining_sweep,
    "bimodal": bimodal_sweep,
    "local": local_sweep,
}


def branch_per_pc_sweep(pc, taken, correct, confident):
    """Vectorized :class:`PerPCBranchStat` histograms, keyed by branch
    PC in first-occurrence order, like the sequential pass."""
    seg = KeySegments(pc)
    took = taken[seg.order]
    hit = correct[seg.order]
    sure = confident[seg.order]
    return seg.records(
        PerPCBranchStat, count=seg.counts, taken=seg.sums(took),
        correct=seg.sums(hit),
        warm_correct=seg.sums(hit & (seg.rank > PC_WARMUP)),
        confident=seg.sums(sure), confident_correct=seg.sums(sure & hit))
