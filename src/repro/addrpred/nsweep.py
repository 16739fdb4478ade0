"""Vectorized load-stream predictor sweeps (numpy kernel).

Each sweep takes the ``(pc, stream)`` arrays of the dynamic loads in
program order — the stream being effective addresses or loaded values
(:func:`_load_stream`) — and reproduces the sequential pass of its
default-parameter table exactly, returning per-load
``(would_use, correct)``.  Loads are bucketed by *table index* (aliasing
included) with :func:`repro.nscan.segment_sort`; within a bucket the
entry state unfolds without a sequential walk:

- **two-delta** — ``last`` / ``last_stride`` are segment shifts of the
  stream and observed-stride arrays; the *predicting* stride is the
  observed stride at the latest earlier promotion (stride seen twice in
  a row), recovered with a running-max forward fill over promotion
  positions, validated against the segment start so promotions never
  leak across buckets;
- **Markov** — a second segment sort by correlation slot makes the
  prediction a segment shift of the stream in slot order, exactly the
  program-order overwrite sequence of the shared second-level table;
- **hybrid** — both component sweeps plus a segmented clamped-counter
  scan for the per-PC chooser, active only on component disagreement.

Every confidence counter (+1 correct / -2 wrong) is a segmented
clamped-counter scan: correctness is determined by the stream alone, so
it is computed *before* the confidence pass (:func:`confidence_gate`).

Per-PC histograms (:class:`repro.addrpred.runner.PerPCStat`) re-bucket
the same outcome stream by PC, where occurrence ranks, warm hits and
delta changes are segment arithmetic.
"""

import numpy as np

from ..nscan import (
    KeySegments,
    segment_first_index,
    segment_shift,
    segment_sort,
    segmented_counter_states,
)
from ..trace.records import LD
from .markov import HybridTable, MarkovTable
from .runner import PC_WARMUP, PerPCStat
from .two_delta import TwoDeltaTable

_MASK32 = np.int64(0xFFFFFFFF)


def _load_stream(trace, column):
    """(positions, pc, stream) of every dynamic load, program order;
    ``column`` names the 32-bit stream (``eff_addr`` or ``mem_value``)."""
    soa = trace.soa()
    mask = soa.gathered("cls") == LD
    positions = np.flatnonzero(mask)
    pc = soa.gathered("pc")[mask]
    stream = soa.dyn[column][mask] & _MASK32
    return positions, pc, stream


def confidence_gate(order, seg_id, correct_sorted, reference):
    """Per-load ``(would_use, correct)`` in program order, from
    correctness in entry-bucket order: the gate is ``reference``'s
    saturating confidence counter, scanned per bucket."""
    confidence = segmented_counter_states(
        seg_id, np.where(correct_sorted, reference.correct_reward,
                         -reference.wrong_penalty),
        0, reference.counter_max, 0)
    n = order.shape[0]
    would_use = np.empty(n, dtype=bool)
    would_use[order] = confidence >= reference.confidence_threshold
    correct = np.empty(n, dtype=bool)
    correct[order] = correct_sorted
    return would_use, correct


def two_delta_sweep(pc, stream):
    """Per-load ``(would_use, correct)`` of the default two-delta table."""
    reference = TwoDeltaTable()
    index = (pc >> 2) & reference.index_mask
    order, seg_start, seg_id = segment_sort(index)

    s = stream[order]
    last = segment_shift(s, seg_start, 0)
    new_stride = (s - last) & _MASK32
    promoted = new_stride == segment_shift(new_stride, seg_start, 0)

    # Predicting stride before each event: the observed stride at the
    # latest earlier promotion in the same bucket, else the initial 0.
    slots = np.arange(s.shape[0], dtype=np.int64)
    latest = np.maximum.accumulate(np.where(promoted, slots, -1))
    earlier = segment_shift(latest, seg_start, -1)
    in_bucket = earlier >= segment_first_index(seg_start)
    stride = np.where(in_bucket, new_stride[np.where(in_bucket, earlier, 0)],
                      0)

    predicted = (last + stride) & _MASK32
    return confidence_gate(order, seg_id, predicted == s, reference)


def markov_sweep(pc, stream):
    """Per-load ``(would_use, correct)`` of the default Markov table."""
    reference = MarkovTable()
    n = stream.shape[0]

    # First level: each entry's last observation (the *context*) is a
    # segment shift within its table-index bucket.
    index = (pc >> 2) & reference.index_mask
    order, seg_start, seg_id = segment_sort(index)
    context = np.empty(n, dtype=np.int64)
    context[order] = segment_shift(stream[order], seg_start, 0)

    # Second level: every event writes its observation to its
    # correlation slot, so the prediction is the previous observation in
    # slot order.
    slot = ((pc >> 2) ^ (context >> 2) ^ (context >> 13)) \
        & reference.correlation_mask
    slot_order, slot_start, _ = segment_sort(slot)
    predicted = np.empty(n, dtype=np.int64)
    predicted[slot_order] = segment_shift(stream[slot_order], slot_start, 0)
    correct = (predicted == stream) & (predicted != 0)

    # Confidence lives in the first-level entry.
    return confidence_gate(order, seg_id, correct[order], reference)


def hybrid_sweep(pc, stream):
    """Per-load ``(would_use, correct)`` of the default hybrid
    (two-delta + Markov + chooser) table."""
    stride_use, stride_ok = two_delta_sweep(pc, stream)
    markov_use, markov_ok = markov_sweep(pc, stream)
    reference = HybridTable()

    # Chooser: saturating counter per PC slot, stepped only when the
    # components disagree (+1 toward Markov when Markov was right).
    slot = (pc >> 2) & reference.chooser_mask
    order, _, seg_id = segment_sort(slot)
    disagree = stride_ok != markov_ok
    step = np.where(markov_ok, 1, -1)
    state = np.empty(stream.shape[0], dtype=np.int64)
    state[order] = segmented_counter_states(
        seg_id, step[order], 0, reference.chooser_max,
        reference.chooser_threshold - 1, active=disagree[order])
    pick_markov = state >= reference.chooser_threshold

    return (np.where(pick_markov, markov_use, stride_use),
            np.where(pick_markov, markov_ok, stride_ok))


def per_pc_sweep(pc, stream, would_use, correct):
    """Vectorized :class:`PerPCStat` histograms, keyed by load PC in
    first-occurrence order, like the sequential pass."""
    seg = KeySegments(pc)
    s = stream[seg.order]
    hit = correct[seg.order]
    used = would_use[seg.order]

    # Deltas exist from the second occurrence of a PC on; a change is
    # counted from the third (previous delta defined).
    delta = (s - segment_shift(s, seg.start, 0)) & _MASK32
    changed = (seg.rank >= 3) & (delta != segment_shift(delta, seg.start, 0))

    ends = seg.starts + seg.counts - 1
    last_delta = [value if count >= 2 else None for value, count
                  in zip(delta[ends].tolist(), seg.counts.tolist())]
    return seg.records(
        PerPCStat, count=seg.counts, correct=seg.sums(hit),
        attempted=seg.sums(used), attempted_correct=seg.sums(used & hit),
        warm_correct=seg.sums(hit & (seg.rank > PC_WARMUP)),
        delta_changes=seg.sums(changed), _last=s[ends],
        _last_delta=last_delta)
