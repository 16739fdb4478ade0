"""Segmented-scan primitives for the vectorized predictor sweeps.

The program-order predictor passes (``repro.bpred``, ``repro.addrpred``,
``repro.vpred``) are serial per *table entry* but independent across
entries: every event at one index sees only the state left by earlier
events at the same index.  Sorting events stably by index therefore
turns each pass into a batch of short per-segment recurrences, and the
recurrences themselves are compositions of saturating-counter steps —
clamped-affine maps ``x -> min(hi, max(lo, x + step))`` — which are
closed under composition:

    (g o f)  =  (s_f + s_g,
                 min(hi_g, max(lo_g, lo_f + s_g)),
                 min(hi_g, max(lo_g, hi_f + s_g)))

so a Hillis-Steele doubling scan computes every event's pre-update
counter value in ``O(log longest-segment)`` vector rounds, byte-exact
against the sequential update loop.

These helpers are deliberately free of predictor policy: the sweep
modules own index hashing, stride rules and bookkeeping.  The per-PC
histogram sweeps of every family share :class:`KeySegments` (occurrence
ranks and per-key sums) and :func:`first_occurrence` (structurally cold
first accesses).
"""

import numpy as np

#: "Unclamped" sentinel bounds for identity (inactive) steps.  Step sums
#: are bounded by a few times the trace length, far below 2**40.
INF = np.int64(1) << np.int64(40)


def segment_sort(keys):
    """Stable sort into per-key segments.

    Returns ``(order, seg_start, seg_id)``: ``order`` maps sorted slot ->
    original index (so ``out[order] = result_sorted`` scatters back),
    ``seg_start`` flags the first sorted element of each segment and
    ``seg_id`` numbers segments consecutively.
    """
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    n = order.shape[0]
    seg_start = np.empty(n, dtype=bool)
    if n:
        seg_start[0] = True
        seg_start[1:] = sorted_keys[1:] != sorted_keys[:-1]
    seg_id = np.cumsum(seg_start) - 1
    return order, seg_start, seg_id


def segment_shift(values, seg_start, fill=0):
    """Each element's predecessor within its segment (``fill`` at starts)."""
    out = np.empty_like(values)
    if out.shape[0]:
        out[0] = fill
        out[1:] = values[:-1]
        out[seg_start] = fill
    return out


def segment_first_index(seg_start):
    """Index of the segment's first element, per element (sorted order)."""
    n = seg_start.shape[0]
    idx = np.arange(n, dtype=np.int64)
    if n == 0:
        return idx
    return np.maximum.accumulate(np.where(seg_start, idx, 0))


def first_occurrence(keys):
    """Per element, True where its key occurs for the first time."""
    order, seg_start, _ = segment_sort(keys)
    first = np.empty(keys.shape[0], dtype=bool)
    first[order] = seg_start
    return first


class KeySegments:
    """Events bucketed by key: the skeleton of a per-key histogram sweep.

    ``order`` and ``start`` come from :func:`segment_sort`; ``rank`` is
    each sorted event's 1-based occurrence number within its key,
    ``starts`` and ``counts`` the sorted slot and length of each segment.
    :meth:`sums` totals a column per segment and :meth:`records` turns
    per-segment columns into one histogram object per key.
    """

    def __init__(self, keys):
        n = keys.shape[0]
        self.order, self.start, _ = segment_sort(keys)
        self.rank = np.arange(n, dtype=np.int64) \
            - segment_first_index(self.start) + 1
        self.starts = np.flatnonzero(self.start)
        self.counts = np.diff(np.append(self.starts, n))
        self._keys = keys

    def sums(self, values):
        """Per-segment sum of a column in sorted order."""
        return np.add.reduceat(values.astype(np.int64), self.starts)

    def records(self, factory, **columns):
        """``{key: factory(key)}`` in first-occurrence order, each record's
        attributes set from the per-segment ``columns``."""
        first = self.order[self.starts]
        keys = self._keys[first].tolist()
        lists = {name: values.tolist() if isinstance(values, np.ndarray)
                 else list(values) for name, values in columns.items()}
        records = {}
        for i in np.argsort(first).tolist():
            record = records[keys[i]] = factory(keys[i])
            for name, values in lists.items():
                setattr(record, name, values[i])
        return records


def segmented_counter_states(seg_id, step, lo, hi, initial, active=None):
    """Pre-update saturating-counter value at every event.

    Each active event applies ``x -> min(hi, max(lo, x + step))`` to its
    segment's counter; inactive events (``active`` false) leave it
    untouched.  Every segment starts at ``initial``.  Input arrays are in
    segment-sorted order; the result matches it.
    """
    n = seg_id.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    s = step.astype(np.int64, copy=True)
    l = np.full(n, lo, dtype=np.int64)
    h = np.full(n, hi, dtype=np.int64)
    if active is not None:
        inactive = ~active
        s[inactive] = 0
        l[inactive] = -INF
        h[inactive] = INF
    seg_start = np.empty(n, dtype=bool)
    seg_start[0] = True
    seg_start[1:] = seg_id[1:] != seg_id[:-1]
    # Exclusive scan: shift the triples down one slot per segment so each
    # event composes exactly the events strictly before it.
    s = segment_shift(s, seg_start, 0)
    l = segment_shift(l, seg_start, -INF)
    h = segment_shift(h, seg_start, INF)
    longest = int(np.bincount(seg_id).max())
    distance = 1
    while distance < longest:
        valid = np.zeros(n, dtype=bool)
        valid[distance:] = seg_id[distance:] == seg_id[:-distance]
        g = np.flatnonzero(valid)
        f = g - distance
        sf, lf, hf = s[f], l[f], h[f]
        sg, lg, hg = s[g], l[g], h[g]
        s[g] = sf + sg
        l[g] = np.minimum(hg, np.maximum(lg, lf + sg))
        h[g] = np.minimum(hg, np.maximum(lg, hf + sg))
        distance <<= 1
    return np.minimum(h, np.maximum(l, np.int64(initial) + s))
