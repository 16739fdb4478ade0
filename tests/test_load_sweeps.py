"""The vectorized load-stream sweeps against the sequential tables and
histograms they reproduce, on synthetic ``(pc, stream)`` arrays.

The workload equivalence matrix (test_kernel_equivalence.py) checks the
same pairs on real traces; these properties reach the corners real
traces rarely hit: PCs that alias in the 4096-entry index, streams that
wrap at 2**32, PCs seen only once or twice, and the empty stream.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.addrpred import (
    HybridTable,
    MarkovTable,
    PerPCStat,
    TwoDeltaTable,
)
from repro.addrpred.nsweep import (
    hybrid_sweep,
    markov_sweep,
    per_pc_sweep,
    two_delta_sweep,
)
from repro.vpred import LastValueTable
from repro.vpred.nsweep import last_value_sweep

MASK32 = 0xFFFFFFFF
#: PCs this far apart share an entry of a 4096-entry table
ALIAS = 4 * 4096

#: a few hot PCs, three of them aliasing one entry, plus fresh PCs that
#: a stream usually sees only once or twice
PCS = st.one_of(
    st.sampled_from([0x1000, 0x1000 + ALIAS, 0x1000 + 7 * ALIAS,
                     0x1004, 0x2FFC]),
    st.integers(0, 1 << 20).map(lambda word: 4 * word))
#: per-PC steps: strides the two-delta rule locks onto, a sign flip, a
#: half-range jump and arbitrary 32-bit noise
STEPS = st.one_of(st.sampled_from([0, 4, 8, -4, 1 << 31]),
                  st.integers(0, MASK32))
#: stream origins, two of them a few strides below the 2**32 wrap
BASES = st.sampled_from([0, 0xFFFFFFF0, 0x7FFFFFFC, MASK32])

EVENTS = st.lists(st.tuples(PCS, STEPS, st.booleans(), st.booleans()),
                  max_size=120)

EDGE_CASES = [
    [],                                             # empty stream
    [(0x1000, 4, True, True)],                      # one load
    [(0x1000, 4, False, True), (0x1000, 4, True, False)],
    [(0x1000, 4, True, True), (0x1000 + ALIAS, 8, True, True)] * 6,
    # stride change exactly at the 2**32 wrap (from 0xFFFFFFF0), then a
    # downward walk through 0 at a second PC
    [(0x1000, step, True, False) for step in (4, 4, 4, 8, 8, 8)]
    + [(0x2FFC, -4, False, True)] * 4,
]


def _arrays(events, base):
    """``(pc, stream, would_use, correct)`` arrays: each PC walks its own
    stream from ``base`` by the event's step, wrapping at 2**32."""
    last = {}
    pcs, stream = [], []
    for pc, step, _, _ in events:
        value = (last.get(pc, base) + step) & MASK32
        last[pc] = value
        pcs.append(pc)
        stream.append(value)
    return (np.array(pcs, dtype=np.int64),
            np.array(stream, dtype=np.int64),
            np.array([e[2] for e in events], dtype=bool),
            np.array([e[3] for e in events], dtype=bool))


@pytest.mark.parametrize("table,sweep", [
    (TwoDeltaTable, two_delta_sweep),
    (MarkovTable, markov_sweep),
    (HybridTable, hybrid_sweep),
    (LastValueTable, last_value_sweep),
], ids=["two-delta", "markov", "hybrid", "last-value"])
@settings(max_examples=60, deadline=None)
@given(events=EVENTS, base=BASES)
@example(events=EDGE_CASES[0], base=0)
@example(events=EDGE_CASES[1], base=MASK32)
@example(events=EDGE_CASES[2], base=0xFFFFFFF0)
@example(events=EDGE_CASES[3], base=0xFFFFFFF0)
@example(events=EDGE_CASES[4], base=0xFFFFFFF0)
def test_sweep_matches_table(table, sweep, events, base):
    pc, stream, _, _ = _arrays(events, base)
    reference = table()
    outcomes = [reference.observe(p, v)
                for p, v in zip(pc.tolist(), stream.tolist())]
    would_use, correct = sweep(pc, stream)
    assert would_use.tolist() == [use for use, _, _ in outcomes]
    assert correct.tolist() == [ok for _, ok, _ in outcomes]


@settings(max_examples=100, deadline=None)
@given(events=EVENTS, base=BASES)
@example(events=EDGE_CASES[0], base=0)
@example(events=EDGE_CASES[1], base=MASK32)
@example(events=EDGE_CASES[2], base=0xFFFFFFF0)
@example(events=EDGE_CASES[3], base=0xFFFFFFF0)
@example(events=EDGE_CASES[4], base=0xFFFFFFF0)
def test_per_pc_sweep_matches_histograms(events, base):
    pc, stream, would_use, correct = _arrays(events, base)
    expected = {}
    for p, v, use, ok in zip(pc.tolist(), stream.tolist(),
                             would_use.tolist(), correct.tolist()):
        stat = expected.get(p)
        if stat is None:
            stat = expected[p] = PerPCStat(p)
        stat.observe(v, use, ok)
    swept = per_pc_sweep(pc, stream, would_use, correct)
    assert list(swept) == list(expected)        # first-occurrence order
    for p, stat in expected.items():
        for field in stat.__slots__:
            assert getattr(swept[p], field) == getattr(stat, field), \
                (hex(p), field)
