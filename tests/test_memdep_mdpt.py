"""Unit tests for the memory-dependence prediction table (repro.memdep).

The MDPT is a direct-mapped PC-tagged table with small FIFO store sets
and a promotion counter; these tests pin down each mechanism in
isolation before the scheduler tests exercise them in the timing model.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memdep import (
    COUNTER_MAX,
    DEFAULT_ENTRIES,
    DEFAULT_STORE_SET,
    FLUSH_PENALTY,
    MDPT,
    PROMOTE_THRESHOLD,
    MemDepStats,
)

LOAD = 0x1000
STORE = 0x2000

#: Small PC alphabets for the ``lossless`` properties: six load PCs at
#: consecutive indexes (so tables of 1-4 entries alias some) and four
#: store PCs (so 1-3-entry store sets overflow).
LOADS = [LOAD + 4 * k for k in range(6)]
STORES = [STORE + 4 * k for k in range(4)]

trainings = st.lists(st.tuples(st.sampled_from(LOADS),
                               st.sampled_from(STORES)), max_size=24)
geometries = st.tuples(st.sampled_from([1, 2, 4, 8]),
                       st.sampled_from([1, 2, 3]))


def test_constants_sane():
    assert DEFAULT_ENTRIES & (DEFAULT_ENTRIES - 1) == 0
    assert PROMOTE_THRESHOLD >= 1
    assert COUNTER_MAX >= PROMOTE_THRESHOLD
    assert FLUSH_PENALTY > 0


def test_entries_must_be_power_of_two():
    with pytest.raises(ValueError):
        MDPT(entries=3)
    with pytest.raises(ValueError):
        MDPT(entries=0)
    MDPT(entries=1)      # degenerate but legal


def test_store_set_size_must_be_positive():
    with pytest.raises(ValueError):
        MDPT(store_set_size=0)


def test_unknown_load_predicts_nothing():
    table = MDPT()
    assert table.store_set(LOAD) is None
    assert table.lookups == 1
    assert table.hits == 0
    assert table.counter(LOAD) == 0


def test_promotion_requires_threshold_violations():
    table = MDPT()
    table.train(LOAD, STORE)
    # One violation allocates the entry but does not promote it.
    assert table.counter(LOAD) == 1
    assert table.store_set(LOAD) is None
    table.train(LOAD, STORE)
    assert table.counter(LOAD) == PROMOTE_THRESHOLD
    assert table.store_set(LOAD) == [STORE]
    assert table.hits == 1


def test_counter_saturates():
    table = MDPT()
    for _ in range(COUNTER_MAX + 5):
        table.train(LOAD, STORE)
    assert table.counter(LOAD) == COUNTER_MAX


def test_store_set_fifo_eviction():
    table = MDPT()
    stores = [STORE + 4 * i for i in range(DEFAULT_STORE_SET + 2)]
    for store in stores:
        table.train(LOAD, store)
    predicted = table.store_set(LOAD)
    # Most recent last, oldest two evicted.
    assert predicted == stores[2:]
    assert len(predicted) == DEFAULT_STORE_SET


def test_retraining_moves_store_to_most_recent():
    table = MDPT(store_set_size=2)
    table.train(LOAD, STORE)
    table.train(LOAD, STORE + 4)
    table.train(LOAD, STORE)          # re-offend: STORE becomes MRU
    assert table.store_set(LOAD) == [STORE + 4, STORE]
    table.train(LOAD, STORE + 8)      # evicts the older STORE + 4
    assert table.store_set(LOAD) == [STORE, STORE + 8]


def test_direct_mapped_tag_replacement():
    """Two load PCs that share an index evict each other."""
    table = MDPT(entries=2)
    other = LOAD + 2 * 4               # (pc >> 2) differs by 2 -> same index
    assert table._index(LOAD) == table._index(other)
    for _ in range(PROMOTE_THRESHOLD):
        table.train(LOAD, STORE)
    assert table.store_set(LOAD) == [STORE]
    table.train(other, STORE + 4)      # collides, replaces the entry
    assert table.collisions == 1
    assert table.store_set(LOAD) is None
    assert table.counter(other) == 1   # replacement restarts confidence
    # The evicted load must re-earn promotion from scratch.
    for _ in range(PROMOTE_THRESHOLD):
        table.train(LOAD, STORE)
    assert table.store_set(LOAD) == [STORE]


def test_distinct_indices_do_not_collide():
    table = MDPT(entries=DEFAULT_ENTRIES)
    for _ in range(PROMOTE_THRESHOLD):
        table.train(LOAD, STORE)
        table.train(LOAD + 4, STORE + 4)
    assert table.store_set(LOAD) == [STORE]
    assert table.store_set(LOAD + 4) == [STORE + 4]
    assert table.collisions == 0
    assert table.trainings == 2 * PROMOTE_THRESHOLD


def test_stats_record_and_distinct_pairs():
    stats = MemDepStats()
    stats.record_violation(LOAD, STORE, slice_size=3,
                           penalty=FLUSH_PENALTY)
    stats.record_violation(LOAD, STORE, slice_size=1,
                           penalty=FLUSH_PENALTY)
    stats.record_violation(LOAD + 4, STORE, slice_size=2,
                           penalty=FLUSH_PENALTY)
    assert stats.violations == 3
    assert stats.squashed == 6
    assert stats.flush_cycles == 3 * FLUSH_PENALTY
    assert len(stats.violation_pairs) == 2
    assert stats.violation_pairs[(LOAD, STORE)] == 2


def test_stats_merge_and_payload_round_trip():
    a = MemDepStats()
    a.loads = 10
    a.dependent = 4
    a.synchronized = 2
    a.false_syncs = 1
    a.record_violation(LOAD, STORE, 3, FLUSH_PENALTY)
    b = MemDepStats()
    b.loads = 5
    b.record_violation(LOAD, STORE, 1, FLUSH_PENALTY)
    b.record_violation(LOAD + 8, STORE, 1, FLUSH_PENALTY)
    a.merge(b)
    assert a.loads == 15
    assert a.violations == 3
    assert a.violation_pairs[(LOAD, STORE)] == 2
    restored = MemDepStats.from_payload(a.to_payload())
    assert restored.to_payload() == a.to_payload()
    assert restored.violation_pairs == a.violation_pairs


def _unbounded():
    """A table no training over the alphabets can make lose a pair."""
    return MDPT(entries=64, store_set_size=len(STORES))


@given(trainings, geometries)
def test_lossless_iff_training_loses_nothing(sequence, geometry):
    """``lossless`` holds exactly when training on the sequence replaces
    no tag and never shortens a store list."""
    entries, store_set = geometry
    table = MDPT(entries=entries, store_set_size=store_set)
    dropped = False
    for load_pc, store_pc in sequence:
        entry = table._table.get(table._index(load_pc))
        held = list(entry[2]) if entry and entry[0] == load_pc else None
        table.train(load_pc, store_pc)
        if held is not None and store_pc not in held:
            dropped |= len(entry[2]) == len(held)
    assert table.lossless(sequence) == \
        (table.collisions == 0 and not dropped)


@given(trainings, geometries)
def test_lossless_table_answers_like_an_unbounded_one(sequence, geometry):
    """After every step of a sequence it is lossless on, the table
    answers every load PC as a table too large to lose anything."""
    entries, store_set = geometry
    table = MDPT(entries=entries, store_set_size=store_set)
    if not table.lossless(sequence):
        return
    reference = _unbounded()
    for load_pc, store_pc in sequence:
        table.train(load_pc, store_pc)
        reference.train(load_pc, store_pc)
        for pc in LOADS:
            assert table.counter(pc) == reference.counter(pc)
            assert table.store_set(pc) == reference.store_set(pc)
