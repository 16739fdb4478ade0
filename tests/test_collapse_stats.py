"""CollapseStats accounting unit tests."""

from repro.collapse import (
    CAT_0OP,
    CAT_3_1,
    CAT_4_1,
    CollapseStats,
    distance_bucket,
)


def test_distance_buckets():
    assert distance_bucket(1) == "1"
    assert distance_bucket(2) == "2"
    assert distance_bucket(3) == "3"
    assert distance_bucket(4) == "4"
    assert distance_bucket(5) == "5-7"
    assert distance_bucket(7) == "5-7"
    assert distance_bucket(8) == "8-15"
    assert distance_bucket(15) == "8-15"
    assert distance_bucket(16) == ">15"
    assert distance_bucket(10_000) == ">15"


def populated():
    stats = CollapseStats()
    stats.record_event(CAT_3_1, 1, ("arri", "arri"))
    stats.record_event(CAT_3_1, 2, ("arri", "brc"))
    stats.record_event(CAT_4_1, 6, ("arri", "arri", "ldrr"))
    stats.record_event(CAT_0OP, 20, ("shri", "arrr", "ldr0"))
    # The scheduler sets the distinct-member count when its run ends
    # (test_scheduler_collapse.py counts it).
    stats.collapsed = 8
    stats.trace_length = 40
    return stats


def test_event_and_category_counts():
    stats = populated()
    assert stats.events == 4
    assert stats.category_counts[CAT_3_1] == 2
    assert stats.category_counts[CAT_4_1] == 1
    assert stats.category_counts[CAT_0OP] == 1


def test_category_fractions_sum_to_one():
    fractions = populated().category_fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-12


def test_pair_and_triple_tables():
    stats = populated()
    assert stats.pair_signatures[("arri", "arri")] == 1
    assert stats.pair_signatures[("arri", "brc")] == 1
    assert stats.triple_signatures[("arri", "arri", "ldrr")] == 1
    pairs = stats.top_pairs()
    assert abs(sum(share for _, share in pairs) - 1.0) < 1e-12


def test_distance_histogram_and_within():
    stats = populated()
    histogram = stats.distance_histogram()
    assert abs(sum(histogram.values()) - 1.0) < 1e-12
    assert abs(stats.fraction_within(8) - 3 / 4) < 1e-12
    assert stats.fraction_within(1) == 1 / 4


def test_merge_accumulates():
    a = populated()
    b = populated()
    a.merge(b)
    assert a.events == 8
    assert a.trace_length == 80
    assert a.collapsed == 16
    assert a.collapsed_fraction == 16 / 80
    assert a.category_counts[CAT_3_1] == 4


def test_codec_round_trips_exactly():
    """Decoding a payload and encoding it again gives the payload back,
    and merging decoded stats gives what merging the originals gives."""
    payload = populated().to_payload()
    assert payload["collapsed"] == 8
    assert CollapseStats.from_payload(payload).to_payload() == payload
    fresh = populated().merge(populated())
    decoded = CollapseStats.from_payload(payload).merge(
        CollapseStats.from_payload(payload))
    assert decoded.to_payload() == fresh.to_payload()


def test_empty_stats_safe():
    stats = CollapseStats()
    assert stats.collapsed_fraction == 0.0
    assert stats.fraction_within(8) == 0.0
    assert stats.top_pairs() == []
    assert stats.distance_histogram() == {}
