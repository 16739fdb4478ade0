"""Unit tests for expression groups and collapse legality/categories."""

from unittest import mock

import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from repro.collapse import (
    CAT_0OP,
    CAT_3_1,
    CAT_4_1,
    CollapseRules,
    Group,
    merge_category,
)
from repro.collapse import classify
from repro.errors import ConfigError

RULES = CollapseRules.paper()


def group(position, sig="arrr", leaves=2, zeros=0):
    return Group(position, sig, leaves, zeros)


def test_pair_of_two_operand_ops_is_3_1():
    consumer = group(1)
    category = consumer.try_merge(group(0), uses=1, rules=RULES)
    assert category == CAT_3_1
    assert consumer.leaves == 3
    assert consumer.size == 2
    assert consumer.sigs == ["arrr", "arrr"]


def test_double_use_pair_is_4_1():
    """Rb = Ra + Rd; Rc = Rb + Rb -> (Ra+Rd)+(Ra+Rd): a 4-1 expression."""
    consumer = group(1)
    category = consumer.try_merge(group(0), uses=2, rules=RULES)
    assert category == CAT_4_1
    assert consumer.leaves == 4


def test_triple_chain_is_4_1():
    b = group(1)
    assert b.try_merge(group(0), uses=1, rules=RULES) == CAT_3_1
    c = group(2)
    assert c.try_merge(b, uses=1, rules=RULES) == CAT_4_1
    assert c.size == 3
    assert c.positions == [0, 1, 2]
    assert c.leaves == 4


def test_fourth_instruction_rejected_by_group_limit():
    b = group(1, leaves=1)
    b.try_merge(group(0, leaves=1), uses=1, rules=RULES)
    c = group(2, leaves=1)
    c.try_merge(b, uses=1, rules=RULES)
    d = group(3, leaves=1)
    assert d.try_merge(c, uses=1, rules=RULES) is None
    assert d.size == 1                      # unchanged on failure


def test_leaf_limit_rejected():
    """Two 3-leaf expressions merge to 5 leaves: illegal."""
    wide_consumer = group(1, leaves=3)
    wide_producer = group(0, leaves=3)
    assert wide_consumer.try_merge(wide_producer, 1, RULES) is None
    assert wide_consumer.leaves == 3


def test_zero_detection_paper_example_four_instructions():
    """Section 3's example: or/sub/srl feed ``ld [rD + 0]``.  The raw
    expression is 5-1, but the zero displacement shrinks it to 4-1 and a
    *four*-instruction collapse becomes legal, credited to 0-op."""
    srl = Group(2, "shrr", leaves=2, zeros=0)
    assert srl.try_merge(Group(0, "lgri", 2, 0), 1, RULES) == CAT_3_1
    assert srl.try_merge(Group(1, "arri", 2, 0), 1, RULES) == CAT_4_1
    assert srl.leaves == 4
    load = Group(3, "ldr0", leaves=1, zeros=1)
    category = load.try_merge(srl, 1, RULES)
    assert category == CAT_0OP
    assert load.size == 4


def test_zero_detection_credited_on_double_use_triple():
    """Producer pair with 4 clean leaves feeding ``ld [rB + 0]``: raw 5,
    clean 4 -> only legal via zero detection."""
    producer = group(1)
    producer.try_merge(group(0), uses=2, rules=RULES)    # leaves 4, raw 4
    consumer = Group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(producer, 1, RULES) == CAT_0OP


def test_zero_detection_disabled_blocks_those_collapses():
    rules = CollapseRules.no_zero_detection()
    producer = group(1)
    producer.try_merge(group(0), uses=2, rules=rules)
    consumer = Group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(producer, 1, rules) is None
    srl = Group(2, "shrr", leaves=2, zeros=0)
    srl.try_merge(Group(0, "lgri", 2, 0), 1, rules)
    srl.try_merge(Group(1, "arri", 2, 0), 1, rules)
    load = Group(3, "ldr0", leaves=1, zeros=1)
    assert load.try_merge(srl, 1, rules) is None


def test_leaves_exactly_at_limit_is_legal_4_1():
    """Boundary: merged leaves == max_leaves must pass, not be rejected."""
    consumer = group(1, leaves=2)
    producer = group(0, leaves=3)
    assert consumer.try_merge(producer, 1, RULES) == CAT_4_1
    assert consumer.leaves == RULES.max_leaves == 4


def test_zeros_without_need_are_not_credited_0op():
    """Boundary: raw_leaves == max_leaves with zeros present.  The merge
    would succeed on a device without zero detection, so it is credited
    by its zero-free leaf count (3-1 here), not 0-op."""
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    producer = group(0, leaves=2)
    assert consumer.try_merge(producer, 1, RULES) == CAT_3_1
    assert consumer.leaves == 2 and consumer.raw_leaves == 3
    rules = CollapseRules.no_zero_detection()
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(group(0, leaves=2), 1, rules) == CAT_3_1


def test_raw_leaves_past_limit_needs_zero_detection():
    """Boundary: raw_leaves == max_leaves + 1 is the first raw count that
    flips the credit to 0-op — and the first that fails without zero
    detection."""
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    producer = group(0, leaves=4)           # raw 5, zero-free 4
    assert consumer.try_merge(producer, 1, RULES) == CAT_0OP
    assert consumer.raw_leaves == 5 and consumer.leaves == 4
    consumer = Group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.try_merge(group(0, leaves=4), 1,
                              CollapseRules.no_zero_detection()) is None


def test_extra_member_allowance_requires_zeros():
    """size == max_group + 1 is only legal when zeros justify it: a
    zero-free four-chain stays illegal even with zero detection on."""
    b = group(1, leaves=1)
    b.try_merge(group(0, leaves=1), 1, RULES)
    c = group(2, leaves=1)
    c.try_merge(b, 1, RULES)
    d = group(3, leaves=1)                   # raw == leaves: no zeros
    assert d.try_merge(c, 1, RULES) is None
    assert d.size == 1 and d.leaves == 1


def test_branch_collapse_with_compare():
    brc = Group(1, "brc", leaves=1, zeros=0)
    category = brc.try_merge(group(0, "arri", leaves=2), 1, RULES)
    assert category == CAT_3_1
    assert brc.sigs == ["arri", "brc"]
    assert brc.leaves == 2


def test_move_immediate_collapse_small():
    consumer = group(1, "lgri", leaves=2)
    category = consumer.try_merge(Group(0, "mvi", 1, 0), 1, RULES)
    assert category == CAT_3_1
    assert consumer.leaves == 2


def test_merge_category_pure_check_does_not_mutate():
    consumer = group(1)
    producer = group(0)
    assert merge_category(consumer, producer, 1, RULES) == CAT_3_1
    assert consumer.size == 1 and consumer.leaves == 2


def test_sigs_kept_in_program_order():
    b = Group(5, "shri", 2, 0)
    b.try_merge(Group(2, "arri", 2, 0), 1, RULES)
    c = Group(9, "ldrr", 2, 0)
    c.try_merge(b, 1, RULES)
    assert c.sigs == ["arri", "shri", "ldrr"]
    assert c.positions == [2, 5, 9]


def test_rules_validation():
    with pytest.raises(ConfigError):
        CollapseRules(max_group=1)
    with pytest.raises(ConfigError):
        CollapseRules(max_leaves=1)


def test_rules_describe_mentions_restrictions():
    text = CollapseRules.consecutive_only().describe()
    assert "consecutive-only" in text
    text = CollapseRules.within_block_only().describe()
    assert "within-block" in text


# ----------------------------------------------------------------------
# try_merge against a reference merge.  try_merge concatenates when the
# producer lies wholly before the consumer and merges by sorted position
# otherwise; both must equal merging every member through a dict keyed
# by position and sorting it.

SIGS = ("arrr", "arri", "ldr0", "shri", "lgrr", "brc")


def sig_of(position):
    """A position's signature is fixed, as in a trace, so a member
    shared by both groups carries the same signature in each."""
    return SIGS[position % len(SIGS)]


def make_group(positions, leaves, zeros):
    group = Group(positions[-1], sig_of(positions[-1]), leaves, zeros)
    group.positions = list(positions)
    group.sigs = [sig_of(position) for position in positions]
    return group


def snapshot(group):
    return (list(group.positions), list(group.sigs), group.leaves,
            group.raw_leaves)


def reference_merge(consumer, producer, uses, rules):
    """(category, consumer state afterwards) by the pure legality check
    and a sorted-dict merge of the members."""
    category = merge_category(consumer, producer, uses, rules)
    if category is None:
        return None, snapshot(consumer)
    merged = {}
    for position, sig in zip(consumer.positions, consumer.sigs):
        merged[position] = sig
    for position, sig in zip(producer.positions, producer.sigs):
        merged[position] = sig
    order = sorted(merged)
    leaves, raw = consumer.merged_counts(producer, uses)
    return category, (order, [merged[position] for position in order],
                      leaves, raw)


def check_against_reference(consumer, producer, uses, rules):
    """Merge and compare with the reference; returns the branch that
    performed the merge ("concatenate" or "sorted"), or None when the
    merge was illegal."""
    before = producer.positions[-1] < consumer.positions[0]
    producer_state = snapshot(producer)
    expected_category, expected_state = reference_merge(consumer, producer,
                                                        uses, rules)
    with mock.patch.object(classify, "sorted", create=True,
                           wraps=sorted) as spy:
        category = consumer.try_merge(producer, uses, rules)
    assert category == expected_category
    assert snapshot(consumer) == expected_state
    assert snapshot(producer) == producer_state
    if category is None:
        return None
    assert spy.call_count == (0 if before else 1)
    return "concatenate" if before else "sorted"


positions_strategy = st.lists(st.integers(4, 28), min_size=1, max_size=3,
                              unique=True).map(sorted)


@st.composite
def merge_cases(draw):
    consumer_positions = draw(positions_strategy)
    if draw(st.booleans()):
        # Wholly before the consumer, as nearly every scheduler merge is.
        producer_positions = sorted(draw(st.lists(
            st.integers(0, consumer_positions[0] - 1), min_size=1,
            max_size=3, unique=True)))
    else:
        # Anywhere: interleaved with, overlapping or after the consumer.
        producer_positions = draw(positions_strategy)
    consumer = make_group(consumer_positions, draw(st.integers(1, 4)),
                          draw(st.integers(0, 2)))
    producer = make_group(producer_positions, draw(st.integers(1, 4)),
                          draw(st.integers(0, 2)))
    rules = CollapseRules(max_group=draw(st.integers(2, 9)),
                          max_leaves=draw(st.integers(2, 12)),
                          zero_detection=draw(st.booleans()))
    return consumer, producer, draw(st.integers(1, 2)), rules


@given(merge_cases())
def test_try_merge_equals_sorted_dict_reference(case):
    branch = check_against_reference(*case)
    event("merge: %s" % (branch or "illegal",))


@pytest.mark.parametrize("consumer, producer, branch", [
    (([6, 9], 2, 0), ([2, 4], 2, 0), "concatenate"),
    (([4, 9], 2, 0), ([6], 2, 0), "sorted"),          # interleaved
    (([4, 9], 2, 0), ([4, 7], 2, 0), "sorted"),       # shares member 4
    (([5], 2, 0), ([8], 2, 0), "sorted"),             # wholly after
])
def test_try_merge_reaches_both_branches(consumer, producer, branch):
    rules = CollapseRules(max_group=8, max_leaves=8)
    assert check_against_reference(make_group(*consumer),
                                   make_group(*producer), 1,
                                   rules) == branch


def test_overlapping_merge_keeps_each_member_once():
    consumer = make_group([4, 9], 2, 0)
    consumer.try_merge(make_group([4, 7], 2, 0), 1,
                       CollapseRules(max_group=8, max_leaves=8))
    assert consumer.positions == [4, 7, 9]
    assert consumer.sigs == [sig_of(4), sig_of(7), sig_of(9)]
