"""Unit tests for expression groups and collapse legality/categories,
through the interned-shape table the scheduler merges with."""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from references import Group

from repro.collapse import (
    CAT_0OP,
    CAT_3_1,
    CAT_4_1,
    CollapseRules,
    ShapeTable,
)
from repro.collapse import classify
from repro.errors import ConfigError

RULES = CollapseRules.paper()
NO_PROGRAM = SimpleNamespace(sig=(), leaves=(), zeros=())


class Expr:
    """One group of a table, merged the way the scheduler merges."""

    def __init__(self, table, position, sig="arrr", leaves=2, zeros=0):
        self.table = table
        self.group = (table.intern((sig,), leaves, leaves + zeros),
                      (position,))

    def merge(self, producer, uses=1):
        """Merge ``producer`` in; the category, or None (unchanged)."""
        merged = self.table.merge(self.group, producer.group, uses)
        if merged is None:
            return None
        self.group, category = merged
        return category

    @property
    def positions(self):
        return self.group[1]

    @property
    def sigs(self):
        return self.table.sigs[self.group[0]]

    @property
    def leaves(self):
        return self.table.leaves[self.group[0]]

    @property
    def raw_leaves(self):
        return self.table.raw[self.group[0]]

    @property
    def size(self):
        return len(self.positions)


def exprs(rules=RULES):
    """A fresh table's group constructor."""
    table = ShapeTable(rules, NO_PROGRAM)
    return lambda *args, **kwargs: Expr(table, *args, **kwargs)


def test_pair_of_two_operand_ops_is_3_1():
    group = exprs()
    consumer = group(1)
    assert consumer.merge(group(0)) == CAT_3_1
    assert consumer.leaves == 3
    assert consumer.size == 2
    assert consumer.sigs == ("arrr", "arrr")


def test_double_use_pair_is_4_1():
    """Rb = Ra + Rd; Rc = Rb + Rb -> (Ra+Rd)+(Ra+Rd): a 4-1 expression."""
    group = exprs()
    consumer = group(1)
    assert consumer.merge(group(0), uses=2) == CAT_4_1
    assert consumer.leaves == 4


def test_triple_chain_is_4_1():
    group = exprs()
    b = group(1)
    assert b.merge(group(0)) == CAT_3_1
    c = group(2)
    assert c.merge(b) == CAT_4_1
    assert c.size == 3
    assert c.positions == (0, 1, 2)
    assert c.leaves == 4


def test_fourth_instruction_rejected_by_group_limit():
    group = exprs()
    b = group(1, leaves=1)
    b.merge(group(0, leaves=1))
    c = group(2, leaves=1)
    c.merge(b)
    d = group(3, leaves=1)
    assert d.merge(c) is None
    assert d.size == 1                      # unchanged on failure


def test_leaf_limit_rejected():
    """Two 3-leaf expressions merge to 5 leaves: illegal."""
    group = exprs()
    wide_consumer = group(1, leaves=3)
    assert wide_consumer.merge(group(0, leaves=3)) is None
    assert wide_consumer.leaves == 3


def test_zero_detection_paper_example_four_instructions():
    """Section 3's example: or/sub/srl feed ``ld [rD + 0]``.  The raw
    expression is 5-1, but the zero displacement shrinks it to 4-1 and a
    *four*-instruction collapse becomes legal, credited to 0-op."""
    group = exprs()
    srl = group(2, "shrr")
    assert srl.merge(group(0, "lgri")) == CAT_3_1
    assert srl.merge(group(1, "arri")) == CAT_4_1
    assert srl.leaves == 4
    load = group(3, "ldr0", leaves=1, zeros=1)
    assert load.merge(srl) == CAT_0OP
    assert load.size == 4


def test_zero_detection_credited_on_double_use_triple():
    """Producer pair with 4 clean leaves feeding ``ld [rB + 0]``: raw 5,
    clean 4 -> only legal via zero detection."""
    group = exprs()
    producer = group(1)
    producer.merge(group(0), uses=2)        # leaves 4, raw 4
    consumer = group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(producer) == CAT_0OP


def test_zero_detection_disabled_blocks_those_collapses():
    group = exprs(CollapseRules.no_zero_detection())
    producer = group(1)
    producer.merge(group(0), uses=2)
    consumer = group(2, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(producer) is None
    srl = group(2, "shrr")
    srl.merge(group(0, "lgri"))
    srl.merge(group(1, "arri"))
    load = group(3, "ldr0", leaves=1, zeros=1)
    assert load.merge(srl) is None


def test_leaves_exactly_at_limit_is_legal_4_1():
    """Boundary: merged leaves == max_leaves must pass, not be rejected."""
    group = exprs()
    consumer = group(1, leaves=2)
    assert consumer.merge(group(0, leaves=3)) == CAT_4_1
    assert consumer.leaves == RULES.max_leaves == 4


def test_zeros_without_need_are_not_credited_0op():
    """Boundary: raw_leaves == max_leaves with zeros present.  The merge
    would succeed on a device without zero detection, so it is credited
    by its zero-free leaf count (3-1 here), not 0-op."""
    group = exprs()
    consumer = group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(group(0, leaves=2)) == CAT_3_1
    assert consumer.leaves == 2 and consumer.raw_leaves == 3
    group = exprs(CollapseRules.no_zero_detection())
    consumer = group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(group(0, leaves=2)) == CAT_3_1


def test_raw_leaves_past_limit_needs_zero_detection():
    """Boundary: raw_leaves == max_leaves + 1 is the first raw count that
    flips the credit to 0-op — and the first that fails without zero
    detection."""
    group = exprs()
    consumer = group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(group(0, leaves=4)) == CAT_0OP  # raw 5, clean 4
    assert consumer.raw_leaves == 5 and consumer.leaves == 4
    group = exprs(CollapseRules.no_zero_detection())
    consumer = group(1, "ldr0", leaves=1, zeros=1)
    assert consumer.merge(group(0, leaves=4)) is None


def test_extra_member_allowance_requires_zeros():
    """size == max_group + 1 is only legal when zeros justify it: a
    zero-free four-chain stays illegal even with zero detection on."""
    group = exprs()
    b = group(1, leaves=1)
    b.merge(group(0, leaves=1))
    c = group(2, leaves=1)
    c.merge(b)
    d = group(3, leaves=1)                   # raw == leaves: no zeros
    assert d.merge(c) is None
    assert d.size == 1 and d.leaves == 1


def test_branch_collapse_with_compare():
    group = exprs()
    brc = group(1, "brc", leaves=1)
    assert brc.merge(group(0, "arri", leaves=2)) == CAT_3_1
    assert brc.sigs == ("arri", "brc")
    assert brc.leaves == 2


def test_move_immediate_collapse_small():
    group = exprs()
    consumer = group(1, "lgri", leaves=2)
    assert consumer.merge(group(0, "mvi", leaves=1)) == CAT_3_1
    assert consumer.leaves == 2


def test_merge_shapes_decides_each_query_once():
    """The shape merge is pure: it interns the merged shape and leaves
    both input shapes as they were, and a repeated query is answered
    from the memo without deciding again."""
    table = ShapeTable(RULES, NO_PROGRAM)
    consumer = table.intern(("arrr",), 2, 2)
    producer = table.intern(("arri",), 2, 2)
    with mock.patch.object(classify, "merge_verdict",
                           wraps=classify.merge_verdict) as verdict:
        merged = table.merge_shapes(consumer, producer, 1)
        again = table.merge_shapes(consumer, producer, 1)
    assert verdict.call_count == 1
    assert again is merged
    shape, category = merged
    assert category == CAT_3_1
    assert table.sigs[shape] == ("arri", "arrr")
    assert (table.leaves[shape], table.raw[shape]) == (3, 3)
    assert (table.sigs[consumer], table.leaves[consumer]) == (("arrr",), 2)


def test_single_shapes_are_interned_per_signature_and_counts():
    static = SimpleNamespace(sig=("arrr", "ldr0", "arrr", "arrr"),
                             leaves=(2, 1, 2, 1), zeros=(0, 1, 0, 1))
    table = ShapeTable(RULES, static)
    single = table.single
    assert single[0] == single[2] != single[3]
    assert table.sigs[single[1]] == ("ldr0",)
    assert (table.leaves[single[1]], table.raw[single[1]]) == (1, 2)
    assert table.counts((single[3], (7,))) == (1, 1, 2)


def test_sigs_kept_in_program_order():
    group = exprs()
    b = group(5, "shri")
    b.merge(group(2, "arri"))
    c = group(9, "ldrr")
    c.merge(b)
    assert c.sigs == ("arri", "shri", "ldrr")
    assert c.positions == (2, 5, 9)


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
# The table against the reference ``Group`` (tests/references.py): a
# mutable group whose ``try_merge`` concatenates when the producer lies
# wholly before the consumer and merges by sorted position otherwise.
# The table must agree on the category, the merged positions, the
# signatures and both operand counts, and answer a repeated query from
# its memo with the same result.

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


def table_group(table, reference):
    """The table's ``(shape, positions)`` twin of a reference group."""
    return (table.intern(tuple(reference.sigs), reference.leaves,
                         reference.raw_leaves), tuple(reference.positions))


def check_against_reference(consumer, producer, uses, rules):
    """Merge through a fresh table and through the reference; returns
    the branch that performed the merge ("concatenate" or "sorted"), or
    None when the merge was illegal."""
    table = ShapeTable(rules, NO_PROGRAM)
    groups = (table_group(table, consumer), table_group(table, producer))
    before = producer.positions[-1] < consumer.positions[0]
    with mock.patch.object(classify, "sorted", create=True,
                           wraps=sorted) as spy:
        merged = table.merge(groups[0], groups[1], uses)
    expected = consumer.try_merge(producer, uses, rules)
    with mock.patch.object(classify, "merge_verdict") as verdict:
        assert table.merge(groups[0], groups[1], uses) == merged
    assert not verdict.called
    if expected is None:
        assert merged is None
        return None
    (shape, positions), category = merged
    assert category == expected
    assert positions == tuple(consumer.positions)
    assert table.sigs[shape] == tuple(consumer.sigs)
    assert (table.leaves[shape], table.raw[shape]) == (consumer.leaves,
                                                       consumer.raw_leaves)
    assert table.counts((shape, positions)) == (
        consumer.size, consumer.leaves, consumer.raw_leaves)
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
def test_table_merge_equals_reference(case):
    branch = check_against_reference(*case)
    event("merge: %s" % (branch or "illegal",))


@pytest.mark.parametrize("consumer, producer, branch", [
    (([6, 9], 2, 0), ([2, 4], 2, 0), "concatenate"),
    (([4, 9], 2, 0), ([6], 2, 0), "sorted"),          # interleaved
    (([4, 9], 2, 0), ([4, 7], 2, 0), "sorted"),       # shares member 4
    (([5], 2, 0), ([8], 2, 0), "sorted"),             # wholly after
])
def test_table_merge_reaches_both_branches(consumer, producer, branch):
    rules = CollapseRules(max_group=8, max_leaves=8)
    assert check_against_reference(make_group(*consumer),
                                   make_group(*producer), 1,
                                   rules) == branch


def test_overlapping_merge_keeps_each_member_once():
    table = ShapeTable(CollapseRules(max_group=8, max_leaves=8), NO_PROGRAM)
    consumer = table_group(table, make_group([4, 9], 2, 0))
    producer = table_group(table, make_group([4, 7], 2, 0))
    (shape, positions), _ = table.merge(consumer, producer, 1)
    assert positions == (4, 7, 9)
    assert table.sigs[shape] == (sig_of(4), sig_of(7), sig_of(9))
