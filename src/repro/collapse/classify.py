"""Expression groups and the collapse legality check.

A :class:`Group` is a (possibly single-instruction) dependence expression:
the set of trace positions merged so far, their signatures in program
order, and two operand counts — ``leaves`` excluding zero operands and
``raw_leaves`` including them.  The timing simulator keeps a Group for
each unissued instruction that may be collapsed into a consumer, and
builds a consumer's Group at its first merge attempt; collapsing merges
the producer's group into the consumer's.

The legality rule (Section 3): the merged expression must fit the
collapsing device, i.e. have at most ``rules.max_leaves`` operands.  With
zero-operand detection the zero-free count is checked; without it the raw
count is.  When the raw count exceeds the limit but the zero-free count
does not, the collapse is credited to the 0-op category because the zero
detection *enabled* it.
"""

from .rules import CollapseRules
from .stats import CAT_0OP, CAT_3_1, CAT_4_1


class Group:
    """One dependence-expression group."""

    __slots__ = ("positions", "sigs", "leaves", "raw_leaves")

    def __init__(self, position, sig, leaves, zeros):
        self.positions = [position]
        self.sigs = [sig]
        self.leaves = leaves
        self.raw_leaves = leaves + zeros

    @property
    def size(self):
        return len(self.positions)

    def merged_counts(self, producer, uses):
        """Operand counts if ``producer`` were substituted ``uses`` times.

        Each use of the producer's result is one operand of this group's
        expression that gets replaced by the producer's whole expression.
        """
        leaves = self.leaves - uses + uses * producer.leaves
        raw = self.raw_leaves - uses + uses * producer.raw_leaves
        return leaves, raw

    def try_merge(self, producer, uses, rules):
        """Attempt to merge ``producer`` into this group.

        Returns the category string (``3-1``/``4-1``/``0-op``) when the
        merge is legal and performed, or ``None`` when it is not.

        The ``0-op`` category credits *enabled-by-zero-detection*
        merges, not merely merges whose expression contains zeros: a
        merge is 0-op exactly when it is legal under
        ``rules.zero_detection`` but would have been rejected without it
        — either ``raw_leaves`` (zeros included) exceeds
        ``rules.max_leaves`` while the zero-free ``leaves`` fits, or the
        member count needs the one-extra-instruction allowance
        (``size == max_group + 1``, again justified only by zeros).  A
        merge whose raw count already fits is credited ``3-1``/``4-1``
        by its zero-free leaf count even when zeros are present, because
        the same collapse happens on a device without zero detection.
        """
        positions = self.positions
        producer_positions = producer.positions
        size = len(positions) + len(producer_positions)
        leaves = self.leaves - uses + uses * producer.leaves
        raw = self.raw_leaves - uses + uses * producer.raw_leaves
        if size > rules.max_group:
            # Section 3: "in some cases ... four dependent instructions can
            # also be collapsed" — the case being zero-operand detection
            # shrinking the expression to a legal size.  One extra member
            # is allowed when zeros are present and the zero-free operand
            # count fits the device.
            if not (rules.zero_detection and size == rules.max_group + 1
                    and raw > leaves and leaves <= rules.max_leaves):
                return None
            needed_zero_detection = True
        elif rules.zero_detection:
            if leaves > rules.max_leaves:
                return None
            needed_zero_detection = raw > rules.max_leaves
        else:
            if raw > rules.max_leaves:
                return None
            needed_zero_detection = False
        # Perform the merge, keeping program order of members.  Nearly
        # always the producer lies wholly before this group and simply
        # goes in front; otherwise (interleaved members, or a member
        # shared through an earlier merge) merge by position.
        if producer_positions[-1] < positions[0]:
            self.positions = producer_positions + positions
            self.sigs = producer.sigs + self.sigs
        else:
            merged = dict(zip(positions, self.sigs))
            merged.update(zip(producer_positions, producer.sigs))
            order = sorted(merged)
            self.positions = order
            self.sigs = [merged[position] for position in order]
        self.leaves = leaves
        self.raw_leaves = raw
        if needed_zero_detection:
            return CAT_0OP
        if leaves <= 3:
            return CAT_3_1
        return CAT_4_1

    def __repr__(self):
        return "Group(%s, leaves=%d)" % ("-".join(self.sigs), self.leaves)


def merge_category(consumer_group, producer_group, uses, rules):
    """Pure legality/category check without mutating either group."""
    size = consumer_group.size + producer_group.size
    leaves, raw = consumer_group.merged_counts(producer_group, uses)
    if size > rules.max_group:
        if (rules.zero_detection and size == rules.max_group + 1
                and raw > leaves and leaves <= rules.max_leaves):
            return CAT_0OP
        return None
    if rules.zero_detection:
        if leaves > rules.max_leaves:
            return None
        if raw > rules.max_leaves:
            return CAT_0OP
    else:
        if raw > rules.max_leaves:
            return None
    return CAT_3_1 if leaves <= 3 else CAT_4_1


__all__ = ["Group", "merge_category", "CollapseRules",
           "CAT_0OP", "CAT_3_1", "CAT_4_1"]
