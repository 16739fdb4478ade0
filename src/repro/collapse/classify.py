"""Expression groups, their interned shapes and the collapse legality rule.

A *group* is a (possibly single-instruction) dependence expression: the
trace positions merged so far, in program order, and the group's
*shape* — its members' signatures in program order and two operand
counts, ``leaves`` excluding zero operands and ``raw`` including them.
A :class:`ShapeTable` interns shapes as small integers for one
:class:`~repro.collapse.rules.CollapseRules` and decides each distinct
(consumer shape, producer shape, uses) merge once, so a group is just
the pair ``(shape id, positions)``.  A run builds one table: a
simulation meets a few dozen shapes and merges, not one per
instruction.  Collapsing merges the producer's group into the
consumer's.

The legality rule (Section 3), :func:`merge_verdict`: the merged
expression must fit the collapsing device, i.e. have at most
``rules.max_leaves`` operands.  With zero-operand detection the
zero-free count is checked; without it the raw count is.  When the raw
count exceeds the limit but the zero-free count does not, the collapse
is credited to the 0-op category because the zero detection *enabled*
it.
"""

from .stats import CAT_0OP, CAT_3_1, CAT_4_1


def merge_verdict(size, leaves, raw, rules):
    """Category (``3-1``/``4-1``/``0-op``) of a merged expression of
    ``size`` members with ``leaves`` zero-free and ``raw`` operands, or
    ``None`` when ``rules`` reject it.

    The ``0-op`` category credits *enabled-by-zero-detection* merges,
    not merely merges whose expression contains zeros: a merge is 0-op
    exactly when it is legal under ``rules.zero_detection`` but would
    have been rejected without it — either ``raw`` (zeros included)
    exceeds ``rules.max_leaves`` while the zero-free ``leaves`` fits, or
    the member count needs the one-extra-instruction allowance
    (``size == max_group + 1``, again justified only by zeros).  A merge
    whose raw count already fits is credited ``3-1``/``4-1`` by its
    zero-free leaf count even when zeros are present, because the same
    collapse happens on a device without zero detection.
    """
    if size > rules.max_group:
        # Section 3: "in some cases ... four dependent instructions can
        # also be collapsed" — the case being zero-operand detection
        # shrinking the expression to a legal size.  One extra member
        # is allowed when zeros are present and the zero-free operand
        # count fits the device.
        if (rules.zero_detection and size == rules.max_group + 1
                and raw > leaves and leaves <= rules.max_leaves):
            return CAT_0OP
        return None
    if rules.zero_detection:
        if leaves > rules.max_leaves:
            return None
        if raw > rules.max_leaves:
            return CAT_0OP
    elif raw > rules.max_leaves:
        return None
    return CAT_3_1 if leaves <= 3 else CAT_4_1


class ShapeTable:
    """Interned group shapes and memoised merges for one rule set.

    ``single[s]`` is the shape of static instruction ``s`` alone;
    ``sigs``, ``leaves`` and ``raw`` map a shape id to its member
    signatures (a tuple, program order) and operand counts.
    """

    __slots__ = ("rules", "sigs", "leaves", "raw", "single", "_ids",
                 "_merges")

    def __init__(self, rules, static):
        self.rules = rules
        self.sigs = []
        self.leaves = []
        self.raw = []
        self._ids = {}          # (sigs, leaves, raw) -> shape id
        # (consumer, producer, uses) -> (merged shape, category) or None
        self._merges = {}
        self.single = [self.intern((sig,), leaves, leaves + zeros)
                       for sig, leaves, zeros
                       in zip(static.sig, static.leaves, static.zeros)]

    def intern(self, sigs, leaves, raw):
        """Id of the shape with member signatures ``sigs`` (a tuple)
        and the given operand counts."""
        key = (sigs, leaves, raw)
        shape = self._ids.get(key)
        if shape is None:
            shape = self._ids[key] = len(self.sigs)
            self.sigs.append(sigs)
            self.leaves.append(leaves)
            self.raw.append(raw)
        return shape

    def merge_shapes(self, consumer, producer, uses):
        """``(merged shape, category)`` of substituting shape
        ``producer`` for ``uses`` operands of shape ``consumer``, the
        producer's members going in front, or ``None`` when the rules
        reject it.  Decided once per distinct query.

        Each use of the producer's result is one operand of the
        consumer's expression that gets replaced by the producer's
        whole expression.
        """
        key = (consumer, producer, uses)
        try:
            return self._merges[key]
        except KeyError:
            pass
        sigs = self.sigs[producer] + self.sigs[consumer]
        leaves = self.leaves[consumer] - uses + uses * self.leaves[producer]
        raw = self.raw[consumer] - uses + uses * self.raw[producer]
        category = merge_verdict(len(sigs), leaves, raw, self.rules)
        merged = None if category is None \
            else (self.intern(sigs, leaves, raw), category)
        self._merges[key] = merged
        return merged

    def merge(self, consumer, producer, uses):
        """Merge group ``producer`` into group ``consumer`` (each a
        ``(shape, positions)`` pair): ``(merged group, category)``, or
        ``None`` when the rules reject it.

        Nearly always the producer lies wholly before the consumer and
        the memoised shape merge is the answer.  Otherwise (interleaved
        members, or a member both groups took in earlier merges) the
        members merge by position; legality and operand counts still
        come from the two shapes, so a shared member counts twice.
        """
        consumer_shape, consumer_positions = consumer
        producer_shape, producer_positions = producer
        # The memo is read here, not through merge_shapes, to save a
        # call per merge on the scheduler's hot path.
        try:
            merged = self._merges[consumer_shape, producer_shape, uses]
        except KeyError:
            merged = self.merge_shapes(consumer_shape, producer_shape, uses)
        if merged is None:
            return None
        shape, category = merged
        if producer_positions[-1] < consumer_positions[0]:
            return (shape, producer_positions + consumer_positions), \
                category
        members = dict(zip(consumer_positions, self.sigs[consumer_shape]))
        members.update(zip(producer_positions, self.sigs[producer_shape]))
        order = tuple(sorted(members))
        shape = self.intern(tuple(members[position] for position in order),
                            self.leaves[shape], self.raw[shape])
        return (shape, order), category

    def counts(self, group):
        """``(members, leaves, raw)`` of a group."""
        shape, positions = group
        return len(positions), self.leaves[shape], self.raw[shape]


__all__ = ["ShapeTable", "merge_verdict"]
