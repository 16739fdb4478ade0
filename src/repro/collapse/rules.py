"""Configuration of the dependence-collapsing model.

The defaults reproduce the paper's (optimistic) model from Section 3:

- pairs *and* triples of dependent instructions collapse (group size <= 3);
- the merged dependence expression may have at most 4 non-zero operands
  (3-1 and 4-1 expressions);
- collapsing works between non-consecutive instructions and across basic
  block boundaries;
- zero operands (``%g0`` or a zero immediate) are detected and excluded
  from the expression size, enabling otherwise-too-wide collapses.

Each restriction can be switched off individually for the ablation study
(DESIGN.md Section 6).
"""

from ..errors import ConfigError


class CollapseRules:
    """Knobs of the collapsing mechanism."""

    __slots__ = ("max_group", "max_leaves", "allow_nonconsecutive",
                 "allow_cross_block", "zero_detection")

    def __init__(self, max_group=3, max_leaves=4, allow_nonconsecutive=True,
                 allow_cross_block=True, zero_detection=True):
        if max_group < 2:
            raise ConfigError("max_group must be at least 2 (a pair)")
        if max_leaves < 2:
            raise ConfigError("max_leaves must be at least 2")
        self.max_group = max_group
        self.max_leaves = max_leaves
        self.allow_nonconsecutive = allow_nonconsecutive
        self.allow_cross_block = allow_cross_block
        self.zero_detection = zero_detection

    def fingerprint(self):
        """Stable JSON-safe description (disk-cache key component)."""
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def paper(cls):
        """The model used for configurations C, D and E."""
        return cls()

    @classmethod
    def pairs_only(cls):
        """Ablation: collapse at most two dependent instructions."""
        return cls(max_group=2)

    @classmethod
    def consecutive_only(cls):
        """Ablation: prior work's model — only adjacent instructions."""
        return cls(allow_nonconsecutive=False)

    @classmethod
    def within_block_only(cls):
        """Ablation: no collapsing across basic-block boundaries."""
        return cls(allow_cross_block=False)

    @classmethod
    def no_zero_detection(cls):
        """Ablation: zero operands count toward the expression size."""
        return cls(zero_detection=False)

    def describe(self):
        parts = ["group<=%d" % self.max_group,
                 "leaves<=%d" % self.max_leaves]
        if not self.allow_nonconsecutive:
            parts.append("consecutive-only")
        if not self.allow_cross_block:
            parts.append("within-block")
        if not self.zero_detection:
            parts.append("no-0op")
        return ",".join(parts)

    def __repr__(self):
        return "CollapseRules(%s)" % self.describe()
