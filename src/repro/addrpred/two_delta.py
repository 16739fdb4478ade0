"""Two-delta stride predictor with confidence, over any 32-bit load stream.

This is the load-speculation table of Section 3:

- 4096-entry direct-mapped, indexed by the 14 least-significant bits of the
  load instruction's address (instructions are word aligned, so bits
  [13:2] select the entry — 12 index bits, 4096 entries);
- each entry keeps the last observation, the last observed stride and the
  *predicting* stride, which is only replaced when the same stride is
  observed twice in a row (the "two delta strategy" of Eickemeyer &
  Vassiliadis [5]);
- the paper adds a 2-bit saturating confidence counter per entry:
  initialised to 0, +1 on a correct prediction, -2 on a wrong one, and
  the prediction is *used* only when the counter value is greater than 1.

The paper runs the table over effective addresses.  The value-speculation
extension (Figure 1.d) runs the same table over the values loads return:
loads that walk an arithmetic sequence (induction variables spilled to
memory, sequential IDs) are stride-predictable in Sazeides & Smith's
taxonomy, and a last-value predictor is the degenerate case whose
predicting stride never leaves zero.

Strides are 32 bits; stream arithmetic wraps at 2**32.
"""

_MASK32 = 0xFFFFFFFF


class TwoDeltaEntry:
    """One predictor entry (exposed for unit tests)."""

    __slots__ = ("last", "last_stride", "stride", "confidence")

    def __init__(self):
        self.last = 0
        self.last_stride = 0
        self.stride = 0
        self.confidence = 0


class TwoDeltaTable:
    """The paper's two-delta prediction table.

    ``observe(pc, value)`` performs one program-order step for a dynamic
    load: it returns ``(would_use, correct, predicted)`` computed *before*
    the update, then updates stride state and confidence.  ``would_use``
    reflects the confidence threshold; the timing simulator combines it
    with load readiness to decide whether the prediction is actually
    consumed.
    """

    def __init__(self, entries=4096, counter_bits=2,
                 confidence_threshold=2, correct_reward=1, wrong_penalty=2):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.index_mask = entries - 1
        self.counter_max = (1 << counter_bits) - 1
        self.confidence_threshold = confidence_threshold
        self.correct_reward = correct_reward
        self.wrong_penalty = wrong_penalty
        self._table = [TwoDeltaEntry() for _ in range(entries)]

    def index_of(self, pc):
        """Direct-mapped index from the 14 LSBs of the instruction address
        (word-aligned instructions: drop the two zero bits)."""
        return (pc >> 2) & self.index_mask

    def peek(self, pc):
        """Prediction for the next execution of the load at ``pc``."""
        entry = self._table[self.index_of(pc)]
        predicted = (entry.last + entry.stride) & _MASK32
        would_use = entry.confidence >= self.confidence_threshold
        return would_use, predicted

    def observe(self, pc, value):
        """One dynamic load in program order.

        Returns ``(would_use, correct, predicted)`` for the state *before*
        this access, then trains the entry.
        """
        value &= _MASK32
        entry = self._table[self.index_of(pc)]
        predicted = (entry.last + entry.stride) & _MASK32
        would_use = entry.confidence >= self.confidence_threshold
        correct = predicted == value

        # Confidence update (+1 correct, -2 wrong, saturating 2 bits).
        if correct:
            count = entry.confidence + self.correct_reward
            entry.confidence = min(count, self.counter_max)
        else:
            count = entry.confidence - self.wrong_penalty
            entry.confidence = max(count, 0)

        # Two-delta stride update: promote the new stride into the
        # predicting stride only when seen twice in a row.
        new_stride = (value - entry.last) & _MASK32
        if new_stride == entry.last_stride:
            entry.stride = new_stride
        entry.last_stride = new_stride
        entry.last = value
        return would_use, correct, predicted

    def entry(self, pc):
        """The entry the load at ``pc`` maps to (testing/diagnostics)."""
        return self._table[self.index_of(pc)]


class LastStrideTable(TwoDeltaTable):
    """Ablation variant: always promote the newest stride (single-delta).

    Used by the stride-policy ablation bench to show why the paper uses
    the two-delta rule (single-delta mispredicts once after every stride
    change *and* pollutes the predicting stride immediately).
    """

    def observe(self, pc, value):
        value &= _MASK32
        entry = self._table[self.index_of(pc)]
        predicted = (entry.last + entry.stride) & _MASK32
        would_use = entry.confidence >= self.confidence_threshold
        correct = predicted == value
        if correct:
            entry.confidence = min(entry.confidence + self.correct_reward,
                                   self.counter_max)
        else:
            entry.confidence = max(entry.confidence - self.wrong_penalty, 0)
        new_stride = (value - entry.last) & _MASK32
        entry.stride = new_stride
        entry.last_stride = new_stride
        entry.last = value
        return would_use, correct, predicted
