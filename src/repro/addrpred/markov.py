"""Correlation-based (Markov) and hybrid load-stream predictors.

The paper closes Section 5.2 with: "It is of interest, therefore, as a
future research topic to investigate load-speculation mechanisms that can
provide satisfactory performance for both non-pointer and pointer chasing
benchmarks."  These predictors implement that direction:

- :class:`MarkovTable` — a correlation table keyed by (load PC, last
  observation): it records which value followed a given value the last
  time, so repeated traversals of the same linked structure predict
  perfectly from the second walk on (Markov prefetching, Joseph &
  Grunwald style, applied to load speculation).  Over loaded values it
  is Sazeides & Smith's finite-context-method (FCM) predictor: any
  repeating non-arithmetic pattern (alternating flags, short state
  cycles) predicts from its second period on;
- :class:`HybridTable` — two-delta *and* Markov side by side with a
  per-entry 2-bit chooser trained toward whichever component was right
  (exactly the McFarling idea transplanted to load streams).

Both keep the paper's confidence policy (+1 correct / -2 wrong, use when
the counter exceeds 1) so results are comparable with the two-delta
baseline, and both expose the same ``observe(pc, value)`` interface the
runner consumes, over addresses or loaded values alike.
"""

from .two_delta import TwoDeltaTable

_MASK32 = 0xFFFFFFFF


class _MarkovEntry:
    __slots__ = ("last", "confidence")

    def __init__(self):
        self.last = 0
        self.confidence = 0


class MarkovTable:
    """(PC, last observation) -> next observation correlation predictor."""

    def __init__(self, entries=4096, correlation_entries=16384,
                 counter_bits=2, confidence_threshold=2,
                 correct_reward=1, wrong_penalty=2):
        for size in (entries, correlation_entries):
            if size <= 0 or size & (size - 1):
                raise ValueError("table sizes must be powers of two")
        self.entries = entries
        self.index_mask = entries - 1
        self.correlation_mask = correlation_entries - 1
        self.counter_max = (1 << counter_bits) - 1
        self.confidence_threshold = confidence_threshold
        self.correct_reward = correct_reward
        self.wrong_penalty = wrong_penalty
        self._per_pc = [_MarkovEntry() for _ in range(entries)]
        # Correlation table: next observation by hash of (pc, last one).
        self._next = [0] * correlation_entries

    def index_of(self, pc):
        return (pc >> 2) & self.index_mask

    def _correlation_index(self, pc, value):
        return ((pc >> 2) ^ (value >> 2) ^ (value >> 13)) \
            & self.correlation_mask

    def observe(self, pc, value):
        """One dynamic load in program order; returns
        ``(would_use, correct, predicted)`` for the pre-update state."""
        value &= _MASK32
        entry = self._per_pc[self.index_of(pc)]
        slot = self._correlation_index(pc, entry.last)
        predicted = self._next[slot]
        would_use = entry.confidence >= self.confidence_threshold
        correct = predicted == value and predicted != 0
        if correct:
            entry.confidence = min(entry.confidence + self.correct_reward,
                                   self.counter_max)
        else:
            entry.confidence = max(entry.confidence - self.wrong_penalty,
                                   0)
        self._next[slot] = value
        entry.last = value
        return would_use, correct, predicted

    def entry(self, pc):
        return self._per_pc[self.index_of(pc)]


class HybridTable:
    """Two-delta + Markov with a per-PC chooser (future-work predictor;
    stride + FCM over loaded values).

    ``observe`` runs both components in program order; the chooser picks
    which component's (use, correctness) outcome governs speculation and
    is trained on disagreements.
    """

    def __init__(self, stride_table=None, markov_table=None,
                 chooser_entries=4096, counter_bits=2):
        if chooser_entries <= 0 or chooser_entries & (chooser_entries - 1):
            raise ValueError("chooser size must be a power of two")
        self.stride = stride_table or TwoDeltaTable()
        self.markov = markov_table or MarkovTable()
        self.chooser_mask = chooser_entries - 1
        self.chooser_max = (1 << counter_bits) - 1
        self.chooser_threshold = 1 << (counter_bits - 1)
        # Upper half selects Markov.
        self._chooser = [self.chooser_threshold - 1] * chooser_entries

    def _chooser_index(self, pc):
        return (pc >> 2) & self.chooser_mask

    def observe(self, pc, value):
        stride_use, stride_ok, stride_pred = self.stride.observe(pc, value)
        markov_use, markov_ok, markov_pred = self.markov.observe(pc, value)
        slot = self._chooser_index(pc)
        pick_markov = self._chooser[slot] >= self.chooser_threshold
        if pick_markov:
            outcome = (markov_use, markov_ok, markov_pred)
        else:
            outcome = (stride_use, stride_ok, stride_pred)
        if stride_ok != markov_ok:
            if markov_ok:
                self._chooser[slot] = min(self._chooser[slot] + 1,
                                          self.chooser_max)
            else:
                self._chooser[slot] = max(self._chooser[slot] - 1, 0)
        return outcome
