"""Per-run result-value speculation statistics (configuration I).

Counts the scheduler's value-speculation events:

- ``bypassed`` — dependence arcs dropped for free: the consumer of a
  confidently-predicted load whose prediction was *correct*;
- ``speculated`` — arcs dropped speculatively: the prediction was
  confident but *wrong*, so the consumer issued on a bad value and is
  on the hook for recovery;
- ``late`` — arcs from a wrongly-predicted load that had already
  completed when the consumer entered the window: the consumer simply
  waits (no speculation, no recovery);
- ``squashes`` — speculated consumers squashed when their load's
  verification exposed the misprediction (each squashed consumer is
  counted once, however many wrong arcs it rode);
- ``replays`` — squashed consumers re-issued with the architectural
  value.  The sanitizer asserts ``replays == squashes`` at the end of
  every run: recovery happens exactly once per squashed consumer.
"""

from ..counters import CounterRecord


class ValueSpecStats(CounterRecord):
    """Value-speculation behaviour of one simulated run."""

    __slots__ = ("bypassed", "speculated", "late", "squashes", "replays")

    @property
    def attempted(self):
        """Arcs dropped on a confident prediction, right or wrong."""
        return self.bypassed + self.speculated


__all__ = ["ValueSpecStats"]
