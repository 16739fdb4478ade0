"""Accounting for realistic memory disambiguation (configs F/G)."""

from ..counters import CounterRecord


class MemDepStats(CounterRecord):
    """Counters gathered by the scheduler's ``mdpt`` memory mode.

    Attributes
    ----------
    loads:          dynamic loads simulated
    dependent:      loads with any prior store to the same word (the
                    arc the perfect model takes), whether or not that
                    store is still in flight when the load enters the
                    window
    synchronized:   loads the MDST held back behind a predicted store
    false_syncs:    synchronizations against a store that was *not* the
                    load's true producer (lost parallelism)
    violations:     memory-order violations detected (squash events)
    squashed:       instructions squashed and re-executed (slice members,
                    including the violating loads themselves)
    flush_cycles:   total restart penalty cycles charged
    violation_pairs: {(load_pc, store_pc): count} over all violations
    """

    __slots__ = ("loads", "dependent", "synchronized", "false_syncs",
                 "violations", "squashed", "flush_cycles",
                 "violation_pairs")
    EXTRA = ("violation_pairs",)

    def __init__(self):
        super().__init__()
        self.violation_pairs = {}

    def record_violation(self, load_pc, store_pc, slice_size, penalty):
        self.violations += 1
        self.squashed += slice_size
        self.flush_cycles += penalty
        pair = (load_pc, store_pc)
        self.violation_pairs[pair] = self.violation_pairs.get(pair, 0) + 1

    def merge(self, other):
        super().merge(other)
        for pair, count in other.violation_pairs.items():
            self.violation_pairs[pair] = \
                self.violation_pairs.get(pair, 0) + count
        return self

    def to_payload(self):
        payload = super().to_payload()
        payload["violation_pairs"] = [
            [lpc, spc, count]
            for (lpc, spc), count in sorted(self.violation_pairs.items())]
        return payload

    @classmethod
    def from_payload(cls, payload):
        stats = super().from_payload(payload)
        stats.violation_pairs = {
            (lpc, spc): count
            for lpc, spc, count in payload.get("violation_pairs", ())
        }
        return stats
