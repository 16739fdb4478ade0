"""Descriptive statistics over dynamic traces (paper Tables 1 and 2 inputs).

These are *trace* properties, independent of any machine configuration:
instruction counts, class mix, conditional-branch fraction, load/store
fraction, and the shift-distance observation the paper uses to motivate
collapsing shifts (Section 3: "shift distances are dominated by a few
values").
"""

from collections import Counter

from .records import BRC, LD, SH, ST


class TraceStats:
    """Aggregate statistics for one dynamic trace."""

    def __init__(self, trace):
        self.name = trace.name
        self.length = len(trace)
        static = trace.static
        cls_col = static.cls
        counts = Counter()
        for s in trace.sidx:
            counts[cls_col[s]] += 1
        self.class_counts = dict(counts)

    # ------------------------------------------------------------------

    def count(self, opclass):
        return self.class_counts.get(int(opclass), 0)

    @property
    def cond_branch_fraction(self):
        """Fraction of dynamic instructions that are conditional branches
        (column 2 of the paper's Table 2)."""
        if not self.length:
            return 0.0
        return self.count(BRC) / self.length

    @property
    def load_fraction(self):
        if not self.length:
            return 0.0
        return self.count(LD) / self.length

    @property
    def store_fraction(self):
        if not self.length:
            return 0.0
        return self.count(ST) / self.length

    @property
    def shift_fraction(self):
        if not self.length:
            return 0.0
        return self.count(SH) / self.length

    def summary_row(self):
        """Row used by the Table 1 reproduction."""
        return {
            "name": self.name,
            "instructions": self.length,
            "cond_branch_pct": 100.0 * self.cond_branch_fraction,
            "load_pct": 100.0 * self.load_fraction,
            "store_pct": 100.0 * self.store_fraction,
        }


def signature_mix(trace, top=20):
    """Most common static-signature strings weighted dynamically.

    Useful for sanity-checking workloads against the paper's instruction-mix
    claims (e.g. shifts around 6% of the mix).
    """
    static = trace.static
    counts = Counter()
    for s in trace.sidx:
        counts[static.sig[s]] += 1
    total = max(1, len(trace))
    return [(sig, count / total) for sig, count in counts.most_common(top)]
