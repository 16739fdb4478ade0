"""Statistics gathered from collapse events.

One *event* is the merging of a single producer into a consumer's
expression.  The category accounting follows Section 5.3:

- ``3-1``: the merged expression has at most 3 non-zero operands;
- ``4-1``: it has exactly 4;
- ``0-op``: zero-operand detection was *required* for the collapse to be
  legal (the raw operand count exceeded the limit, the zero-free count did
  not).

Pair signatures (Table 5) are recorded when an event produces a 2-wide
group; triple signatures (Table 6) when it produces a 3-wide group.
Distances (Figure 10) are dynamic-instruction distances between the
producer and the consumer of each event.  The "instructions collapsed"
measure (Figure 8) counts distinct dynamic instructions participating in
at least one event: the scheduler tracks which positions took part and
stores only their count, :attr:`CollapseStats.collapsed`.
"""

from collections import Counter

CAT_3_1 = "3-1"
CAT_4_1 = "4-1"
CAT_0OP = "0-op"

#: Distance histogram buckets used by the Figure 10 reproduction.
DISTANCE_BUCKETS = (1, 2, 3, 4, 7, 15, None)


def distance_bucket(distance):
    """Bucket label for a producer→consumer dynamic distance."""
    previous = 0
    for bound in DISTANCE_BUCKETS:
        if bound is None:
            return ">%d" % previous
        if distance <= bound:
            if bound == previous + 1 or bound == 1:
                return str(bound)
            return "%d-%d" % (previous + 1, bound)
        previous = bound
    raise AssertionError("unreachable")


def _ranked(signatures, count):
    """Top signatures by count, ties broken by signature — fully
    deterministic, unlike ``Counter.most_common`` whose tie order is
    insertion order (which differs between a freshly collected stats
    object and one decoded from the disk-cache codec)."""
    total = max(1, sum(signatures.values()))
    ordered = sorted(signatures.items(), key=lambda item: (-item[1],
                                                           item[0]))
    return [(sigs, n / total) for sigs, n in ordered[:count]]


class CollapseStats:
    """Mutable collector; the scheduler calls :meth:`record_event`."""

    __slots__ = ("events", "category_counts", "pair_signatures",
                 "triple_signatures", "collapsed", "distance_counts",
                 "trace_length", "eliminated")

    def __init__(self):
        self.events = 0
        self.category_counts = Counter()
        self.pair_signatures = Counter()
        self.triple_signatures = Counter()
        #: distinct dynamic instructions that took part in an event
        self.collapsed = 0
        self.distance_counts = Counter()
        self.trace_length = 0
        #: producers removed entirely by node elimination (Figure 1.f
        #: extension; zero under the paper's own model)
        self.eliminated = 0

    def record_event(self, category, distance, chain_sigs):
        """Record one collapse event.

        Parameters
        ----------
        category: one of CAT_3_1 / CAT_4_1 / CAT_0OP
        distance: dynamic distance between the merged producer and consumer
        chain_sigs: signature strings for the *resulting* group, in
            program order (any sequence; copied into a tuple when counted)
        """
        self.events += 1
        self.category_counts[category] += 1
        self.distance_counts[distance] += 1
        size = len(chain_sigs)
        if size == 2:
            self.pair_signatures[tuple(chain_sigs)] += 1
        elif size >= 3:
            self.triple_signatures[tuple(chain_sigs)] += 1

    # ------------------------------------------------------------------
    # Derived measures.
    # ------------------------------------------------------------------

    @property
    def collapsed_fraction(self):
        """Figure 8: fraction of dynamic instructions collapsed."""
        if not self.trace_length:
            return 0.0
        return self.collapsed / self.trace_length

    def category_fractions(self):
        """Figure 9: contribution of each category among all events."""
        total = max(1, self.events)
        return {
            CAT_3_1: self.category_counts[CAT_3_1] / total,
            CAT_4_1: self.category_counts[CAT_4_1] / total,
            CAT_0OP: self.category_counts[CAT_0OP] / total,
        }

    def distance_histogram(self):
        """Figure 10: distance distribution, bucketed, as fractions."""
        total = max(1, self.events)
        histogram = {}
        for distance, count in self.distance_counts.items():
            bucket = distance_bucket(distance)
            histogram[bucket] = histogram.get(bucket, 0.0) + count / total
        return histogram

    def fraction_within(self, limit):
        """Fraction of events with distance <= ``limit``."""
        total = sum(self.distance_counts.values())
        if not total:
            return 0.0
        near = sum(count for distance, count in self.distance_counts.items()
                   if distance <= limit)
        return near / total

    def top_pairs(self, count=12):
        """Table 5: most frequent pair signatures as (sigs, fraction)."""
        return _ranked(self.pair_signatures, count)

    def top_triples(self, count=13):
        """Table 6: most frequent triple signatures as (sigs, fraction)."""
        return _ranked(self.triple_signatures, count)

    def to_payload(self):
        """JSON-safe dict for the disk-cache codec; :meth:`from_payload`
        restores every field exactly."""
        return {
            "events": self.events,
            "category_counts": dict(self.category_counts),
            "pair_signatures": [[list(sigs), count] for sigs, count
                                in sorted(self.pair_signatures.items())],
            "triple_signatures": [[list(sigs), count] for sigs, count
                                  in sorted(self.triple_signatures.items())],
            "distance_counts": sorted(self.distance_counts.items()),
            "trace_length": self.trace_length,
            "collapsed": self.collapsed,
            "eliminated": self.eliminated,
        }

    @classmethod
    def from_payload(cls, payload):
        stats = cls()
        stats.events = int(payload["events"])
        stats.category_counts.update(payload["category_counts"])
        for sigs, count in payload["pair_signatures"]:
            stats.pair_signatures[tuple(sigs)] = int(count)
        for sigs, count in payload["triple_signatures"]:
            stats.triple_signatures[tuple(sigs)] = int(count)
        for distance, count in payload["distance_counts"]:
            stats.distance_counts[int(distance)] = int(count)
        stats.trace_length = int(payload["trace_length"])
        stats.collapsed = int(payload["collapsed"])
        stats.eliminated = int(payload["eliminated"])
        return stats

    def merge(self, other):
        """Accumulate another stats object (for cross-benchmark averages)."""
        self.events += other.events
        self.category_counts.update(other.category_counts)
        self.pair_signatures.update(other.pair_signatures)
        self.triple_signatures.update(other.triple_signatures)
        self.distance_counts.update(other.distance_counts)
        self.trace_length += other.trace_length
        self.collapsed += other.collapsed
        self.eliminated += other.eliminated
        return self
