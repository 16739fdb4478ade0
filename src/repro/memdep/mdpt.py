"""Memory Dependence Prediction Table (Moshovos et al., ISCA 1997).

A direct-mapped, PC-tagged table records which store PCs a load PC has
violated against.  A load's first violation allocates (or replaces) its
entry; each further violation saturates a small confidence counter.  Once
the counter reaches :data:`PROMOTE_THRESHOLD` the load PC is *promoted*:
:meth:`MDPT.store_set` returns its store set and the scheduler
synchronizes the load with the youngest in-flight store from that set
(the MDST role) rather than issuing it speculatively.

The store set keeps the most recent :data:`DEFAULT_STORE_SET` offending
store PCs, most recent last; older entries are evicted FIFO.  Because the
table is direct mapped and tagged, two load PCs that map to the same
index evict each other (tag replacement) — the aliasing behaviour the
tests probe with tiny table sizes.
"""

DEFAULT_ENTRIES = 512
DEFAULT_STORE_SET = 4
PROMOTE_THRESHOLD = 2
COUNTER_MAX = 3

#: Cycles charged to restart a squashed forward slice after a
#: memory-order violation is detected (recovery/refetch overhead).
FLUSH_PENALTY = 3


class MDPT:
    """Direct-mapped tagged memory-dependence prediction table."""

    __slots__ = ("entries", "store_set_size", "promote_threshold",
                 "_table", "lookups", "hits", "trainings", "collisions")

    def __init__(self, entries=DEFAULT_ENTRIES,
                 store_set_size=DEFAULT_STORE_SET,
                 promote_threshold=PROMOTE_THRESHOLD):
        if entries < 1 or entries & (entries - 1):
            raise ValueError("MDPT entries must be a power of two")
        if store_set_size < 1:
            raise ValueError("store set size must be positive")
        self.entries = entries
        self.store_set_size = store_set_size
        self.promote_threshold = promote_threshold
        self._table = {}        # index -> [tag (load pc), counter, [pcs]]
        self.lookups = 0
        self.hits = 0
        self.trainings = 0
        self.collisions = 0

    @classmethod
    def of(cls, config):
        """The table a machine configuration's run builds: its
        ``mdpt_entries`` x ``mdpt_store_set`` geometry, where ``None``
        means the module default."""
        return cls(entries=config.mdpt_entries or DEFAULT_ENTRIES,
                   store_set_size=config.mdpt_store_set
                   or DEFAULT_STORE_SET)

    def _index(self, pc):
        return (pc >> 2) & (self.entries - 1)

    def lossless(self, pairs):
        """True when a table of this geometry, trained on the
        ``(load PC, store PC)`` pairs in any order and multiplicity,
        never replaces a tag (the load PCs map to distinct indexes) and
        never drops a store PC (no load PC has more distinct stores than
        the store-set size).  Such a table holds, after every step, what
        an unbounded table holds, so it answers every lookup the same
        way."""
        stores = {}
        for load_pc, store_pc in pairs:
            stores.setdefault(load_pc, set()).add(store_pc)
        indexes = {self._index(load_pc) for load_pc in stores}
        return len(indexes) == len(stores) and all(
            len(pcs) <= self.store_set_size for pcs in stores.values())

    def store_set(self, load_pc):
        """Predicted store-PC set for ``load_pc`` (most recent last), or
        ``None`` when the load is unknown or not yet promoted."""
        self.lookups += 1
        entry = self._table.get(self._index(load_pc))
        if entry is None or entry[0] != load_pc:
            return None
        if entry[1] < self.promote_threshold:
            return None
        self.hits += 1
        return entry[2]

    def train(self, load_pc, store_pc):
        """Record one memory-order violation of ``load_pc`` against
        ``store_pc``."""
        self.trainings += 1
        index = self._index(load_pc)
        entry = self._table.get(index)
        if entry is None or entry[0] != load_pc:
            if entry is not None:
                self.collisions += 1
            self._table[index] = [load_pc, 1, [store_pc]]
            return
        if entry[1] < COUNTER_MAX:
            entry[1] += 1
        stores = entry[2]
        if store_pc in stores:
            stores.remove(store_pc)
        stores.append(store_pc)
        if len(stores) > self.store_set_size:
            stores.pop(0)

    def counter(self, load_pc):
        """Current confidence counter for ``load_pc`` (0 if absent)."""
        entry = self._table.get(self._index(load_pc))
        if entry is None or entry[0] != load_pc:
            return 0
        return entry[1]
