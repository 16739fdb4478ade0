"""Per-run statistics records whose fields are integer counters.

A record lists its fields in ``__slots__``; :class:`CounterRecord`
derives the zeroed constructor, ``merge`` (a sum, or a maximum for the
``MAXIMA``), the JSON-safe payload codec of the disk cache and the repr
from them.  A record initialises, merges and encodes the fields it
names in ``EXTRA`` (not counters) itself.
"""


class CounterRecord:
    """Base of the per-mechanism statistics records of a ``SimResult``."""

    __slots__ = ()
    MAXIMA = ()
    EXTRA = ()

    @classmethod
    def counters(cls):
        """The integer counter slots, in declaration order."""
        return [field for field in cls.__slots__ if field not in cls.EXTRA]

    def __init__(self):
        for field in self.counters():
            setattr(self, field, 0)

    def merge(self, other):
        """Fold ``other`` into this record; returns ``self``."""
        for field in self.counters():
            mine = getattr(self, field)
            theirs = getattr(other, field)
            setattr(self, field, max(mine, theirs) if field in self.MAXIMA
                    else mine + theirs)
        return self

    def to_payload(self):
        return {field: getattr(self, field) for field in self.counters()}

    @classmethod
    def from_payload(cls, payload):
        stats = cls()
        for field in cls.counters():
            setattr(stats, field, int(payload.get(field, 0)))
        return stats

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%d" % (field, getattr(self, field))
            for field in self.counters()))
