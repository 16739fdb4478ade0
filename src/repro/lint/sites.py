"""The site core the three classification passes share.

The address (:mod:`repro.lint.addrclass`), value
(:mod:`repro.lint.valueflow`) and branch (:mod:`repro.lint.branchflow`)
passes each classify static *sites* — loads, result producers,
conditional branches — relative to their innermost loop, and prove the
classes against a PC-indexed dynamic predictor.  This module holds what
they have in common: the site record, the per-class aggregates with the
coverage-cap arithmetic, the loop cells of their summary tables, and
the order and join of a class lattice.
"""

from collections import Counter


class Site:
    """One classified static instruction."""

    __slots__ = ("index", "line", "pc", "cls", "loop", "note")

    def __init__(self, index, line, pc, cls, loop=None, note=""):
        self.index = index
        self.line = line
        self.pc = pc
        self.cls = cls
        self.loop = loop        # innermost Loop or None
        self.note = note


class SiteClassification:
    """Per-class aggregates over the ``sites`` of one classification.

    A subclass sets ``CLASSES`` (every class, in report order),
    ``COVERAGE_CAP`` (class -> upper bound on the fraction of its
    dynamic sites the predictor may cover) and ``TABLE_ENTRIES`` (the
    predictor's direct-mapped PC-indexed table), and classifies into
    ``sites`` and ``by_index``; :attr:`observed` names the sites the
    predictor sees.  ``values`` is the program's
    :class:`~repro.lint.induction.LoopValues`; the CFG and loop forest
    are its own.
    """

    def __init__(self, program, values):
        self.program = program
        self.values = values
        self.cfg = values.cfg
        self.forest = values.forest
        self.sites = []
        self.by_index = {}

    @property
    def observed(self):
        """The sites the dynamic predictor observes: all of them."""
        return self.sites

    def class_counts(self):
        """Static site count per class."""
        counts = dict.fromkeys(self.CLASSES, 0)
        for site in self.sites:
            counts[site.cls] += 1
        return counts

    def dynamic_class_counts(self, trace):
        """Dynamic count of the observed sites per class for a trace of
        this program."""
        counts = dict.fromkeys(self.CLASSES, 0)
        executions = Counter(trace.sidx)
        for site in self.observed:
            counts[site.cls] += executions[site.index]
        return counts

    def coverage_bound(self, trace):
        """Static upper bound on the predictor's coverage of ``trace``:
        each dynamic observed site weighted by its class's cap."""
        return self.capped_share(self.dynamic_class_counts(trace))

    def capped_share(self, counts):
        """The cap-weighted share of the dynamic class ``counts`` (1.0
        when there are none), summed in class order."""
        total = sum(counts.values())
        if not total:
            return 1.0
        weighted = sum(self.COVERAGE_CAP[cls] * n
                       for cls, n in counts.items())
        return weighted / total

    def aliased_indices(self, table_entries=None):
        """Observed sites whose PCs collide in a direct-mapped table of
        ``table_entries`` entries (word-aligned indexing; default
        ``TABLE_ENTRIES``)."""
        if table_entries is None:
            table_entries = self.TABLE_ENTRIES
        groups = {}
        for site in self.observed:
            groups.setdefault((site.pc >> 2) & (table_entries - 1),
                              []).append(site.index)
        aliased = set()
        for members in groups.values():
            if len(members) > 1:
                aliased.update(members)
        return aliased

    def _row(self, site, detail):
        """Summary-table row (index, line, class, ``detail``,
        loop-header line, loop depth) of ``site``."""
        if site.loop is not None:
            header_line = self.program.instructions[site.loop.header].line
            loop_line = header_line if header_line is not None else 0
            depth = site.loop.depth
        else:
            loop_line = "-"
            depth = 0
        return [site.index, site.line if site.line is not None else 0,
                site.cls, detail, loop_line, depth]


def lattice(up):
    """``(leq, join)`` of the class lattice whose upward closures are
    ``up`` (class -> the classes making at most as strong a claim).

    ``leq(a, b)`` is ``a ⊑ b``; ``join(a, b)`` is the least upper
    bound: the common member of both closures ranked lowest by
    generality (the larger its own closure, the stronger the claim),
    the class name breaking ties.
    """
    _RANK = {cls: len(up) - len(closure) for cls, closure in up.items()}

    def leq(a, b):
        return b in up[a]

    def join(a, b):
        return min(up[a] & up[b], key=lambda cls: (_RANK[cls], cls))
    return leq, join
