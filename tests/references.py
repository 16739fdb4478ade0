"""Scalar references kept beside the tests that compare against them.

Each spells out, one instruction or position at a time, what a
production pass computes another way; nothing in ``src/`` calls them.

- :func:`_walk_sole_readers` — the program-order walk behind
  ``repro.core.elimination.compute_sole_readers`` (checked in
  ``test_kernel_equivalence.py``);
- :func:`_count_distribution` — the per-position count behind
  ``repro.metrics.means.issue_distribution`` (same test);
- :func:`critical_path_members` — one longest path of a
  ``DependenceGraph``, walked back from its deepest position
  (``test_analysis.py``);
- :class:`Group` and :func:`merge_category` — a mutable expression group
  merged one producer at a time, with the legality rule spelled out
  twice (a merge and a pure check), behind
  ``repro.collapse.classify.ShapeTable`` (``test_collapse_group.py``).
"""

from repro.collapse.stats import CAT_0OP, CAT_3_1, CAT_4_1
from repro.trace.records import ST

_CC = 32
_NO_READER = -1
_MULTI = -2


class _Definition:
    """One live value: who wrote it and who has read it so far."""

    __slots__ = ("writer", "reader")

    def __init__(self, writer):
        self.writer = writer
        self.reader = _NO_READER      # -1 none, -2 several distinct

    def read_by(self, position):
        if self.reader == _NO_READER:
            self.reader = position
        elif self.reader != position:
            self.reader = _MULTI


def _walk_sole_readers(trace):
    """:func:`repro.core.elimination.compute_sole_readers` as one
    program-order walk over the open definitions: the scalar reference
    of the vectorized pass."""
    static = trace.static
    sidx = trace.sidx
    dest_col = static.dest
    src1_col = static.src1
    src2_col = static.src2
    datasrc_col = static.datasrc
    writes_cc_col = static.writes_cc
    reads_cc_col = static.reads_cc
    cls_col = static.cls

    n = len(trace)
    sole_reader = [-1] * n
    # combined[pos]: -1 no reader seen yet, -2 conflict, >=0 the reader.
    combined = {}
    open_defs = {}                    # resource -> _Definition

    def close_definition(resource):
        definition = open_defs.pop(resource, None)
        if definition is None:
            return
        pos = definition.writer
        reader = definition.reader
        if reader == _NO_READER:
            # An unread value (e.g. the CC side of addcc that nothing
            # tests) does not make the result "needed elsewhere".
            return
        if reader == _MULTI:
            combined[pos] = _MULTI
            return
        previous = combined.get(pos, _NO_READER)
        if previous == _NO_READER:
            combined[pos] = reader
        elif previous != reader:
            combined[pos] = _MULTI

    for i in range(n):
        s = sidx[i]
        for src in (src1_col[s], src2_col[s]):
            if src >= 0 and src in open_defs:
                open_defs[src].read_by(i)
        if cls_col[s] == ST:
            data = datasrc_col[s]
            if data >= 0 and data in open_defs:
                open_defs[data].read_by(i)
        if reads_cc_col[s] and _CC in open_defs:
            open_defs[_CC].read_by(i)
        dest = dest_col[s]
        if dest >= 0:
            close_definition(dest)
            open_defs[dest] = _Definition(i)
        if writes_cc_col[s]:
            close_definition(_CC)
            open_defs[_CC] = _Definition(i)

    # Definitions still live at the end of the trace are conservatively
    # treated as needed (post-trace code might read them).
    for definition in open_defs.values():
        combined[definition.writer] = _MULTI

    for pos, reader in combined.items():
        sole_reader[pos] = reader if reader >= 0 else -1
    return sole_reader


def _count_distribution(result):
    """:func:`repro.metrics.means.issue_distribution` counted per
    position: the scalar reference of the vectorized count."""
    from collections import Counter

    eliminated = result.eliminated_positions
    total_cycles = max(1, result.cycles)
    per_cycle = Counter(
        c for position, c in enumerate(result.issue_cycles)
        if c >= 0 and position not in eliminated)
    distribution = Counter(per_cycle.values())
    idle = total_cycles - sum(distribution.values())
    if idle > 0:
        distribution[0] = idle
    return {count: cycles / total_cycles
            for count, cycles in sorted(distribution.items())}


def critical_path_members(graph):
    """One longest path of a ``DependenceGraph``, as a list of positions
    (oldest first)."""
    depths = graph.depths()
    if not depths:
        return []
    position = max(range(len(depths)), key=depths.__getitem__)
    lat = graph.trace.static.lat
    sidx = graph.trace.sidx
    path = [position]
    while True:
        plist = graph.preds[position]
        target = depths[position] - lat[sidx[position]]
        found = -1
        for p, _ in plist:
            if depths[p] == target:
                found = p
                break
        if found < 0:
            break
        path.append(found)
        position = found
    path.reverse()
    return path


class Group:
    """One dependence-expression group: member positions and their
    signatures in program order, and the zero-free (``leaves``) and raw
    (``raw_leaves``) operand counts."""

    __slots__ = ("positions", "sigs", "leaves", "raw_leaves")

    def __init__(self, position, sig, leaves, zeros):
        self.positions = [position]
        self.sigs = [sig]
        self.leaves = leaves
        self.raw_leaves = leaves + zeros

    @property
    def size(self):
        return len(self.positions)

    def merged_counts(self, producer, uses):
        """Operand counts if ``producer`` were substituted ``uses``
        times."""
        leaves = self.leaves - uses + uses * producer.leaves
        raw = self.raw_leaves - uses + uses * producer.raw_leaves
        return leaves, raw

    def try_merge(self, producer, uses, rules):
        """Merge ``producer`` into this group: the category, or ``None``
        (group unchanged) when the rules reject it."""
        positions = self.positions
        producer_positions = producer.positions
        size = len(positions) + len(producer_positions)
        leaves, raw = self.merged_counts(producer, uses)
        if size > rules.max_group:
            if not (rules.zero_detection and size == rules.max_group + 1
                    and raw > leaves and leaves <= rules.max_leaves):
                return None
            needed_zero_detection = True
        elif rules.zero_detection:
            if leaves > rules.max_leaves:
                return None
            needed_zero_detection = raw > rules.max_leaves
        else:
            if raw > rules.max_leaves:
                return None
            needed_zero_detection = False
        if producer_positions[-1] < positions[0]:
            self.positions = producer_positions + positions
            self.sigs = producer.sigs + self.sigs
        else:
            merged = dict(zip(positions, self.sigs))
            merged.update(zip(producer_positions, producer.sigs))
            order = sorted(merged)
            self.positions = order
            self.sigs = [merged[position] for position in order]
        self.leaves = leaves
        self.raw_leaves = raw
        if needed_zero_detection:
            return CAT_0OP
        if leaves <= 3:
            return CAT_3_1
        return CAT_4_1


def merge_category(consumer_group, producer_group, uses, rules):
    """:meth:`Group.try_merge`'s verdict without mutating either group."""
    size = consumer_group.size + producer_group.size
    leaves, raw = consumer_group.merged_counts(producer_group, uses)
    if size > rules.max_group:
        if (rules.zero_detection and size == rules.max_group + 1
                and raw > leaves and leaves <= rules.max_leaves):
            return CAT_0OP
        return None
    if rules.zero_detection:
        if leaves > rules.max_leaves:
            return None
        if raw > rules.max_leaves:
            return CAT_0OP
    else:
        if raw > rules.max_leaves:
            return None
    return CAT_3_1 if leaves <= 3 else CAT_4_1
