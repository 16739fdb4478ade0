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
  (``test_analysis.py``).
"""

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
