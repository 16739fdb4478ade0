"""Node elimination support (paper Figure 1.f).

Section 1: "it is sometimes possible to eliminate nodes in a dynamic
dependence graph.  For instance, with the collapsing of the dependence
between instructions 3 and 4, if the result of instruction 3 is not
needed elsewhere then 3 need not be executed."

The paper *observes* this but does not model it in its simulations; we
implement it as an optional extension (``MachineConfig(node_elimination=
True)``).  A collapsed producer is eliminated when the collapsing
consumer is the *sole reader* of its value — then the producer never
issues and never consumes an issue slot.

This module precomputes, for every trace position, the position of the
unique reader of its result (or ``-1`` when the value has zero readers,
several distinct readers, or may be live past the end of the trace).
Readers include register sources, store data sources, and condition-code
use.  An instruction writing several resources (e.g. ``addcc`` writes a
register *and* the condition codes) qualifies only if all its values are
read by the same single instruction.
"""

from ..trace.records import ST

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


def compute_sole_readers(trace):
    """Map each trace position to its unique reader position, or -1.

    -1 means the instruction's value(s) cannot justify elimination:
    no reader at all, more than one distinct reader, readers that differ
    between its written resources, or liveness past the end of the trace.
    The vectorized pass is :func:`repro.core.nelim.sole_readers`.
    """
    from .nelim import sole_readers
    return sole_readers(trace)


def _walk_sole_readers(trace):
    """:func:`compute_sole_readers` as one program-order walk over the
    open definitions: the scalar reference of the vectorized pass."""
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
