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

The pass is vectorized, without a program-order walk.  A *definition*
is one write event (register or condition code); its readers are
exactly the reads whose last writer, found with the same sorted-stream
binary search the dependence kernel uses (:mod:`repro.analysis.nkernel`),
is that write.  Grouping reads by matched definition then reduces the
sole-reader rule to segment arithmetic:

- a definition with no matched read is ignored (value never needed);
- a definition whose reads name a single distinct reader proposes it;
- several distinct readers, or liveness past the end of the trace (the
  resource's final write), disqualify the writer;
- a writer with several read definitions (e.g. ``addcc``) qualifies
  only if they agree on the reader.

The scheduler imports this module at load time, so numpy is imported
inside the functions: a run without node elimination never loads it.
"""

from ..trace.records import ST

_CC = 32


def _read_events(soa):
    """(reader position, resource) for every register/cc/store-data read."""
    import numpy as np

    n = soa.n
    pos = np.arange(n, dtype=np.int64)
    cls = soa.gathered("cls")
    src1 = soa.gathered("src1")
    src2 = soa.gathered("src2")
    datasrc = soa.gathered("datasrc")
    reads_cc = soa.gathered("reads_cc")
    store_data = np.where(cls == ST, datasrc, -1)
    cc = np.where(reads_cc, _CC, -1)
    readers = []
    resources = []
    for column in (src1, src2, store_data, cc):
        mask = column >= 0
        readers.append(pos[mask])
        resources.append(column[mask])
    return np.concatenate(readers), np.concatenate(resources)


def compute_sole_readers(trace):
    """Map each trace position to its unique reader position, or -1.

    -1 means the instruction's value(s) cannot justify elimination:
    no reader at all, more than one distinct reader, readers that differ
    between its written resources, or liveness past the end of the trace.
    """
    import numpy as np

    soa = trace.soa()
    n = soa.n
    if n == 0:
        return []
    pos = np.arange(n, dtype=np.int64)
    dest = soa.gathered("dest")
    writes_cc = soa.gathered("writes_cc")

    # Write stream sorted by (resource, position): one definition each.
    wmask = dest >= 0
    wres = np.concatenate([dest[wmask],
                           np.full(int(writes_cc.sum()), _CC,
                                   dtype=np.int64)])
    wpos = np.concatenate([pos[wmask], pos[writes_cc]])
    stride = np.int64(n + 1)
    worder = np.argsort(wres * stride + wpos)
    wres = wres[worder]
    wpos = wpos[worder]
    wkey = wres * stride + wpos
    if wkey.size == 0:
        return [-1] * n

    # Match each read to its definition (last write strictly before it).
    rpos, rres = _read_events(soa)
    slot = np.searchsorted(wkey, rres * stride + rpos) - 1
    matched = slot >= 0
    slot = np.where(matched, slot, 0)
    matched &= wres[slot] == rres
    slot = slot[matched]
    rpos = rpos[matched]

    # Distinct readers per definition: min == max iff exactly one.
    first_reader = np.full(wkey.shape[0], n, dtype=np.int64)
    last_reader = np.full(wkey.shape[0], -1, dtype=np.int64)
    np.minimum.at(first_reader, slot, rpos)
    np.maximum.at(last_reader, slot, rpos)
    read = last_reader >= 0
    single = read & (first_reader == last_reader)

    # The final write of each resource is live past the trace end.
    final = np.empty(wkey.shape[0], dtype=bool)
    final[-1] = True
    final[:-1] = wres[1:] != wres[:-1]

    # Fold per-writer: unread definitions are ignored, read ones must
    # agree on the reader, several distinct readers or liveness past the
    # trace end veto.  A writer has at most one register and one cc
    # definition, so folding them in two duplicate-free passes suffices.
    proposed = np.full(n, -1, dtype=np.int64)
    conflict = np.zeros(n, dtype=bool)
    for group in (wres != _CC, wres == _CC):
        mask = single & ~final & group
        w = wpos[mask]
        r = first_reader[mask]
        seen = proposed[w]
        conflict[w] |= (seen >= 0) & (seen != r)
        proposed[w] = r
    conflict[wpos[(read & ~single) | final]] = True

    result = np.where(conflict, -1, proposed)
    return result.tolist()
