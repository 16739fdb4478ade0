"""Cycle-scan reference machine for configurations A and B.

Written from docs/MODEL.md ("The machine", "Control", "Load
speculation"), not from ``repro.core.scheduler``: it keeps no event
heaps, pending sets or bounds.  Every cycle it refills the window in
program order, then scans the residents oldest first and issues up to
``width`` of those whose producers have issued and completed.  It costs
O(cycles x window) and exists only to show that the event-driven
scheduler has the same semantics (DESIGN.md section 2).
"""

from repro.trace.records import LD, ST

CC = "cc"


def producers(trace):
    """Per position, ``(address, other)`` producer sets: a load's
    address registers are its address producers; every other register,
    condition-code, store-data and last-store producer is an other."""
    static = trace.static
    writer = {}             # register or CC -> last writer
    last_store = {}         # word -> last store
    out = []
    for i, s in enumerate(trace.sidx):
        cls = static.cls[s]
        word = trace.eff_addr[i] >> 2
        regs = {writer[r] for r in (static.src1[s], static.src2[s])
                if r in writer}
        other = set()
        if cls == ST and static.datasrc[s] in writer:
            other.add(writer[static.datasrc[s]])
        if static.reads_cc[s] and CC in writer:
            other.add(writer[CC])
        if cls == LD:
            if word in last_store:
                other.add(last_store[word])
            out.append((regs, other))
        else:
            out.append((set(), regs | other))
        if static.dest[s] >= 0:
            writer[static.dest[s]] = i
        if static.writes_cc[s]:
            writer[CC] = i
        if cls == ST:
            last_store[word] = i
    return out


def reference_issue_cycles(trace, width, window, mispredicted=(),
                           load_prediction=None):
    """Issue cycle of every position on machine A, or on B when
    ``load_prediction`` (the two-delta outcomes) is given."""
    n = len(trace)
    lat = [trace.static.lat[s] for s in trace.sidx]
    arcs = producers(trace)
    issue = [-1] * n
    deps = [None] * n

    def completed(p, cycle):
        return 0 <= issue[p] and issue[p] + lat[p] <= cycle

    resident = []           # in-window positions, oldest first
    fetched = 0
    fence = -1              # an unissued mispredicted branch in the window
    cycle = 0
    while fetched < n or resident:
        while fetched < n and len(resident) < window and fence < 0:
            i = fetched
            address, other = arcs[i]
            # A not-ready load with a correct address prediction drops
            # its address-generation producers.
            if load_prediction is not None and address \
                    and not all(completed(p, cycle) for p in address) \
                    and load_prediction.attempted.get(i, False) \
                    and load_prediction.correct.get(i, False):
                address = set()
            deps[i] = address | other
            resident.append(i)
            fetched += 1
            if i in mispredicted:
                fence = i
        ready = [i for i in resident
                 if all(completed(p, cycle) for p in deps[i])][:width]
        for i in ready:
            issue[i] = cycle
            resident.remove(i)
        if fence in ready:
            fence = -1      # fetch reopens the next cycle
        cycle += 1
    return issue
