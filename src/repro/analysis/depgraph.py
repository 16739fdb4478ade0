"""Dynamic dependence-graph analysis (paper Section 1).

"An execution of a computer program defines a dynamic dataflow or
dependence graph ... in theory, the minimum execution time of the program
is the length of the longest path (i.e. the 'critical path') through the
dependence graph."

This module builds that graph from a trace and computes the paper's
theoretical quantities:

- the **critical path length** under true data dependences (registers,
  condition codes, memory through same-word stores) with the study's
  latencies — the dataflow execution-time limit with unbounded resources
  and perfect control prediction;
- the same limit under **collapsed** dependences, showing how collapsing
  shortens the critical path itself (the paper's Figure 1.e intuition);
- per-position *depth* (earliest dataflow completion time), from which
  the dataflow-limit IPC is derived.

Control dependences are ignored (perfect prediction), matching the
"theoretical limits under ideal assumptions" the paper contrasts with
its windowed results.
"""

from ..collapse.classify import Group
from ..trace.records import LD, ST


class DependenceGraph:
    """Explicit dynamic dependence graph of a trace.

    Edges point producer -> consumer; ``preds[pos]`` lists producer
    positions with their kinds (``"reg"``, ``"cc"``, ``"mem"``,
    ``"data"`` for store data).

    The adjacency lists (``preds``) are built lazily: :meth:`depths`
    comes straight from the SoA dependence columns
    (``repro.analysis.nkernel``) without materialising per-position
    edge lists, so a graph used only for depth/critical-path queries
    never pays for them.  Depths with address or value arcs cut come
    from :func:`restructured_depths`.
    """

    def __init__(self, trace):
        self.trace = trace
        self._preds = None       # per position: list of (producer, kind)
        self._depths = None

    @property
    def preds(self):
        if self._preds is None:
            self._build()
        return self._preds

    def _build(self):
        trace = self.trace
        static = trace.static
        sidx = trace.sidx
        src1_col = static.src1
        src2_col = static.src2
        datasrc_col = static.datasrc
        reads_cc_col = static.reads_cc
        writes_cc_col = static.writes_cc
        dest_col = static.dest
        cls_col = static.cls
        eff_addr = trace.eff_addr

        reg_writer = [-1] * 33
        mem_writer = {}
        preds = self._preds = []
        for i, s in enumerate(sidx):
            cls = cls_col[s]
            plist = []
            for src in (src1_col[s], src2_col[s]):
                if src >= 0 and reg_writer[src] >= 0:
                    plist.append((reg_writer[src], "reg"))
            if cls == ST:
                data = datasrc_col[s]
                if data >= 0 and reg_writer[data] >= 0:
                    plist.append((reg_writer[data], "data"))
            if reads_cc_col[s] and reg_writer[32] >= 0:
                plist.append((reg_writer[32], "cc"))
            if cls == LD:
                producer = mem_writer.get(eff_addr[i] >> 2, -1)
                if producer >= 0:
                    plist.append((producer, "mem"))
            preds.append(plist)
            dest = dest_col[s]
            if dest >= 0:
                reg_writer[dest] = i
            if writes_cc_col[s]:
                reg_writer[32] = i
            if cls == ST:
                mem_writer[eff_addr[i] >> 2] = i

    # ------------------------------------------------------------------

    def __len__(self):
        return len(self.trace)

    def depths(self):
        """Earliest dataflow completion time per position.

        ``depth[i] = max over producers p of depth[p]`` plus i's own
        latency — the longest dependence path ending at i.  Computed
        once and cached; returned as a tuple so a mutating caller
        cannot poison the cache (the recurrence cross-check and the
        dataflow exhibits share this object).
        """
        if self._depths is None:
            from .nkernel import variant_depths
            self._depths = tuple(variant_depths(self.trace).tolist())
        return self._depths

    def _walk_depths(self):
        """:meth:`depths` as one walk over the adjacency lists: the
        scalar reference of the vectorized kernel."""
        lat = self.trace.static.lat
        sidx = self.trace.sidx
        depths = [0] * len(self.preds)
        for i, plist in enumerate(self.preds):
            start = 0
            for p, _ in plist:
                if depths[p] > start:
                    start = depths[p]
            depths[i] = start + lat[sidx[i]]
        return depths

    def critical_path(self):
        """Length of the longest dependence path (completion cycles)."""
        depths = self.depths()
        return max(depths) if depths else 0


def issue_cycles(trace, depths):
    """Dataflow lower bound on the *issue* cycles of ``trace`` given the
    per-position ``depths`` of one of its dependence graphs.

    The simulator reports issue-based cycles (last issue + 1); the
    matching dataflow bound is the latest earliest-issue time plus
    one, i.e. ``max(depth[i] - latency[i]) + 1`` (0 for no depths).
    """
    if not depths:
        return 0
    lat = trace.static.lat
    sidx = trace.sidx
    return max(depth - lat[sidx[i]] for i, depth in enumerate(depths)) + 1


def restructured_depths(trace, collapse=False, cut_addr_loads=None,
                        cut_all_loads=False, cut_value_producers=None):
    """Per-position depths of the *restructured* dependence graph
    (Figure 1.e): the sound dataflow limit of the collapsing /
    speculating machines.

    ``collapse=True`` contracts every collapsible-class arc (register
    or condition-code edge between ``COLLAPSIBLE_PRODUCERS`` and
    ``COLLAPSIBLE_CONSUMERS`` classes): the consumer's start waits for
    the producer's *start*, not its completion.  This matches — and
    lower-bounds — the window scheduler's group merge, which makes a
    merged consumer inherit the producer's still-pending input arcs
    and never wait out the producer's latency; applying the contraction
    to *every* such arc with no group-size cap makes the resulting
    critical path a lower bound on the cycles of any legal collapse
    schedule (the greedy :func:`collapsed_depths` is an achievable
    estimate, not a bound — group-size interactions can make the real
    machine beat it).

    ``cut_addr_loads`` (a set of static indices) or
    ``cut_all_loads=True`` additionally removes the address-input
    register arcs of those loads, the edges address speculation
    breaks.  Ideal speculation (configuration E) clears a load's
    pending address arcs *including* arcs inherited from a merged
    address producer, so cutting the arcs entirely — with
    ``cut_all_loads`` for the ideal machine — under-estimates it
    soundly.  Memory and store-data arcs are never contracted or cut.

    ``cut_value_producers`` (a set of static indices) removes every
    register, condition-code and store-data arc *out of* those
    producers — the graph result-value speculation executes (variant
    V of :mod:`repro.lint.recurrence`): a consumer of a predicted
    value no longer waits for the producer at all.  Memory
    (store-to-load) arcs are kept — value speculation bypasses a
    register result, not the stored word.  Cutting every out-arc of
    the full static cut set under-estimates config I, which bypasses
    only confidently-predicted *loads* and replays mispredictions.
    """
    if cut_addr_loads is not None or cut_value_producers:
        return _walk_restructured(trace, collapse, cut_addr_loads,
                                  cut_all_loads, cut_value_producers)
    from .nkernel import variant_depths
    return variant_depths(trace, collapse=collapse,
                          cut_all_loads=cut_all_loads).tolist()


def _walk_restructured(trace, collapse=False, cut_addr_loads=None,
                       cut_all_loads=False, cut_value_producers=None):
    """:func:`restructured_depths` as one program-order walk: the pass
    the per-site cut variants need, and the scalar reference of the
    vectorized kernel for the others."""
    vcut_set = frozenset(cut_value_producers) if cut_value_producers \
        else frozenset()
    static = trace.static
    sidx = trace.sidx
    lat_col = static.lat
    cls_col = static.cls
    src1_col = static.src1
    src2_col = static.src2
    datasrc_col = static.datasrc
    reads_cc_col = static.reads_cc
    writes_cc_col = static.writes_cc
    dest_col = static.dest
    producer_ok = static.producer_ok
    consumer_ok = static.consumer_ok
    eff_addr = trace.eff_addr
    cut_set = frozenset(cut_addr_loads) if cut_addr_loads else frozenset()

    reg_writer = [-1] * 33
    mem_writer = {}
    n = len(trace)
    starts = [0] * n
    depths = [0] * n
    for i, s in enumerate(sidx):
        cls = cls_col[s]
        start = 0
        cut = cls == LD and (cut_all_loads or s in cut_set)
        contract = collapse and consumer_ok[s]
        if not cut:
            for src in (src1_col[s], src2_col[s]):
                if src >= 0 and reg_writer[src] >= 0:
                    p = reg_writer[src]
                    if sidx[p] in vcut_set:
                        continue
                    value = starts[p] if contract \
                        and producer_ok[sidx[p]] else depths[p]
                    if value > start:
                        start = value
        if cls == ST:
            data = datasrc_col[s]
            if data >= 0 and reg_writer[data] >= 0:
                p = reg_writer[data]
                if sidx[p] not in vcut_set and depths[p] > start:
                    start = depths[p]
        if reads_cc_col[s] and reg_writer[32] >= 0:
            p = reg_writer[32]
            if sidx[p] not in vcut_set:
                value = starts[p] if contract and producer_ok[sidx[p]] \
                    else depths[p]
                if value > start:
                    start = value
        if cls == LD:
            p = mem_writer.get(eff_addr[i] >> 2, -1)
            if p >= 0 and depths[p] > start:
                start = depths[p]
        starts[i] = start
        depths[i] = start + lat_col[s]
        dest = dest_col[s]
        if dest >= 0:
            reg_writer[dest] = i
        if writes_cc_col[s]:
            reg_writer[32] = i
        if cls == ST:
            mem_writer[eff_addr[i] >> 2] = i
    return depths


def collapsed_depths(trace, rules, graph=None):
    """Per-position depths when every legal collapse is applied greedily.

    This is the *unwindowed* analogue of the simulator's collapsing: with
    unlimited lookahead, each instruction merges its still-beneficial
    producers subject to ``rules`` (group size, operand count, zero
    detection).  Distance/window restrictions do not apply — the point is
    the graph-restructuring limit of Figure 1.e.  Pass ``graph`` to reuse
    an already-built :class:`DependenceGraph` of the same trace.
    """
    if graph is None:
        graph = DependenceGraph(trace)
    static = trace.static
    sidx = trace.sidx
    lat = static.lat
    sig_col = static.sig
    leaves_col = static.leaves
    zeros_col = static.zeros
    producer_ok = static.producer_ok
    consumer_ok = static.consumer_ok
    cls_col = static.cls

    depths = [0] * len(graph)
    groups = {}
    for i, plist in enumerate(graph.preds):
        s = sidx[i]
        group = Group(i, sig_col[s], leaves_col[s], zeros_col[s])
        start = 0
        # Count uses per producer for collapsible expression arcs.
        uses = {}
        for p, kind in plist:
            collapsible = (consumer_ok[s] and producer_ok[sidx[p]]
                           and kind in ("reg", "cc")
                           and not (cls_col[s] in (LD, ST)
                                    and kind == "cc"))
            if collapsible:
                uses[p] = uses.get(p, 0) + 1
            else:
                if depths[p] > start:
                    start = depths[p]
        for p, count in uses.items():
            merged = group.try_merge(groups[p], count, rules) \
                if depths[p] > start else None
            if merged is None:
                if depths[p] > start:
                    start = depths[p]
            else:
                # Collapsed: wait for the producer's own start time
                # instead of its completion.
                producer_start = depths[p] - lat[sidx[p]]
                if producer_start > start:
                    start = producer_start
        depths[i] = start + lat[s]
        groups[i] = group
    return depths


def collapsed_critical_path(trace, rules):
    """Critical path under greedy collapsing (max of
    :func:`collapsed_depths`)."""
    depths = collapsed_depths(trace, rules)
    return max(depths) if depths else 0
