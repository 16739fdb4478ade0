"""Static loop-recurrence analysis: recMII per graph variant.

The paper's Figure 1.e argument is that collapsing and d-speculation
*restructure the dependence graph*: they shorten (or break) the
dependence cycles — recurrences — that cap how fast a loop can
possibly run.  This pass derives those caps from program text alone.

For every innermost reducible loop it builds a *must* dependence graph
of the loop body: nodes are instructions that execute exactly once per
iteration, edges are register, condition-code and memory dependences
that provably materialize every iteration, annotated with a *distance*
(0 = same iteration, 1 = loop-carried).  Every elementary cycle of
that graph is a recurrence; its latency/distance ratio bounds the
initiation interval, and

    recMII = max over cycles of latency / distance

bounds it globally.  Three variants of the graph are measured,
matching the machines the simulator models:

``A``
    the base graph: every edge costs its producer's latency.
``C``
    statically collapsed: an edge a collapse-capable consumer could
    merge (the scheduler's arc-collapsibility predicate: expression or
    condition-code arcs between ``COLLAPSIBLE_PRODUCERS`` /
    ``COLLAPSIBLE_CONSUMERS`` classes) costs *zero* — the machine's
    group merge inherits the producer's still-pending inputs, so a
    merged consumer never waits out the producer's latency.  No group
    size cap is applied: the contraction must *under*-estimate every
    legal collapse schedule for the bound to stay sound.
``E``
    collapsed, with address-input edges *cut* for loads whose address
    :mod:`repro.lint.addrclass` classifies stride/affine/invariant —
    the edges realizable d-speculation breaks.  A cycle containing a
    cut edge is no recurrence at all and contributes no bound.
``V``
    collapsed, with every edge *out of* a value-speculatable producer
    cut: all loads (config I attempts any load the confidence gate
    opens for) plus every non-load whose result
    :mod:`repro.lint.valueflow` classifies stride/invariant-
    predictable.  These are the edges result-value speculation breaks;
    memory (store-to-load) edges are never cut — value speculation
    bypasses a *register* result, not the stored word.

Only *must* edges enter the graph (singleton reaching-writer masks,
must-alias memory): omitting an edge can only weaken the computed
bound, never invalidate it, so every approximation in this file errs
toward omission.  The dynamic side of the story — per-iteration depth
growth in the trace dependence graph and the simulated machines — is
checked against these numbers by :mod:`repro.lint.ipcbound`.
"""

from fractions import Fraction
from itertools import islice, product

from ..isa.opcodes import Opcode
from ..trace.records import LD, ST
from .addrclass import PREDICTABLE_CLASSES, AddressClassification
from .cycles import elementary_cycles
from .findings import Finding, SEV_WARNING
from .induction import INV
from .valueflow import ValueFlowAnalysis

#: graph variants, in report order
VARIANTS = ("A", "C", "E", "V")

_NUM_SLOTS = 33          # 32 registers + condition codes (slot 32)
_CC = 32

#: cap on per-cycle parallel-edge combinations evaluated exactly
_COMBO_CAP = 64
#: cap on the elementary cycles enumerated per loop
_CYCLE_LIMIT = 256


class RecEdge:
    """One must-dependence edge of a loop-body graph."""

    __slots__ = ("src", "dst", "dist", "kind", "lat", "contractible",
                 "cut", "vcut")

    def __init__(self, src, dst, dist, kind, lat, contractible, cut,
                 vcut=False):
        self.src = src
        self.dst = dst
        self.dist = dist        # 0 = same iteration, 1 = loop-carried
        self.kind = kind        # "reg" | "cc" | "mem" | "data"
        self.lat = lat          # latency of the producer
        self.contractible = contractible
        self.cut = cut          # broken by realizable d-speculation (E)
        self.vcut = vcut        # broken by result-value speculation (V)

    def __repr__(self):
        return "<RecEdge %d->%d d%d %s%s%s%s>" % (
            self.src, self.dst, self.dist, self.kind,
            " collapse" if self.contractible else "",
            " cut" if self.cut else "",
            " vcut" if self.vcut else "")


class CycleBound:
    """One elementary recurrence with its per-variant latency."""

    __slots__ = ("nodes", "dist", "latency")

    def __init__(self, nodes, dist, latency):
        self.nodes = tuple(nodes)
        self.dist = dist
        #: variant -> summed latency, or None when the cycle is broken
        #: in that variant (contains a cut edge)
        self.latency = latency

    def ratio(self, variant):
        lat = self.latency.get(variant)
        if lat is None or self.dist <= 0:
            return None
        return Fraction(lat, self.dist)

    @property
    def anchor(self):
        return min(self.nodes)


class LoopRecurrence:
    """Recurrence bounds of one innermost reducible loop."""

    __slots__ = ("loop", "nodes", "edges", "cycles", "truncated",
                 "note", "best")

    def __init__(self, loop, nodes, edges, cycles, truncated, note=""):
        self.loop = loop
        self.nodes = nodes          # once-per-iteration body nodes
        self.edges = edges
        self.cycles = cycles
        self.truncated = truncated
        self.note = note
        #: variant -> CycleBound with the largest latency/distance
        self.best = {}
        for variant in VARIANTS:
            best = None
            for cycle in cycles:
                ratio = cycle.ratio(variant)
                if ratio is None:
                    continue
                if best is None or ratio > best.ratio(variant):
                    best = cycle
            self.best[variant] = best

    def recmii(self, variant):
        """Recurrence-constrained minimum initiation interval
        (cycles per iteration) as an exact Fraction, or None when no
        unbroken cycle exists in the variant."""
        best = self.best.get(variant)
        return best.ratio(variant) if best is not None else None

    def ipc_ceiling(self, variant):
        """Static IPC ceiling ``body size / recMII`` for the variant;
        None when the variant has no recurrence (unbounded by this
        loop)."""
        recmii = self.recmii(variant)
        if recmii is None or recmii == 0:
            return None
        return len(self.loop.body) / float(recmii)


class RecurrenceAnalysis:
    """Per-program recurrence bounds over all innermost reducible
    loops."""

    def __init__(self, program, classes=None, valueflow=None):
        self.program = program
        self.classes = classes if classes is not None \
            else AddressClassification(program)
        self.valueflow = valueflow if valueflow is not None \
            else ValueFlowAnalysis(program, values=self.classes.values)
        self.cfg = self.classes.cfg
        self.forest = self.classes.forest
        #: static indices variant V cuts the out-edges of — the single
        #: source of truth shared with the dynamic graph V
        self.value_cut = self.valueflow.cut_indices()
        self.table = self.cfg.table
        self.loops = []             # LoopRecurrence, analyzed loops
        #: instruction indices heading cycles no bound is derived for:
        #: natural-loop headers inside irreducible regions, plus the
        #: heads of irreducible retreating edges (multi-entry cycles
        #: that form no natural loop at all)
        self.irreducible = []
        self._analyze()

    # ------------------------------------------------------------------

    def _analyze(self):
        skipped = set()
        for loop in self.forest.loops:
            if loop.children:
                continue            # only innermost loops carry recMII
            if self.forest.in_irreducible_region(loop.header):
                skipped.add(loop.header)
                continue
            self.loops.append(self._analyze_loop(loop))
        for _, head in self.forest.irreducible_edges:
            skipped.add(head)
        self.irreducible = sorted(skipped)

    def _analyze_loop(self, loop):
        instrs = self.program.instructions
        for i in loop.body:
            op = instrs[i].opcode
            if op is Opcode.CALL or op is Opcode.JMPL:
                return LoopRecurrence(loop, (), (), (), False,
                                      note="call in body")
        nodes = self._eligible(loop)
        in_state, carried = self._body_reaching(loop)
        edges = self._register_edges(loop, nodes, in_state, carried)
        edges.extend(self._memory_edges(loop, nodes))
        cycles, truncated = self._cycles(edges)
        return LoopRecurrence(loop, nodes, edges, cycles, truncated)

    def _eligible(self, loop):
        """Body nodes that execute exactly once per iteration: they
        dominate every back-edge tail (innermost loops have no inner
        cycle, so 'at least once' is 'exactly once')."""
        dom = self.forest.dom
        tails = [tail for tail, _ in loop.back_edges]
        return tuple(sorted(
            i for i in loop.body
            if all(dom.dominates(i, tail) for tail in tails)))

    def _body_reaching(self, loop):
        """Reaching writers *within one iteration*.

        Forward dataflow over the body only, seeded at the header with
        the pseudo-writer HEADER (bit ``cfg.n``) in every slot; back
        edges are not followed.  Returns ``(in_state, carried)`` where
        ``in_state[i]`` is a 33-slot mask list and ``carried[r]`` is
        the merged out-state of all back-edge tails — the writers whose
        values the next iteration receives.
        """
        table = self.table
        cfg = self.cfg
        body = loop.body
        header = loop.header
        header_bit = 1 << cfg.n
        in_state = {header: [header_bit] * _NUM_SLOTS}
        work = [header]
        while work:
            i = work.pop()
            out = list(in_state[i])
            dest = table.dest[i]
            if dest >= 0:
                out[dest] = 1 << i
            if table.writes_cc[i]:
                out[_CC] = 1 << i
            for s in cfg.successors(i):
                if s >= cfg.n or s not in body or s == header:
                    continue
                target = in_state.get(s)
                if target is None:
                    in_state[s] = list(out)
                    work.append(s)
                    continue
                changed = False
                for r in range(_NUM_SLOTS):
                    merged = target[r] | out[r]
                    if merged != target[r]:
                        target[r] = merged
                        changed = True
                if changed:
                    work.append(s)
        carried = [0] * _NUM_SLOTS
        for tail, _ in loop.back_edges:
            state = in_state.get(tail)
            if state is None:       # tail unreachable from header
                return in_state, None
            out = list(state)
            dest = table.dest[tail]
            if dest >= 0:
                out[dest] = 1 << tail
            if table.writes_cc[tail]:
                out[_CC] = 1 << tail
            for r in range(_NUM_SLOTS):
                carried[r] |= out[r]
        return in_state, carried

    def body_reaching(self, loop):
        """Public access to the per-iteration reaching-writer state;
        :mod:`repro.lint.dae` builds its address cones on it."""
        return self._body_reaching(loop)

    def _register_edges(self, loop, nodes, in_state, carried):
        """Register and condition-code must edges between
        once-per-iteration nodes."""
        table = self.table
        header_bit = 1 << self.cfg.n
        eligible = set(nodes)
        edges = []
        seen = set()

        def add(src, dst, dist, kind):
            if src not in eligible:
                return
            key = (src, dst, dist, kind)
            if key in seen:
                return
            seen.add(key)
            contractible = (kind in ("reg", "cc")
                            and table.consumer_ok[dst]
                            and table.producer_ok[src])
            cut = (kind == "reg" and table.cls[dst] == LD
                   and self._load_cut(dst))
            vcut = src in self.value_cut
            edges.append(RecEdge(src, dst, dist, kind, table.lat[src],
                                 contractible, cut, vcut))

        def resolve(dst, slot, kind):
            state = in_state.get(dst)
            if state is None:
                return
            mask = state[slot]
            if mask and mask & (mask - 1) == 0 and mask != header_bit:
                add(mask.bit_length() - 1, dst, 0, kind)
            elif mask == header_bit and carried is not None:
                cmask = carried[slot]
                if cmask and cmask & (cmask - 1) == 0 \
                        and cmask != header_bit:
                    add(cmask.bit_length() - 1, dst, 1, kind)

        for dst in nodes:
            for src_reg in (table.src1[dst], table.src2[dst]):
                if src_reg >= 0:
                    resolve(dst, src_reg, "reg")
            if table.cls[dst] == ST and table.datasrc[dst] >= 0:
                resolve(dst, table.datasrc[dst], "data")
            if table.reads_cc[dst]:
                resolve(dst, _CC, "cc")
        return edges

    def _load_cut(self, load):
        """True when realizable d-speculation breaks this load's
        address-input edges: the address class is predictable."""
        site = self.classes.by_index.get(load)
        return site is not None and site.cls in PREDICTABLE_CLASSES

    # -- memory must-alias edges ---------------------------------------

    def _addr_key(self, i, loop):
        """Run-constant address of a memory instruction as a hashable
        key, or None when the address is not provably constant within
        a run of ``loop``.  Keys compare equal iff the dynamic
        addresses are equal every iteration."""
        ins = self.program.instructions[i]
        if ins.rs1 < 0:
            return ("abs", ins.imm or 0)
        if ins.imm is None and ins.rs2 >= 0:
            return None             # reg+reg: offset unknown
        form = self.classes.values.form(ins.rs1, i, loop)
        if form[0] != INV:
            return None
        return ("reg", ins.rs1, ins.imm or 0)

    @staticmethod
    def _keys_distinct(key_a, key_b):
        """True when two run-constant addresses provably touch
        different words (4-byte granularity, unknown alignment)."""
        if key_a[0] != key_b[0]:
            return False            # reg vs abs: unknown relation
        if key_a[0] == "reg" and key_a[1] != key_b[1]:
            return False            # different base registers
        return abs(key_a[-1] - key_b[-1]) >= 4

    def _memory_edges(self, loop, nodes):
        """Store-to-load must edges through run-constant addresses.

        A carried (or same-iteration) memory recurrence needs: exactly
        one store whose address equals the load's every iteration, and
        every other store in the body provably distinct from it.  Any
        ambiguity drops the edge — omission is sound.
        """
        table = self.table
        dom = self.forest.dom
        eligible = set(nodes)
        stores = [i for i in loop.body if table.cls[i] == ST]
        loads = [i for i in loop.body if table.cls[i] == LD]
        if not stores or not loads:
            return []
        store_keys = {s: self._addr_key(s, loop) for s in stores}
        if any(key is None for key in store_keys.values()):
            return []               # an untracked store aliases anything
        edges = []
        for load in loads:
            if load not in eligible:
                continue
            lkey = self._addr_key(load, loop)
            if lkey is None:
                continue
            writers = []
            blocked = False
            for s in stores:
                skey = store_keys[s]
                if skey == lkey:
                    writers.append(s)
                elif not self._keys_distinct(skey, lkey):
                    blocked = True
                    break
            if blocked or len(writers) != 1:
                continue
            store = writers[0]
            if store not in eligible:
                continue
            if dom.dominates(store, load):
                dist = 0
            elif dom.dominates(load, store):
                dist = 1
            else:
                continue
            # Never vcut: value speculation bypasses register results,
            # not the stored memory word.
            edges.append(RecEdge(store, load, dist, "mem",
                                 table.lat[store], False, False, False))
        return edges

    # -- cycle enumeration and per-variant latencies -------------------

    def _cycles(self, edges):
        by_pair = {}
        graph = {}
        for edge in edges:
            by_pair.setdefault((edge.src, edge.dst), []).append(edge)
            graph.setdefault(edge.src, set()).add(edge.dst)
            graph.setdefault(edge.dst, set())
        node_cycles, truncated = elementary_cycles(
            {u: sorted(vs) for u, vs in graph.items()},
            limit=_CYCLE_LIMIT)
        cycles = []
        for nodes in node_cycles:
            hops = [by_pair[(nodes[k], nodes[(k + 1) % len(nodes)])]
                    for k in range(len(nodes))]
            combos = product(*hops)
            total = 1
            for options in hops:
                total *= len(options)
            if total > _COMBO_CAP:
                combos = islice(combos, _COMBO_CAP)
                truncated = True
            for combo in combos:
                dist = sum(edge.dist for edge in combo)
                if dist <= 0:
                    continue        # cannot happen: intra edges are acyclic
                lat_a = sum(edge.lat for edge in combo)
                lat_c = sum(edge.lat for edge in combo
                            if not edge.contractible)
                broken = any(edge.cut for edge in combo)
                vbroken = any(edge.vcut for edge in combo)
                cycles.append(CycleBound(nodes, dist, {
                    "A": lat_a, "C": lat_c,
                    "E": None if broken else lat_c,
                    "V": None if vbroken else lat_c}))
        return cycles, truncated

    # -- reporting -----------------------------------------------------

    def findings(self, file="<program>"):
        """``recur-irreducible`` warnings for skipped loops."""
        instrs = self.program.instructions
        found = []
        for header in self.irreducible:
            ins = instrs[header]
            found.append(Finding(
                "recur-irreducible",
                "cycle entered at instruction #%d lies in an "
                "irreducible region; no static recurrence bound is "
                "derived for it" % (header,),
                file=file, line=ins.line, index=header,
                severity=SEV_WARNING))
        return found

    def summary_rows(self):
        """Rows (header line, body, nodes, cycles, recMII A/C/E/V,
        ceiling A/C/E/V, note) for the CLI ``--recur`` table."""
        instrs = self.program.instructions

        def fmt_recmii(value):
            if value is None:
                return "-"
            ceil = -(-value.numerator // value.denominator)
            return "%d (%s)" % (ceil, value) if value.denominator != 1 \
                else str(ceil)

        def fmt_ceiling(value):
            return "inf" if value is None else "%.1f" % value

        rows = []
        for rec in self.loops:
            header_ins = instrs[rec.loop.header]
            line = header_ins.line if header_ins.line is not None else 0
            note = rec.note
            if rec.truncated:
                note = (note + "; " if note else "") + "truncated"
            rows.append([
                line, len(rec.loop.body), len(rec.nodes),
                len(rec.cycles),
                fmt_recmii(rec.recmii("A")),
                fmt_recmii(rec.recmii("C")),
                fmt_recmii(rec.recmii("E")),
                fmt_recmii(rec.recmii("V")),
                fmt_ceiling(rec.ipc_ceiling("A")),
                fmt_ceiling(rec.ipc_ceiling("C")),
                fmt_ceiling(rec.ipc_ceiling("E")),
                fmt_ceiling(rec.ipc_ceiling("V")),
                note or "-",
            ])
        return rows


__all__ = ["VARIANTS", "CycleBound", "LoopRecurrence", "RecEdge",
           "RecurrenceAnalysis"]
