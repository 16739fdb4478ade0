"""Static access/execute loop slicing (decoupled access/execute).

ROADMAP item 3: the compiler-side counterpart of the paper's "loads
should reach the window as fast as dependences allow".  Following
Szafarczyk et al. (PAPERS.md), each innermost reducible loop is split
into an *access* stream — address computation plus the loads
themselves — and an *execute* stream consuming the loaded values
through bounded FIFO queues.  Decoupling is only legal when the access
stream never waits on the execute stream, i.e. when no load-derived
value feeds a load address: exactly the ``chase`` class test of
:mod:`repro.lint.addrclass`, lifted from single loads to whole slices.

For every load the pass computes the backward *address cone*: the
closure of the load's address inputs over the dependence edges of the
loop body.  Register and condition-code steps follow the
reaching-writer masks of :meth:`RecurrenceAnalysis.body_reaching`
(*may* writers — a superset of the must edges the recurrence graph
keeps, so the cone over-approximates and the clean verdict stays
sound), with loop-carried uses expanded one step through the merged
back-edge state; memory steps follow the must-alias store-to-load
edges of the recurrence graph.  The loop is

``clean``
    no cone contains a body load: the access slice (loads plus the
    union of cones) is self-contained and may run arbitrarily far
    ahead of the execute slice;
``chase-poisoned``
    some load's address cone contains a load — decoupling the loop
    would just move the pointer-chase stall into the access stream;
``skipped``
    no verdict: a call in the body, an irreducible header, or body
    nodes the reaching analysis does not cover ("uncapped chase
    coverage").  Each skip is a located ``dae-skip`` warning.

For clean loops the pass also derives the *minimum queue depth*: every
boundary load (a load whose value leaves the access slice) needs one
queue slot per iteration it runs ahead, and the access slice can run
ahead one iteration per ``recMII(access)`` cycles while the execute
slice retires one per ``recMII(body)``; a load latency plus that gap,
divided by the access recMII and with one slot of slack, bounds the
useful run-ahead.  :func:`dae_cross_check` proves the static story
against a configuration-H simulation (``MachineConfig.dae``): clean
loops incur zero dynamic chase dependences and dynamic peak queue
occupancy never exceeds the static depth.
"""

from fractions import Fraction

from ..trace.records import LD, ST
from .findings import SEV_WARNING, CheckResult, Finding
from .recurrence import RecurrenceAnalysis, _CC, _NUM_SLOTS

#: per-loop verdicts
VERDICT_CLEAN = "clean"
VERDICT_POISONED = "chase-poisoned"
VERDICT_SKIPPED = "skipped"


class _Uncapped(Exception):
    """A body node escapes the reaching-writer analysis."""


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _frac_ceil(value):
    return -(-value.numerator // value.denominator)


class DAELoop:
    """Slicing result for one innermost loop."""

    __slots__ = ("header", "line", "rec", "verdict", "reason", "body",
                 "loads", "cones", "access", "boundary", "execute",
                 "access_recmii", "body_recmii", "depth")

    def __init__(self, header, line, rec):
        self.header = header
        self.line = line
        self.rec = rec
        self.verdict = VERDICT_SKIPPED
        self.reason = ""
        self.body = frozenset()
        self.loads = frozenset()
        #: load index -> frozenset of address-cone members
        self.cones = {}
        self.access = frozenset()
        self.boundary = frozenset()
        self.execute = frozenset()
        self.access_recmii = None   # Fraction | None
        self.body_recmii = None     # Fraction | None
        self.depth = 0              # static queue-depth bound

    @property
    def access_fraction(self):
        if not self.body:
            return 0.0
        return len(self.access) / float(len(self.body))

    def __repr__(self):
        return "<DAELoop #%d %s access=%d/%d depth=%d>" % (
            self.header, self.verdict, len(self.access),
            len(self.body), self.depth)


class DAEAnalysis:
    """Access/execute slices over all innermost reducible loops."""

    def __init__(self, program, recurrence=None):
        if recurrence is None:
            recurrence = RecurrenceAnalysis(program)
        self.program = program
        self.recurrence = recurrence
        self.table = recurrence.table
        self._header_bit = 1 << recurrence.cfg.n
        #: loop header -> (in_state, carried_bits, mem_srcs)
        self._context = {}
        self.loops = []
        instrs = program.instructions
        for rec in recurrence.loops:
            self.loops.append(self._slice(rec))
        for header in recurrence.irreducible:
            ins = instrs[header]
            dl = DAELoop(header,
                         ins.line if ins.line is not None else 0, None)
            dl.reason = "irreducible loop"
            self.loops.append(dl)
        self.loops.sort(key=lambda dl: dl.header)

    # -- slice construction --------------------------------------------

    def _slice(self, rec):
        instrs = self.program.instructions
        header = rec.loop.header
        ins = instrs[header]
        dl = DAELoop(header, ins.line if ins.line is not None else 0,
                     rec)
        dl.body = frozenset(rec.loop.body)
        if rec.note:
            dl.reason = rec.note
            return dl
        table = self.table
        dl.loads = frozenset(i for i in dl.body
                             if table.cls[i] == LD)
        in_state, carried = self.recurrence.body_reaching(rec.loop)
        if carried is None:
            dl.reason = "uncapped chase coverage"
            return dl
        carried_bits = [frozenset(_bits(carried[r] & ~self._header_bit))
                        for r in range(_NUM_SLOTS)]
        mem_srcs = {}
        for edge in rec.edges:
            if edge.kind == "mem":
                mem_srcs.setdefault(edge.dst, set()).add(edge.src)
        ctx = (in_state, carried_bits, mem_srcs)
        self._context[header] = ctx
        try:
            cones = {}
            for load in sorted(dl.loads):
                slots = [s for s in (table.src1[load],
                                     table.src2[load]) if s >= 0]
                seeds = self._expand(ctx, load, slots)
                cones[load] = frozenset(self._value_closure(ctx, seeds))
            access = set(dl.loads)
            for cone in cones.values():
                access |= cone
            # boundary: loads whose value leaves the access slice (or
            # is never read in-body at all)
            readers = {load: set() for load in dl.loads}
            for i in dl.body:
                for p in self._expand(ctx, i, self._read_slots(i)):
                    if p in readers:
                        readers[p].add(i)
        except _Uncapped:
            del self._context[header]
            dl.reason = "uncapped chase coverage"
            return dl
        dl.cones = cones
        dl.access = frozenset(access)
        dl.boundary = frozenset(
            load for load in dl.loads
            if not readers[load]
            or any(r not in access for r in readers[load]))
        dl.execute = frozenset(dl.body - dl.access) | dl.boundary
        poisoners = sorted(i for cone in cones.values()
                           for i in cone if i in dl.loads)
        if poisoners:
            dl.verdict = VERDICT_POISONED
            dl.reason = ("load-derived address via load%s #%s"
                         % ("s" if len(set(poisoners)) > 1 else "",
                            ", #".join(str(i)
                                       for i in sorted(set(poisoners)))))
            return dl
        dl.verdict = VERDICT_CLEAN
        self._depth(dl)
        return dl

    def _read_slots(self, node):
        table = self.table
        slots = []
        for s in (table.src1[node], table.src2[node]):
            if s >= 0 and s not in slots:
                slots.append(s)
        if table.cls[node] == ST and table.datasrc[node] >= 0 \
                and table.datasrc[node] not in slots:
            slots.append(table.datasrc[node])
        if table.reads_cc[node]:
            slots.append(_CC)
        return slots

    def _expand(self, ctx, node, slots):
        """May-writers of ``node``'s value in the given register/cc
        slots, with loop-carried uses expanded one step through the
        merged back-edge state (a fixed point: the carried state's own
        header bit stands for values older than the current run, which
        the dynamic chase accounting excludes)."""
        in_state, carried_bits, _ = ctx
        state = in_state.get(node)
        if state is None:
            raise _Uncapped()
        out = set()
        for r in slots:
            mask = state[r]
            if mask & self._header_bit:
                out.update(carried_bits[r])
                mask &= ~self._header_bit
            out.update(_bits(mask))
        return out

    def _value_closure(self, ctx, seeds):
        """Closure of value-needed nodes over register/cc may-producers
        and must-alias memory edges (a load whose *value* is needed
        pulls in its must-alias store)."""
        mem_srcs = ctx[2]
        table = self.table
        out = set()
        work = list(seeds)
        while work:
            p = work.pop()
            if p in out:
                continue
            out.add(p)
            for q in self._expand(ctx, p, self._read_slots(p)):
                if q not in out:
                    work.append(q)
            if table.cls[p] == LD:
                for q in mem_srcs.get(p, ()):
                    if q not in out:
                        work.append(q)
        return out

    def slice_closure(self, dl, nodes):
        """Public closure operator for property tests: the given nodes
        plus the value closure of every member's producers.  The access
        slice of an analyzed loop is a fixed point of this operator."""
        ctx = self._context[dl.header]
        members = set(nodes)
        value_needed = set()
        for m in members:
            value_needed |= self._expand(ctx, m, self._read_slots(m))
        return frozenset(members | self._value_closure(ctx,
                                                       value_needed))

    # -- queue-depth bound ---------------------------------------------

    def _depth(self, dl):
        """Minimum queue depth for a clean loop's boundary loads.

        The access slice initiates one iteration per
        ``recMII(access-only cycles)`` cycles; the whole body retires
        one per ``recMII(body)``.  While a boundary load's value is in
        flight (its latency) plus while the execute slice lags (the
        recMII gap), each boundary load occupies one slot per iteration
        started; one extra slot of slack covers the enqueue/pop skew.
        """
        rec = dl.rec
        if not dl.boundary:
            dl.body_recmii = rec.recmii("A")
            return
        access_ratios = []
        for cycle in rec.cycles:
            if set(cycle.nodes) <= dl.access:
                ratio = cycle.ratio("A")
                if ratio is not None:
                    access_ratios.append(ratio)
        dl.access_recmii = max(access_ratios) if access_ratios else None
        dl.body_recmii = rec.recmii("A")
        access_eff = dl.access_recmii or Fraction(1)
        full = dl.body_recmii or access_eff
        gap = full - access_eff
        if gap < 0:
            gap = Fraction(0)
        load_lat = max(self.table.lat[load] for load in dl.boundary)
        dl.depth = len(dl.boundary) * (
            1 + _frac_ceil((load_lat + gap) / access_eff))

    # -- reporting -----------------------------------------------------

    def findings(self, file="<program>"):
        """``dae-skip`` warnings for loops the slicer drops."""
        found = []
        for dl in self.loops:
            if dl.verdict != VERDICT_SKIPPED:
                continue
            found.append(Finding(
                "dae-skip",
                "loop at instruction #%d skipped by the access/execute "
                "slicer (%s); its loads stay coupled"
                % (dl.header, dl.reason or "no verdict"),
                file=file, line=dl.line, index=dl.header,
                severity=SEV_WARNING))
        return found

    def summary_rows(self):
        """Rows (header line, body, loads, verdict, access, access %,
        boundary, recMII acc/body, depth, note) for ``--dae``."""

        def fmt_recmii(value):
            if value is None:
                return "-"
            ceil = _frac_ceil(value)
            return "%d (%s)" % (ceil, value) \
                if value.denominator != 1 else str(ceil)

        rows = []
        for dl in self.loops:
            rows.append([
                dl.line, len(dl.body), len(dl.loads), dl.verdict,
                len(dl.access), "%.0f%%" % (100.0 * dl.access_fraction),
                len(dl.boundary),
                fmt_recmii(dl.access_recmii),
                fmt_recmii(dl.body_recmii),
                dl.depth if dl.depth else "-",
                dl.reason or "-",
            ])
        return rows

    # -- the dynamic-side contract -------------------------------------

    def plan(self):
        """Build the :class:`DAEPlan` configuration H consumes."""
        access_of = {}
        boundary_of = {}
        body_of = {}
        chase_of = {}
        body_loads = {}
        capacity = {}
        clean = set()
        claimed = set()
        for dl in self.loops:
            if dl.verdict == VERDICT_SKIPPED:
                continue
            if claimed & dl.body:
                continue            # overlapping bodies: first wins
            claimed |= dl.body
            for i in dl.body:
                body_of[i] = dl.header
            body_loads[dl.header] = dl.loads
            for i in dl.access:
                chase_of[i] = dl.header
            if dl.verdict == VERDICT_CLEAN and dl.boundary:
                clean.add(dl.header)
                capacity[dl.header] = dl.depth
                for i in dl.access:
                    access_of[i] = dl.header
                for i in dl.boundary:
                    boundary_of[i] = dl.header
        return DAEPlan(static_signature(self.table), access_of,
                       boundary_of, body_of, chase_of, body_loads,
                       capacity, frozenset(clean))


def static_signature(table):
    """Canonical per-instruction tuple used to pin a :class:`DAEPlan`
    to the program it was derived from."""
    return tuple(
        (int(table.cls[i]), int(table.dest[i]), int(table.src1[i]),
         int(table.src2[i]), int(table.datasrc[i]), int(table.lat[i]),
         int(bool(table.reads_cc[i])), int(bool(table.writes_cc[i])))
        for i in range(len(table.cls)))


class DAEPlan:
    """The static slicing contract handed to the scheduler.

    Duck-typed by :class:`repro.core.scheduler.WindowScheduler` and
    :class:`repro.lint.sanitize.SchedulerSanitizer`; all maps are keyed
    by static instruction index and map to loop headers.
    """

    __slots__ = ("signature", "access_of", "boundary_of", "body_of",
                 "chase_of", "body_loads", "capacity", "clean")

    def __init__(self, signature, access_of, boundary_of, body_of,
                 chase_of, body_loads, capacity, clean):
        for header, depth in capacity.items():
            if depth < 1:
                raise ValueError(
                    "DAE queue depth for loop #%d must be >= 1, got %r"
                    % (header, depth))
        self.signature = signature
        self.access_of = access_of      # access member -> clean header
        self.boundary_of = boundary_of  # boundary load -> clean header
        self.body_of = body_of          # body member -> header (all)
        self.chase_of = chase_of        # access member -> header (all)
        self.body_loads = body_loads    # header -> frozenset of loads
        self.capacity = capacity        # clean header -> queue depth
        self.clean = clean              # headers of queued loops

    def validate(self, static):
        """Raise ValueError when ``static`` (a StaticTable) is not the
        program this plan was sliced from."""
        if static_signature(static) != self.signature:
            raise ValueError(
                "DAE plan does not match the trace's static program; "
                "rebuild the plan from the same workload and scale")

    def __repr__(self):
        return "<DAEPlan %d clean loops, %d access members>" % (
            len(self.clean), len(self.access_of))


class DAECheck(CheckResult):
    """Outcome of :func:`dae_cross_check` (mirrors ``MemDepCheck``)."""

    __slots__ = ("loops_checked", "clean_loops", "queued_loops",
                 "poisoned_loops", "skipped_loops", "peak", "enqueued",
                 "popped", "chase_deps")

    def __init__(self):
        CheckResult.__init__(self)
        self.loops_checked = 0
        self.clean_loops = 0
        self.queued_loops = 0
        self.poisoned_loops = 0
        self.skipped_loops = 0
        self.peak = 0
        self.enqueued = 0
        self.popped = 0
        self.chase_deps = 0


def dae_cross_check(analysis, trace, result):
    """Prove the static slices against a configuration-H simulation.

    Checks, per loop: (a) a statically-clean loop records zero dynamic
    chase dependences (no load-derived value reached an access-slice
    consumer within a run), (b) dynamic peak queue occupancy stays
    within the static depth bound, (c) queue pops never exceed
    enqueues.  ``result`` must come from a ``dae=True`` configuration
    simulated with the plan of ``analysis``.
    """
    plan = analysis.plan()
    plan.validate(trace.static)
    check = DAECheck()
    verdicts = {dl.header: dl.verdict for dl in analysis.loops}
    for dl in analysis.loops:
        if dl.verdict == VERDICT_SKIPPED:
            check.skipped_loops += 1
            continue
        check.loops_checked += 1
        if dl.verdict == VERDICT_CLEAN:
            check.clean_loops += 1
        else:
            check.poisoned_loops += 1
    check.queued_loops = len(plan.capacity)
    dae = result.dae
    if dae is None:
        check.violations.append(
            "simulation recorded no DAE statistics (configuration "
            "must set dae=True and pass the plan to the scheduler)")
        return check
    check.peak = dae.peak
    check.enqueued = dae.enqueued
    check.popped = dae.popped
    check.chase_deps = dae.chase_deps
    for header, stats in sorted(dae.loops.items()):
        verdict = verdicts.get(header)
        if verdict is None:
            check.violations.append(
                "dynamic DAE stats for loop #%d, which the static "
                "analysis never produced" % (header,))
            continue
        if verdict == VERDICT_CLEAN and stats.chase_deps:
            check.violations.append(
                "statically-clean loop #%d incurred %d dynamic chase "
                "dependence%s (%d stalled)"
                % (header, stats.chase_deps,
                   "s" if stats.chase_deps != 1 else "",
                   stats.chase_stalls))
        bound = plan.capacity.get(header)
        if bound is not None and stats.peak > bound:
            check.violations.append(
                "loop #%d peak queue occupancy %d exceeds the static "
                "depth bound %d" % (header, stats.peak, bound))
        if stats.popped > stats.enqueued:
            check.violations.append(
                "loop #%d popped %d queue entries but enqueued only %d"
                % (header, stats.popped, stats.enqueued))
    return check


__all__ = ["VERDICT_CLEAN", "VERDICT_POISONED", "VERDICT_SKIPPED",
           "DAEAnalysis", "DAECheck", "DAELoop", "DAEPlan",
           "dae_cross_check", "static_signature"]
