"""Speculation components of the window scheduler.

:meth:`WindowScheduler.run <repro.core.scheduler.WindowScheduler.run>`
is the paper's machine.  Each mechanism this repository adds to it is
one class here, built once per run by :func:`build_components`:
:class:`MemorySpeculation` (``mem_spec="mdpt"``, configs F/G),
:class:`Decoupling` (``dae`` with a plan, H), :class:`ValueSpeculation`
(``value_spec``, I/J and the oracle ``value_spec=True``) and
:class:`ExitBranchResolution` (``branch_spec`` with a plan, J);
configurations A-E build none.  A component defines only the hooks
where it has work, and the core calls each hook through the one
component defining it (config validation keeps the components that
share a hook mutually exclusive):

- ``admit(i, window_full, now)`` at fetch: True when ``i`` enters the
  component's own window instead of the main one;
- ``memory_arc(i, s, store, now)`` at a load whose last prior store to
  the word is ``store`` (-1: none): the position to wait for instead;
- ``triage(i, arcs, pending, now)`` once the arcs are gathered: drops
  the relaxed arcs, appends to ``pending`` those that must stay
  unresolved and returns the rest;
- ``entered(i, s, cls, arcs, pending, merged, addr_dropped, now)`` once
  the dependences are registered, before the architectural update;
- ``waives(i, now)`` at a mispredicted branch: True waives its fetch
  fence;
- ``issued(pos, now)`` after an issue: True withholds the completion
  from consumers;
- ``slotless``, a set: positions whose issue or elimination frees no
  main-window slot (a replay re-uses the slot its first issue freed, an
  access-window member never held one); the core takes them out then;
- ``taint``, a dict: positions that may yet be squashed; notify keeps
  their consumer lists, so a squash can re-block unissued consumers.

Each component fills one stats record, ``stats``, which the run returns
as ``SimResult.<FIELD>``.
"""

from array import array
from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush

from ..memdep import FLUSH_PENALTY, MDPT, MemDepStats
from ..trace.records import BRC, LD, ST
from .branchspecstats import BranchSpecStats
from .config import MEM_SPEC_MDPT
from .daestats import DAEStats
from .vspecstats import ValueSpecStats

#: Kinds of the producer arcs gathered at window entry: address
#: generation of a load or store, or other.  Only entry reads them (load
#: classification, the address-speculation drop, collapsing); past entry
#: a dependence has no kind.
_KIND_ADDR = 0
_KIND_OTHER = 1


def build_components(scheduler, core):
    """The components ``scheduler.config`` enables, built on the run's
    per-position state ``core``, and the one that recovers by
    squash/replay (or None)."""
    config = scheduler.config
    recovery = None
    if config.mem_spec == MEM_SPEC_MDPT:
        recovery = MemorySpeculation(scheduler, core)
    elif config.value_spec:
        recovery = ValueSpeculation(scheduler, core)
    parts = [recovery] if recovery is not None else []
    if scheduler.dae_plan is not None:
        parts.append(Decoupling(scheduler, core))
    if scheduler.branch_plan is not None:
        parts.append(ExitBranchResolution(scheduler))
    return parts, recovery


def hook(parts, name, default=None):
    """Hook ``name`` of the one component defining it, or ``default``."""
    return next((getattr(part, name) for part in parts
                 if hasattr(part, name)), default)


class Recovery:
    """The one squash/replay engine, base of the two components that
    speculate past a dependence and undo it when wrong.

    A subclass pushes ``(cycle, position)`` events on :attr:`events`,
    handles each in ``fire(when, position, now)`` when the core drains
    the heap, and says in ``outstanding()`` whether it still owes a
    squash or a release.  A squashed position re-issues once re-armed,
    into the window slot its first issue freed.
    """

    def __init__(self, scheduler, core):
        self.core = core
        self.sidx = scheduler.trace.sidx
        self.cls_col = scheduler.trace.static.cls
        self.issue_cycle = core.issue_cycle
        self.completion = core.completion
        self.san = scheduler.sanitizer
        self.events = []        # (cycle, position) heap
        self.replaying = self.slotless = set()  # squashed, to re-issue
        self._squashed = 0

    def squash(self, p, report, *args):
        """Undo ``p``'s issue; ``report`` is the cause's sanitizer hook
        (or None), called with ``args``."""
        self.issue_cycle[p] = -1
        self.completion[p] = 0
        self.replaying.add(p)
        self._squashed += 1
        if report is not None:
            report(*args)

    def rearm(self, p, when, floor=0, waits=None):
        """Make squashed ``p`` ready ``FLUSH_PENALTY`` cycles after
        ``when`` (not before ``floor``) and after the unissued producers
        in ``waits``."""
        core = self.core
        base = max(when + FLUSH_PENALTY, floor)
        core.bound[p] = base
        if waits:
            core.pend[p] = waits
            for q in waits:
                core.consumers.setdefault(q, []).append(p)
        else:
            core.pend.pop(p, None)
            heappush(core.future_heap, (base, p))

    def drain(self, now):
        """Fire the events due by ``now``; returns how many positions
        were squashed."""
        self._squashed = 0
        events = self.events
        while events and events[0][0] <= now:
            when, p = heappop(events)
            self.fire(when, p, now)
        return self._squashed


def _register_writes(trace):
    """Per register (32: the condition codes), the ascending positions
    that write it, as ``array("i")``: the last writer of a register
    before any position is one bisection away.  One pass over the
    trace; nothing is kept on it."""
    static = trace.static
    dest = static.dest
    writes_cc = static.writes_cc
    writes = {reg: array("i") for reg in set(dest) if reg >= 0}
    writes[32] = cc = array("i")
    for i, s in enumerate(trace.sidx):
        reg = dest[s]
        if reg >= 0:
            writes[reg].append(i)
        if writes_cc[s]:
            cc.append(i)
    return writes


def _last_write(writes, reg, p):
    """The last position before ``p`` that writes ``reg``, or -1."""
    positions = writes.get(reg)
    if not positions:
        return -1
    k = bisect_left(positions, p)
    return positions[k - 1] if k else -1


class MemorySpeculation(Recovery):
    """Realistic disambiguation (configs F/G, docs/MODEL.md): loads
    issue past unresolved stores; a load that issued before its
    producing store completes is squashed with its issued forward slice
    and replayed, and the MDPT learns the pair, so promoted loads wait
    for the youngest in-flight store of their predicted set."""

    FIELD = "memdep"

    def __init__(self, scheduler, core):
        super().__init__(scheduler, core)
        trace = self.trace = scheduler.trace
        self.mdpt = MDPT.of(scheduler.config)
        self.stats = MemDepStats()
        self.pc_col = trace.static.pc
        self.true_store = {}       # load pos -> last prior store to its word
        self.store_watch = {}      # store pos -> load positions to verify
        self.inflight_stores = {}  # store pc -> entered, uncompleted stores
        # What a squash cannot rebuild from the trace (``_producers``):
        self.sync_of = {}          # synchronized load -> store it waited on
        # pos -> the one producer merged into it (-1: none, or several,
        # kept in merged_multi), collapsing only
        self.merged_one = array("i", [-1]) * len(trace) \
            if scheduler.config.collapsing else None
        self.merged_multi = {}     # pos -> producers merged into it
        self.addr_dropped = set()  # loads whose address arcs were dropped
        self.writes = None         # register -> writing positions, at need
        self.taint = {}            # pos -> pending-violation loads upstream
        self.slice_of = {}         # violating load -> issued tainted posns
        self.pending_violation = set()

    def memory_arc(self, i, s, store, now):
        """Drop the perfect memory arc; a promoted MDPT entry instead
        synchronizes the load with the youngest in-flight store of its
        predicted set."""
        stats = self.stats
        stats.loads += 1
        if store >= 0:
            stats.dependent += 1
            self.true_store[i] = store
            self.store_watch.setdefault(store, []).append(i)
        predicted = self.mdpt.store_set(self.pc_col[s])
        if predicted:
            sync = self._youngest_inflight(predicted, now)
            if sync >= 0:
                stats.synchronized += 1
                if sync != store:
                    stats.false_syncs += 1
                if self.san is not None:
                    self.san.on_mem_sync(i, sync)
                self.sync_of[i] = sync
                return sync
        return -1

    def entered(self, i, s, cls, arcs, pending, merged, addr_dropped, now):
        """Record the producers merged into ``i`` and a dropped address;
        while anything is tainted, also taint ``i`` from its producers
        and put it on the consumer lists of the issued ones that may
        yet be squashed.  (A pending violation's load is tainted with
        itself, so an empty taint map means nothing is speculative.)"""
        if addr_dropped:
            self.addr_dropped.add(i)
        if merged is not None:
            folds = merged
            if addr_dropped:
                # A dropped address arc is no timing producer.
                folds = [arc for arc in merged if arc[1] != _KIND_ADDR]
            if len(folds) == 1:
                self.merged_one[i] = folds[0][0]
            elif folds:
                self.merged_multi[i] = tuple(p for p, _kind in folds)
        taint = self.taint
        if taint:
            consumers = self.core.consumers
            folded = ()
            if merged is not None:
                # A merged producer contributes its own timing producers
                # (and reads issued when the core just eliminated it).
                folded = set()
                for p, kind in merged:
                    folded.add(p)
                    if addr_dropped and kind == _KIND_ADDR:
                        continue
                    for q in self._producers(p):
                        if q in taint:
                            consumers.setdefault(q, []).append(i)
            issue_cycle = self.issue_cycle
            for p, kind, _c, _u in arcs:
                t = taint.get(p)
                if t:
                    taint.setdefault(i, set()).update(t)
                    # An issued producer can still be squashed while it
                    # is tainted; keep a consumer edge so this
                    # instruction re-blocks if that happens.
                    if issue_cycle[p] >= 0 and p not in folded \
                            and not (addr_dropped and kind == _KIND_ADDR):
                        consumers.setdefault(p, []).append(i)
            if merged is not None:
                # An eliminated producer never issues and its one
                # reader is i: once passed on above, its taint is dead.
                eliminated = self.core.eliminated
                for p, _kind in merged:
                    if p in eliminated:
                        taint.pop(p, None)
        if cls == ST:
            pc = self.pc_col[s]
            plist = self.inflight_stores.setdefault(pc, [])
            plist.append(i)
            if len(plist) > 32:
                issue_cycle = self.issue_cycle
                completion = self.completion
                self.inflight_stores[pc] = [
                    sp for sp in plist
                    if issue_cycle[sp] < 0 or completion[sp] > now]

    def issued(self, pos, now):
        """Prune and propagate taint, verify a load against its
        producing store, and re-verify the loads watching a store."""
        taint = self.taint
        if taint:
            t = taint.get(pos)
            if t:
                t &= self.pending_violation
                if t:
                    for lv in t:
                        self.slice_of[lv].add(pos)
                else:
                    del taint[pos]
        cls = self.cls_col[self.sidx[pos]]
        if cls == LD:
            ts = self.true_store.get(pos, -1)
            if ts >= 0:
                issue_cycle = self.issue_cycle
                completion = self.completion
                if issue_cycle[ts] < 0 or completion[ts] > now:
                    # Issued past the producing store: a certain
                    # violation once the store executes.
                    self._mark_violation(pos, ts, now)
                    if issue_cycle[ts] >= 0:
                        heappush(self.events, (completion[ts], pos))
        elif cls == ST:
            watchers = self.store_watch.get(pos)
            if watchers:
                issue_cycle = self.issue_cycle
                pending_violation = self.pending_violation
                comp = self.completion[pos]
                for lw in watchers:
                    lc = issue_cycle[lw]
                    if lc < 0 or lc >= comp:
                        continue
                    if lw not in pending_violation:
                        self._mark_violation(lw, pos, now)
                    heappush(self.events, (comp, lw))
        # The taint flows on to the consumers still waiting for pos.
        t = taint.get(pos) if taint else None
        if t:
            pend = self.core.pend
            for c in self.core.consumers.get(pos, ()):
                wait = pend.get(c)
                if wait is not None and pos in wait:
                    taint.setdefault(c, set()).update(t)
        return False

    def fire(self, when, load, now):
        """A matured violation event of ``load``."""
        if load not in self.pending_violation:
            return
        store = self.true_store[load]
        if self.issue_cycle[store] < 0:
            # The store itself was squashed; its re-issue re-arms the
            # event via the store watch list.
            return
        comp = self.completion[store]
        if comp > now:
            heappush(self.events, (comp, load))
            return
        self._violate(load, store, comp)

    def outstanding(self):
        return bool(self.pending_violation)

    def _youngest_inflight(self, store_pcs, now):
        """Youngest entered, not-yet-completed store among the given
        store PCs (MDST synchronization target), or -1."""
        issue_cycle = self.issue_cycle
        completion = self.completion
        inflight_stores = self.inflight_stores
        best = -1
        for spc in store_pcs:
            plist = inflight_stores.get(spc)
            if not plist:
                continue
            keep = [sp for sp in plist
                    if issue_cycle[sp] < 0 or completion[sp] > now]
            if keep:
                inflight_stores[spc] = keep
                if keep[-1] > best:
                    best = keep[-1]
            else:
                del inflight_stores[spc]
        return best

    def _producers(self, p):
        """The timing producers ``p`` registered at window entry, rebuilt:
        the last writers of its operands (registers, condition codes,
        store data; no address operand once its address was dropped)
        and the store it synchronized with, a merged producer replaced
        by its own timing producers.  A producer one arc merged and
        another still waited for counts both ways."""
        writes = self.writes
        if writes is None:
            writes = self.writes = _register_writes(self.trace)
        static = self.trace.static
        s = self.sidx[p]
        regs = []
        if p not in self.addr_dropped:
            src1 = static.src1[s]
            src2 = static.src2[s]
            regs.append(src1)
            if src2 != src1:
                regs.append(src2)
        if static.reads_cc[s]:
            regs.append(32)
        if self.cls_col[s] == ST:
            regs.append(static.datasrc[s])
        arcs = [_last_write(writes, reg, p) for reg in regs if reg >= 0]
        arcs.append(self.sync_of.get(p, -1))
        folds = ()
        if self.merged_one is not None:
            m = self.merged_one[p]
            folds = (m,) if m >= 0 else self.merged_multi.get(p, ())
        producers = set()
        for q in arcs:
            if q >= 0 and q not in folds:
                producers.add(q)
        for m in folds:
            producers.update(self._producers(m))
            if arcs.count(m) > folds.count(m):
                producers.add(m)
        return producers

    def _mark_violation(self, load, store, now):
        self.pending_violation.add(load)
        self.slice_of.setdefault(load, set()).add(load)
        self.taint.setdefault(load, set()).add(load)
        if self.san is not None:
            self.san.on_mem_speculate(load, store, now)

    def _violate(self, load, store, when):
        """Squash the violating load and its issued forward slice;
        replay everything after the flush penalty, resynchronized with
        the store that was violated."""
        core = self.core
        issue_cycle = self.issue_cycle
        completion = self.completion
        eliminated = core.eliminated
        san = self.san
        load_pc = self.pc_col[self.sidx[load]]
        store_pc = self.pc_col[self.sidx[store]]
        # Every training is recorded as a violation pair, so a run's
        # ``violation_pairs`` are exactly what its MDPT learned: the
        # experiment runner derives other table geometries' runs from
        # that (``MDPT.lossless``).  Keep the two calls paired.
        self.mdpt.train(load_pc, store_pc)
        members = sorted(
            p for p in self.slice_of.get(load, ())
            if issue_cycle[p] >= 0 and p not in eliminated)
        self.stats.record_violation(load_pc, store_pc, len(members),
                                    FLUSH_PENALTY)
        if san is not None:
            san.on_violation(load, store, when)
        member_set = set(members)
        pending_violation = self.pending_violation
        taint = self.taint
        pending_violation.difference_update(members)
        report = san.on_squash if san is not None else None
        for p in members:
            self.squash(p, report, p, when)
            self.slice_of.pop(p, None)
            t = taint.get(p)
            if t:
                t &= pending_violation
                if not t:
                    del taint[p]
        for p in members:
            producers = self._producers(p)
            if self.cls_col[self.sidx[p]] == LD:
                # Resynchronize the replayed load with its true store so
                # it cannot re-violate the same arc.
                producers.add(self.true_store.get(p, -1))
            waits = set()
            floor = 0
            for q in producers:
                if q < 0 or q in eliminated:
                    continue
                if issue_cycle[q] < 0:
                    waits.add(q)
                elif completion[q] > floor:
                    floor = completion[q]
            self.rearm(p, when, floor, waits)
            # Unissued consumers that folded p's old completion into
            # their bound must re-block on the replay.
            for c in core.consumers.get(p, ()):
                if c in member_set or c in eliminated \
                        or issue_cycle[c] >= 0:
                    continue
                core.pend.setdefault(c, set()).add(p)


class ValueSpeculation(Recovery):
    """Result-value speculation with recovery (configs I/J,
    docs/MODEL.md): consumers of a confidently predicted load drop the
    arc; those that issued on a wrong value withhold their completion
    and are squashed and replayed when the load verifies.

    The oracle (``value_spec=True``) is this path on a copy of the
    prediction pass narrowed to its confident and correct entries: no
    consumer ever rides a wrong value, so nothing is squashed."""

    FIELD = "value_spec"

    def __init__(self, scheduler, core):
        super().__init__(scheduler, core)
        self.attempted = scheduler.value_prediction.attempted
        self.correct = scheduler.value_prediction.correct
        if scheduler.config.value_spec is True:
            self.attempted = self.correct = {
                p: True for p, ok in self.attempted.items()
                if ok and self.correct.get(p, False)}
        self.stats = ValueSpecStats()
        self.wrong = {}        # consumer -> wrong-predicted load producers
        self.watch = {}        # load -> consumers riding on it

    def triage(self, i, arcs, pending, now):
        """Bypass, ride or keep each arc from a confidently predicted
        load; an arc from a producer riding a wrong value itself stays
        pending (and cannot collapse: the merged group would inherit its
        optimistic bounds without its squash obligation)."""
        sidx = self.sidx
        cls_col = self.cls_col
        attempted = self.attempted
        wrong = self.wrong
        kept = []
        for arc in arcs:
            p = arc[0]
            if cls_col[sidx[p]] == LD and attempted.get(p, False):
                stats = self.stats
                if self.correct.get(p, False):
                    # The consumer uses the predicted load value and does
                    # not wait for the load at all; the load still
                    # executes to verify the prediction.
                    stats.bypassed += 1
                    if self.san is not None:
                        self.san.on_value_bypass(i, p, arc[1])
                    continue
                if self.issue_cycle[p] >= 0 and self.completion[p] <= now \
                        and not wrong.get(p):
                    # The load already completed and verified: the
                    # consumer reads the architectural value like any
                    # resolved arc.
                    stats.late += 1
                else:
                    # Wrong confident prediction: drop the arc anyway and
                    # ride the bad value until the load verifies.
                    stats.speculated += 1
                    wrong.setdefault(i, set()).add(p)
                    self.watch.setdefault(p, []).append(i)
                    if self.issue_cycle[p] >= 0 and not wrong.get(p):
                        heappush(self.events, (self.completion[p], p))
                    if self.san is not None:
                        self.san.on_value_speculate(i, p, arc[1])
                    continue
            elif wrong.get(p):
                pending.append((p, arc[1]))
                continue
            kept.append(arc)
        return kept

    def issued(self, pos, now):
        """Count a replay, arm a watched load's verification, and
        withhold a speculative issue's completion until its replay."""
        if pos in self.replaying:
            self.stats.replays += 1
        if self.wrong.get(pos):
            return True
        if self.cls_col[self.sidx[pos]] == LD and self.watch.get(pos):
            heappush(self.events, (self.completion[pos], pos))
        return False

    def fire(self, when, p, now):
        """Load ``p``'s verification at its completion ``when``: squash
        the issued consumers that rode the wrong prediction and schedule
        their replay; release the unissued ones to wait for the
        architectural value (no penalty: nothing was undone)."""
        core = self.core
        eliminated = core.eliminated
        issue_cycle = self.issue_cycle
        wrong = self.wrong
        if p in eliminated or issue_cycle[p] < 0 \
                or self.completion[p] != when or wrong.get(p):
            return          # stale: squashed, re-timed, or the load
                            # itself is still speculative
        watchers = self.watch.pop(p, None)
        if not watchers:
            return
        replaying = self.replaying
        report = self.san.on_value_squash if self.san is not None \
            else None
        bound = core.bound
        for w in watchers:
            if w in eliminated:
                continue
            rides = wrong.get(w)
            if rides is None or p not in rides:
                continue
            rides.discard(p)
            if issue_cycle[w] >= 0 and w not in replaying:
                # Issued on the bad value: squash exactly once.
                self.squash(w, report, w, p, now)
                self.stats.squashes += 1
            if w not in replaying:
                # Never issued: the dropped arc re-materializes -- fold
                # the load's completion into the bound and let the
                # consumer wait like any resolved arc.
                if when > bound[w]:
                    bound[w] = when
            if rides:
                continue            # still riding another wrong value
            del wrong[w]
            if w in replaying:
                self.rearm(w, when)
            elif w not in core.pend:
                heappush(core.future_heap, (bound[w], w))

    def outstanding(self):
        return bool(self.wrong)


class Decoupling:
    """Decoupled access/execute (config H, docs/MODEL.md): a clean
    loop's access slice may enter a second *access window* when the main
    one is full, and its boundary loads pass their values through
    bounded per-loop FIFO queues.  Dependence timing is unchanged; only
    window occupancy is relaxed."""

    FIELD = "dae"

    def __init__(self, scheduler, core):
        plan = self.plan = scheduler.dae_plan
        self.queues = {h: deque() for h in plan.clean}
        self.queue_of = {}      # live queue entry (load pos) -> header
        self.delivered = set()  # entries consumed, awaiting FIFO drain
        self.popper = {}        # entry pos -> execute consumer that pops
        self.pop_on_issue = {}  # consumer pos -> [entry positions]
        self.bypassed = self.slotless = set()   # in the access window
        self.run_loop = -1      # header of the current dynamic loop run
        self.run_start = -1     # first position of the current run
        self.stats = DAEStats()
        self.window_limit = scheduler.config.window_size
        self.sidx = scheduler.trace.sidx
        self.dest_col = scheduler.trace.static.dest
        self.issue_cycle = core.issue_cycle
        self.completion = core.completion
        self.reg_writer = core.reg_writer
        self.san = scheduler.sanitizer

    def admit(self, i, window_full, now):
        """Access-slice members bypass into the access window, boundary
        loads permitting queue headroom."""
        s = self.sidx[i]
        plan = self.plan
        if plan.access_of.get(s, -1) < 0:
            return False
        header = plan.boundary_of.get(s, -1)
        if header >= 0 and len(self.queues[header]) >= plan.capacity[header]:
            stall = header      # stays coupled
        elif len(self.bypassed) < self.window_limit:
            if self.san is not None:
                self.san.on_dae_bypass(i)
            self.bypassed.add(i)
            self.stats.bypassed += 1
            return True
        else:
            stall = -1          # degrades to the main window
        if not window_full:
            if stall >= 0:
                self.stats.loop(stall).full_stalls += 1
            else:
                self.stats.degraded += 1
        return False

    def entered(self, i, s, cls, arcs, pending, merged, addr_dropped, now):
        """Run tracking and chase accounting, queue pops to arm, dead
        values to reclaim and a boundary load's enqueue."""
        stats = self.stats
        plan = self.plan
        # A dynamic *run* is a maximal stretch of one loop's body
        # members; an arc from a load of the same loop, produced within
        # the run, into an access-slice member is a chase dependence --
        # statically-clean loops must never record one.
        header = plan.body_of.get(s, -1)
        if header != self.run_loop:
            self.run_loop = header
            self.run_start = i
            if header >= 0:
                stats.loop(header).runs += 1
        if header >= 0 and plan.chase_of.get(s, -1) == header:
            watched = plan.body_loads[header]
            loop = stats.loop(header)
            for p, _kind, _coll, _uses in arcs:
                if p >= self.run_start and self.sidx[p] in watched:
                    loop.chase_deps += 1
                    if self.issue_cycle[p] < 0 or self.completion[p] > now:
                        loop.chase_stalls += 1
        queue_of = self.queue_of
        if queue_of:
            delivered = self.delivered
            popper = self.popper
            for arc in arcs:
                p = arc[0]
                if p in queue_of and p not in delivered \
                        and p not in popper:
                    popper[p] = i
                    self.pop_on_issue.setdefault(i, []).append(p)
            dest = self.dest_col[s]
            old = self.reg_writer[dest] if dest >= 0 else -1
            # Overwritten before any execute-side consumer read it: the
            # queued value is dead -- reclaim its slot.
            if old >= 0 and old in queue_of \
                    and old not in delivered and old not in popper:
                self._deliver(old, -1, now)
        header = plan.boundary_of.get(s, -1)
        if header >= 0 and len(self.queues[header]) < plan.capacity[header]:
            self._enqueue(header, i, now)

    def issued(self, pos, now):
        for p in self.pop_on_issue.pop(pos, ()):
            self._deliver(p, pos, now)
        return False

    def _enqueue(self, header, i, now):
        self.queues[header].append(i)
        self.queue_of[i] = header
        stats = self.stats.loop(header)
        stats.enqueued += 1
        depth = len(self.queues[header])
        if depth > stats.peak:
            stats.peak = depth
        if self.san is not None:
            self.san.on_dae_enqueue(header, i, now)

    def _deliver(self, p, consumer, now):
        """Mark queue entry ``p`` consumed (``consumer`` issued) or dead
        (``consumer == -1``) and drain delivered entries from the queue
        head, preserving FIFO order."""
        header = self.queue_of.get(p)
        if header is None or p in self.delivered:
            return
        self.delivered.add(p)
        if self.san is not None:
            self.san.on_dae_deliver(p, consumer, now)
        queue = self.queues[header]
        stats = self.stats.loop(header)
        while queue and queue[0] in self.delivered:
            head = queue.popleft()
            self.delivered.discard(head)
            del self.queue_of[head]
            stats.popped += 1
            if self.san is not None:
                self.san.on_dae_pop(header, head, now)


class ExitBranchResolution:
    """Load-driven exit-branch prediction (config J, docs/MODEL.md): a
    mispredicted plan exit branch whose governing load's latest instance
    was confidently and correctly value-predicted resolves at the load's
    address generation, so its fetch fence is waived (LDBP)."""

    FIELD = "branch_spec"

    def __init__(self, scheduler):
        plan = scheduler.branch_plan
        trace = scheduler.trace
        cls_col = trace.static.cls
        mispredicted = scheduler.branch_result.mispredicted \
            if scheduler.branch_result else {}
        loads = set(plan.resolves.values())
        self.stats = BranchSpecStats()
        # Fetch is in program order, so the governing-load instance a
        # mispredicted plan branch resolves on is its latest prior one.
        self.governor = {}     # branch pos -> load pos (-1: none yet)
        last = {}
        for i, s in enumerate(trace.sidx):
            cls = cls_col[s]
            if cls == LD:
                if s in loads:
                    last[s] = i
            elif cls == BRC and s in plan.resolves:
                self.stats.exit_branches += 1
                if i in mispredicted:
                    self.governor[i] = last.get(plan.resolves[s], -1)
        self.attempted = scheduler.value_prediction.attempted
        self.correct = scheduler.value_prediction.correct
        self.san = scheduler.sanitizer

    def waives(self, i, now):
        p = self.governor.get(i)
        if p is None:
            return False
        if p >= 0 and self.attempted.get(p, False) \
                and self.correct.get(p, False):
            # The governing load's predicted value determines the branch
            # direction at address-generation time: fetch follows the
            # resolved path, no fence.
            self.stats.early_resolved += 1
            if self.san is not None:
                self.san.on_branch_resolve(i, p, now)
            return True
        self.stats.missed += 1
        return False
