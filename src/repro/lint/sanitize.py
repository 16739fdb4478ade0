"""Runtime scheduler sanitizer (``--sanitize``).

:class:`SchedulerSanitizer` rides along inside
:class:`~repro.core.scheduler.WindowScheduler` and re-checks, from its
own independent bookkeeping, the model invariants the paper's schedule
semantics promise (the always-on version of ``test_scheduler_verify``):

- at most ``issue_width`` instructions issue per cycle;
- window occupancy never exceeds ``window_size``, and fetch never
  proceeds past an unissued mispredicted branch;
- no instruction issues before the completion times of its producers —
  where "producers" are re-derived here from the trace's architectural
  state in program order, *minus* the relaxations the scheduler reports
  (collapse merges, correct load-address speculation, value-speculation
  bypasses, node elimination);
- every reported collapse merge satisfies the
  :class:`~repro.collapse.rules.CollapseRules` device limits
  (``max_group`` members, ``max_leaves`` operands, the one-extra-member
  zero-detection exception);
- instructions following a mispredicted branch issue strictly after it;
- every position enters and issues exactly once and the window drains;
- under realistic disambiguation (``mem_spec == "mdpt"``) every reported
  speculation, violation and squash is re-validated against the
  sanitizer's own last-store map, and the *memory-order recovery
  invariant* holds at the end of the run: no load's final issue cycle
  precedes the completion of the last program-order store to its word
  (i.e. no committed load kept a stale value);
- under squash/replay value speculation (``value_spec == "replay"``,
  configuration I): every reported squash names a consumer that had
  issued while riding a wrong-predicted load value, each squashed
  consumer replays exactly once (the run cannot end with a squashed,
  un-replayed position), and the *value recovery invariant* holds at
  the end of the run: no consumer that speculated on a wrong value
  kept a final issue cycle earlier than the watched load's completion
  (i.e. no stale speculative value was committed);
- under load-driven exit-branch prediction (``config.branch_spec``,
  configuration J): every waived fetch fence names a conditional
  branch the static :class:`~repro.lint.branchflow.BranchPlan` maps to
  a governing load, the resolving position is an earlier, entered
  dynamic instance of exactly that load, and each branch position
  resolves at most once (exactly-once recovery: a waived fence can
  never be waived again, nor re-block fetch);
- under decoupled access/execute (``config.dae``, configuration H):
  only statically access-slice members bypass into the access window,
  access-window occupancy never exceeds ``window_size``, every queue
  entry is a boundary load of its loop, per-loop queue occupancy never
  exceeds the plan's static depth, queue pops preserve FIFO order, and
  no execute-side consumer pops a queue entry before the entry's load
  completed.

The sanitizer maintains its own register/memory last-writer map and per
-position requirement sets, so a scheduler bug in arc construction or
readiness tracking surfaces as a violation rather than silently skewing
IPC.  Violations accumulate and :meth:`finish` raises
:class:`SanitizeError`; a completed sanitized run therefore implies
zero violations.
"""

from ..errors import ReproError
from ..trace.records import BRC, CTI, LD, ST

_KIND_ADDR = 0
_KIND_OTHER = 1


class SanitizeError(ReproError):
    """Raised when a sanitized run violates a model invariant."""


class SchedulerSanitizer:
    """Invariant checker attached to one scheduler run."""

    #: cap on recorded violation messages (the count keeps rising)
    MAX_RECORDED = 20

    def __init__(self, trace, config, mispredicted=None, dae_plan=None,
                 branch_plan=None):
        self.trace = trace
        self.config = config
        self.mispredicted = mispredicted if mispredicted is not None \
            else {}
        self.violations = []
        self.violation_count = 0
        #: what the checks covered
        self.checked_instructions = 0
        self.checked_merges = 0
        self.relaxed_arcs = 0
        self.dae_enqueues = 0
        self.dae_pops = 0
        self.branch_resolves = 0

        static = trace.static
        self._sidx = trace.sidx
        self._eff_addr = trace.eff_addr
        self._cls = static.cls
        self._lat = static.lat
        self._dest = static.dest
        self._src1 = static.src1
        self._src2 = static.src2
        self._datasrc = static.datasrc
        self._writes_cc = static.writes_cc
        self._reads_cc = static.reads_cc

        n = len(trace)
        self._n = n
        self._reg_writer = [-1] * 33
        self._mem_writer = {}
        self._require = {}         # pos -> set of (producer, kind)
        self._consumers = {}       # producer -> set of consumers
        self._issue_cycle = [None] * n
        self._completion = [None] * n
        self._entered = [False] * n
        self._eliminated = set()
        self._mem_realistic = config.mem_spec == "mdpt"
        self._mem_dep = {}         # load pos -> last prior same-word store
        self._squashed = set()     # squashed, awaiting replay
        self._value_watch = {}     # consumer -> wrong-value loads ridden
        self._occupancy = 0
        self._fence_pos = None     # latest mispredicted branch entered
        self._fence_issue = None
        self._cycle = -1
        self._issued_this_cycle = 0
        #: configuration-J replica state: the static plan plus the set
        #: of branch positions whose fence was already waived
        self._branch_plan = branch_plan \
            if getattr(config, "branch_spec", False) else None
        self._branch_resolved = set()
        #: DAE (configuration H) replica state; the hooks also work
        #: plan-less (bookkeeping only, no membership checks)
        self._dae_plan = dae_plan if config.dae else None
        self._dae_bypassed = set()
        self._access_occupancy = 0
        self._dae_queues = {}      # loop header -> FIFO replica (list)

    # ------------------------------------------------------------------

    def _violate(self, message):
        self.violation_count += 1
        if len(self.violations) < self.MAX_RECORDED:
            self.violations.append(message)

    def _arcs(self, i):
        """Model-defined producer arcs of position ``i``, re-derived
        from the sanitizer's own architectural replay."""
        s = self._sidx[i]
        cls = self._cls[s]
        expr_kind = _KIND_ADDR if cls == LD or cls == ST else _KIND_OTHER
        arcs = set()
        reg_writer = self._reg_writer
        src1 = self._src1[s]
        src2 = self._src2[s]
        if src1 >= 0 and reg_writer[src1] >= 0:
            arcs.add((reg_writer[src1], expr_kind))
        if src2 >= 0 and src2 != src1 and reg_writer[src2] >= 0:
            arcs.add((reg_writer[src2], expr_kind))
        if cls == ST:
            data_reg = self._datasrc[s]
            if data_reg >= 0 and reg_writer[data_reg] >= 0:
                arcs.add((reg_writer[data_reg], _KIND_OTHER))
        if self._reads_cc[s] and reg_writer[32] >= 0:
            arcs.add((reg_writer[32], _KIND_OTHER))
        if cls == LD:
            p = self._mem_writer.get(self._eff_addr[i] >> 2, -1)
            if p >= 0:
                arcs.add((p, _KIND_OTHER))
        return arcs

    # -- hooks called by the scheduler ---------------------------------

    def on_enter(self, i, cycle):
        """Position ``i`` enters the window at ``cycle``."""
        if self._entered[i]:
            self._violate("position %d entered the window twice" % (i,))
            return
        self._entered[i] = True
        self.checked_instructions += 1
        if self._fence_pos is not None and self._fence_issue is None \
                and i > self._fence_pos:
            self._violate(
                "position %d fetched past unissued mispredicted branch "
                "at position %d" % (i, self._fence_pos))
        if i in self._dae_bypassed:
            self._access_occupancy += 1
            if self._access_occupancy > self.config.window_size:
                self._violate(
                    "access window occupancy %d exceeds size %d at "
                    "position %d" % (self._access_occupancy,
                                     self.config.window_size, i))
        else:
            self._occupancy += 1
            if self._occupancy > self.config.window_size:
                self._violate(
                    "window occupancy %d exceeds size %d at position %d"
                    % (self._occupancy, self.config.window_size, i))
        require = self._arcs(i)
        if self._cls[self._sidx[i]] == LD:
            p = self._mem_writer.get(self._eff_addr[i] >> 2, -1)
            if p >= 0:
                self._mem_dep[i] = p
                if self._mem_realistic:
                    # The scheduler speculates past the store; the arc is
                    # checked by the end-of-run memory-order invariant
                    # instead of at issue.  (For a load, (p, OTHER) can
                    # only be the memory arc.)
                    require.discard((p, _KIND_OTHER))
        self._require[i] = require
        for p, _ in require:
            self._consumers.setdefault(p, set()).add(i)
        # Architectural update, program order (mirrors the emulator).
        s = self._sidx[i]
        dest = self._dest[s]
        if dest >= 0:
            self._reg_writer[dest] = i
        if self._writes_cc[s]:
            self._reg_writer[32] = i
        cls = self._cls[s]
        if cls == ST:
            self._mem_writer[self._eff_addr[i] >> 2] = i
        if (cls == BRC or cls == CTI) and i in self.mispredicted:
            self._fence_pos = i
            self._fence_issue = None

    def on_collapse(self, i, p, kind, group):
        """The scheduler merged producer ``p`` into consumer ``i``'s
        dependence expression; ``i`` inherits ``p``'s own producers."""
        self.checked_merges += 1
        rules = self.config.collapse_rules
        arc = (p, kind)
        require = self._require.get(i)
        if require is None or arc not in require:
            self._violate(
                "collapse of %d into %d relaxes a dependence arc the "
                "model does not define" % (p, i))
        else:
            require.discard(arc)
            self._consumers.get(p, set()).discard(i)
            for q, _ in self._require.get(p, ()):
                require.add((q, kind))
                self._consumers.setdefault(q, set()).add(i)
            self.relaxed_arcs += 1
        if rules is None:
            self._violate("collapse event with collapsing disabled")
            return
        size = group.size
        limit = rules.max_group
        if rules.zero_detection:
            if size > limit + 1:
                self._violate(
                    "merged group at %d has %d members (max %d, +1 with "
                    "zero detection)" % (i, size, limit))
            elif size > limit and not (group.raw_leaves > group.leaves
                                       and group.leaves
                                       <= rules.max_leaves):
                self._violate(
                    "oversized group at %d not justified by zero "
                    "detection" % (i,))
            if group.leaves > rules.max_leaves:
                self._violate(
                    "merged group at %d has %d operands (max_leaves %d)"
                    % (i, group.leaves, rules.max_leaves))
        else:
            if size > limit:
                self._violate(
                    "merged group at %d has %d members (max %d)"
                    % (i, size, limit))
            if group.raw_leaves > rules.max_leaves:
                self._violate(
                    "merged group at %d has %d raw operands "
                    "(max_leaves %d, no zero detection)"
                    % (i, group.raw_leaves, rules.max_leaves))

    def on_load_spec(self, i):
        """Load ``i`` uses a (correct or ideal) predicted address: its
        address-generation dependences are dropped."""
        require = self._require.get(i)
        if require is None:
            self._violate("load speculation on unentered position %d"
                          % (i,))
            return
        dropped = {arc for arc in require if arc[1] == _KIND_ADDR}
        for arc in dropped:
            require.discard(arc)
            self._consumers.get(arc[0], set()).discard(i)
        self.relaxed_arcs += len(dropped)

    def on_value_bypass(self, i, p, kind):
        """Consumer ``i`` uses the correctly predicted value of load
        ``p`` and does not wait for it."""
        require = self._require.get(i)
        if require is not None:
            require.discard((p, kind))
            self._consumers.get(p, set()).discard(i)
        self.relaxed_arcs += 1

    def on_value_speculate(self, i, p, kind):
        """Consumer ``i`` drops its arc to load ``p`` on a *wrong*
        confident prediction: it may issue on the bad value and must be
        squashed and replayed when ``p``'s verification exposes it."""
        if self._cls[self._sidx[p]] != LD:
            self._violate(
                "value speculation of %d reported against position %d, "
                "which is not a load" % (i, p))
        require = self._require.get(i)
        if require is None:
            self._violate("value speculation on unentered position %d"
                          % (i,))
            return
        require.discard((p, kind))
        self._consumers.get(p, set()).discard(i)
        self.relaxed_arcs += 1
        self._value_watch.setdefault(i, set()).add(p)

    def on_value_squash(self, w, p, cycle):
        """Consumer ``w`` is squashed for replay: it issued riding the
        wrong-predicted value of load ``p``, whose verification fired."""
        if p not in self._value_watch.get(w, ()):
            self._violate(
                "value squash of %d against load %d it never "
                "speculated on" % (w, p))
        self._unissue(w, "value-squashed")

    def on_branch_resolve(self, i, p, cycle):
        """Mispredicted exit branch ``i``'s fetch fence is waived: its
        direction resolved at governing-load instance ``p``'s
        address-generation time (configuration J)."""
        self.branch_resolves += 1
        plan = self._branch_plan
        s = self._sidx[i]
        if plan is None or s not in plan.resolves:
            self._violate(
                "branch resolve at position %d, which the static plan "
                "does not map to a governing load" % (i,))
        elif self._sidx[p] != plan.resolves[s]:
            self._violate(
                "branch %d resolved by position %d (static #%d), but "
                "the plan names load #%d as its governor"
                % (i, p, self._sidx[p], plan.resolves[s]))
        if p >= i or not self._entered[p]:
            self._violate(
                "branch %d resolved by position %d that is not an "
                "earlier entered instruction" % (i, p))
        if i in self._branch_resolved:
            self._violate("branch %d resolved twice" % (i,))
            return
        self._branch_resolved.add(i)
        if i not in self.mispredicted:
            self._violate(
                "branch %d resolved a fence it never raised (it was "
                "predicted correctly)" % (i,))
        if self._fence_pos == i:
            # The fence this branch raised on entry is waived; fetch
            # may proceed as if the branch were predicted correctly.
            self._fence_pos = None
            self._fence_issue = None

    def on_eliminate(self, p, cycle):
        """Producer ``p`` is removed without executing (its sole reader
        absorbed its expression)."""
        if self._issue_cycle[p] is not None:
            self._violate("position %d eliminated after issuing" % (p,))
        waiting = {c for c in self._consumers.get(p, ())
                   if self._issue_cycle[c] is None
                   and any(arc[0] == p
                           for arc in self._require.get(c, ()))}
        if waiting:
            self._violate(
                "position %d eliminated while positions %s still "
                "depend on it"
                % (p, sorted(waiting)[:4]))
        self._eliminated.add(p)
        self._issue_cycle[p] = cycle
        self._completion[p] = cycle
        if p in self._dae_bypassed:
            self._dae_bypassed.discard(p)
            self._access_occupancy -= 1
        else:
            self._occupancy -= 1
        # An eliminated position can no longer be merged into, so its
        # requirement set is dead (mirrors on_issue).
        self._require.pop(p, None)
        self._consumers.pop(p, None)

    def on_mem_sync(self, i, store):
        """Load ``i`` synchronizes (MDST) with an in-flight ``store``."""
        if store >= i or not self._entered[store]:
            self._violate(
                "load %d synchronized with store %d that is not an "
                "earlier entered instruction" % (i, store))

    def on_mem_speculate(self, load, store, cycle):
        """Load issued before ``store`` (its producer) completed."""
        if self._mem_dep.get(load, -1) != store:
            self._violate(
                "speculation of load %d reported against store %d, but "
                "the model defines store %d as its producer"
                % (load, store, self._mem_dep.get(load, -1)))

    def on_violation(self, load, store, cycle):
        """A memory-order violation of ``load`` against ``store`` fired."""
        if self._mem_dep.get(load, -1) != store:
            self._violate(
                "violation of load %d reported against store %d, but "
                "the model defines store %d as its producer"
                % (load, store, self._mem_dep.get(load, -1)))
            return
        li = self._issue_cycle[load]
        sc = self._completion[store]
        if li is None or sc is None or li >= sc:
            self._violate(
                "reported violation of load %d (issued %s) against "
                "store %d (completes %s) is not a memory-order "
                "violation" % (load, li, store, sc))

    def on_squash(self, p, cycle):
        """Position ``p`` is squashed for replay after a violation."""
        self._unissue(p, "squashed")

    def _unissue(self, p, what):
        """Either squash: ``p``'s issue is undone until its replay."""
        if self._issue_cycle[p] is None:
            self._violate("position %d %s without having issued"
                          % (p, what))
            return
        self._issue_cycle[p] = None
        self._completion[p] = None
        self._squashed.add(p)

    # -- decoupled access/execute hooks (configuration H) --------------

    def on_dae_bypass(self, i):
        """Position ``i`` is about to enter the *access* window instead
        of the (full) main window."""
        if self._entered[i]:
            self._violate("position %d bypassed after already entering "
                          "the window" % (i,))
        plan = self._dae_plan
        if plan is not None and self._sidx[i] not in plan.access_of:
            self._violate(
                "position %d bypassed into the access window but is "
                "not an access-slice member of any clean loop" % (i,))
        self._dae_bypassed.add(i)

    def on_dae_enqueue(self, header, i, cycle):
        """Boundary load ``i`` pushes its value into loop ``header``'s
        FIFO queue."""
        self.dae_enqueues += 1
        plan = self._dae_plan
        if plan is not None \
                and plan.boundary_of.get(self._sidx[i]) != header:
            self._violate(
                "position %d enqueued on loop #%d's queue but is not "
                "one of its boundary loads" % (i, header))
        queue = self._dae_queues.setdefault(header, [])
        queue.append(i)
        if plan is not None:
            depth = plan.capacity.get(header)
            if depth is not None and len(queue) > depth:
                self._violate(
                    "loop #%d queue holds %d entries, static depth "
                    "bound is %d" % (header, len(queue), depth))

    def on_dae_deliver(self, entry, consumer, cycle):
        """Queue entry ``entry`` is consumed by execute-side
        ``consumer`` issuing at ``cycle`` (or reclaimed dead when
        ``consumer`` is -1)."""
        if consumer < 0:
            return                  # architectural reclaim: no timing
        comp = self._completion[entry]
        if comp is None:
            self._violate(
                "queue entry %d delivered to consumer %d before the "
                "load issued at all" % (entry, consumer))
        elif comp > cycle:
            self._violate(
                "execute consumer %d issued at cycle %d before queue "
                "entry %d completes at %d"
                % (consumer, cycle, entry, comp))

    def on_dae_pop(self, header, entry, cycle):
        """Entry ``entry`` leaves the head of loop ``header``'s queue."""
        self.dae_pops += 1
        queue = self._dae_queues.get(header)
        if not queue or queue[0] != entry:
            self._violate(
                "pop of entry %d violates FIFO order on loop #%d's "
                "queue (head: %s)"
                % (entry, header, queue[0] if queue else "empty"))
            if queue and entry in queue:
                queue.remove(entry)
        else:
            queue.pop(0)

    def on_issue(self, i, cycle):
        """Position ``i`` issues at ``cycle``."""
        reissue = i in self._squashed
        if reissue:
            self._squashed.discard(i)
        if not self._entered[i]:
            self._violate("position %d issued without entering the "
                          "window" % (i,))
        if self._issue_cycle[i] is not None:
            self._violate("position %d issued twice" % (i,))
        if cycle < self._cycle:
            self._violate("issue cycle moved backwards (%d after %d)"
                          % (cycle, self._cycle))
        if cycle != self._cycle:
            self._cycle = cycle
            self._issued_this_cycle = 0
        self._issued_this_cycle += 1
        if self._issued_this_cycle > self.config.issue_width:
            self._violate(
                "cycle %d issued %d instructions (width %d)"
                % (cycle, self._issued_this_cycle,
                   self.config.issue_width))
        for p, _ in self._require.get(i, ()):
            comp = self._completion[p]
            if self._issue_cycle[p] is None or comp is None:
                self._violate(
                    "position %d issued before its producer %d"
                    % (i, p))
            elif comp > cycle:
                self._violate(
                    "position %d issued at cycle %d before producer "
                    "%d completes at %d" % (i, cycle, p, comp))
        if self._fence_pos is not None and i > self._fence_pos:
            if self._fence_issue is None:
                self._violate(
                    "position %d issued while mispredicted branch %d "
                    "is unissued" % (i, self._fence_pos))
            elif cycle <= self._fence_issue:
                self._violate(
                    "position %d issued at cycle %d, not after "
                    "mispredicted branch %d (issued %d)"
                    % (i, cycle, self._fence_pos, self._fence_issue))
        if i == self._fence_pos and self._fence_issue is None:
            self._fence_issue = cycle
        self._issue_cycle[i] = cycle
        self._completion[i] = cycle + self._lat[self._sidx[i]]
        if not reissue:
            # A replay re-uses the window slot freed at first issue.
            if i in self._dae_bypassed:
                self._dae_bypassed.discard(i)
                self._access_occupancy -= 1
            else:
                self._occupancy -= 1
        # Issued positions can no longer be merged into, so the
        # requirement set has served its purpose; keep memory bounded
        # by the window size rather than the trace length.
        self._require.pop(i, None)

    # ------------------------------------------------------------------

    def finish(self):
        """End-of-run checks; raises on any accumulated violation."""
        for i in range(self._n):
            if not self._entered[i]:
                self._violate("position %d never entered the window"
                              % (i,))
            elif self._issue_cycle[i] is None:
                self._violate("position %d never issued" % (i,))
        if self._squashed:
            self._violate(
                "positions %s squashed but never replayed"
                % (sorted(self._squashed)[:4],))
        # Memory-order recovery invariant: no committed load reads a
        # value older than the last program-order store to its address.
        for i, p in sorted(self._mem_dep.items()):
            if i in self._eliminated or p in self._eliminated:
                continue
            li = self._issue_cycle[i]
            pc = self._completion[p]
            if li is None or pc is None:
                continue
            if li < pc:
                self._violate(
                    "load %d finally issued at cycle %d before the last "
                    "prior store to its word (position %d) completed at "
                    "%d: stale value committed" % (i, li, p, pc))
        # Value recovery invariant: a consumer that rode a wrong
        # prediction must have finally issued no earlier than the
        # watched load's completion — the replay (or the released wait)
        # re-imposed the architectural value.
        for w, loads in sorted(self._value_watch.items()):
            if w in self._eliminated:
                continue
            li = self._issue_cycle[w]
            for p in sorted(loads):
                if p in self._eliminated:
                    continue
                pc = self._completion[p]
                if li is None or pc is None:
                    continue
                if li < pc:
                    self._violate(
                        "consumer %d finally issued at cycle %d before "
                        "the wrong-predicted load %d it rode completed "
                        "at %d: stale speculative value committed"
                        % (w, li, p, pc))
        if self._occupancy != 0 and not self.violations:
            self._violate("window occupancy %d at end of run"
                          % (self._occupancy,))
        if self._access_occupancy != 0 and not self.violations:
            self._violate("access window occupancy %d at end of run"
                          % (self._access_occupancy,))
        if self.violation_count:
            shown = "\n  ".join(self.violations)
            more = self.violation_count - len(self.violations)
            if more > 0:
                shown += "\n  ... and %d more" % (more,)
            raise SanitizeError(
                "sanitizer found %d invariant violation%s in %s:\n  %s"
                % (self.violation_count,
                   "" if self.violation_count == 1 else "s",
                   self.trace.name or "<trace>", shown))


__all__ = ["SchedulerSanitizer", "SanitizeError"]
