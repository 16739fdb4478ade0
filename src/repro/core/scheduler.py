"""Windowed out-of-order issue scheduler (Wall-style limit model).

Semantics (paper Section 4):

- Instructions are fetched in program order into a window of fixed size;
  the window is kept full — an instruction enters as soon as a slot frees.
- Each cycle, up to ``issue_width`` ready instructions issue, oldest
  first.  An instruction is ready when every true dependence (register,
  condition-code, memory through same-address stores) has its value
  available: producers complete ``latency`` cycles after issue.
- Renaming is ideal (no false dependences) and memory disambiguation
  perfect (a load depends only on the most recent prior store to the same
  word).
- Conditional branches use precomputed prediction outcomes; after a
  *mispredicted* branch enters the window, fetch stalls until the branch
  issues, which enforces "instructions following a branch can not issue
  before or during the cycle the branch instruction issues".
- Load-speculation: a load whose address dependences are all resolved by
  the time it enters the window is *ready*.  A not-ready load may use a
  predicted address (per the precomputed two-delta outcomes): a correct
  prediction removes its address-generation dependences; a wrong or
  unavailable prediction leaves timing unchanged but is tallied.
- Collapsing: when an instruction enters the window, each still-unissued
  producer of a collapsible expression operand may be merged into the
  consumer's dependence expression (subject to
  :class:`~repro.collapse.rules.CollapseRules`); the consumer then inherits
  the producer's own unresolved sources instead of waiting for the
  producer.
- Node elimination (Figure 1.f extension): a collapsed producer whose
  sole reader is the consumer never executes.

:meth:`WindowScheduler.run` is that machine.  The mechanisms of configs
F-J and the oracle value mode are components (``repro.core.components``)
built once from the configuration and called only where they have work;
A-E build none.  MDPT violations and value mispredictions share one
squash/replay engine.

The engine is event-driven: idle stretches are skipped by jumping to the
next dependence-resolution event, which keeps the 2048-wide/4096-window
configuration tractable in pure Python.
"""

import heapq
from types import SimpleNamespace

from ..collapse.classify import ShapeTable
from ..collapse.stats import CollapseStats
from ..trace.records import BRC, CTI, LD, ST
from .components import _KIND_ADDR, _KIND_OTHER, build_components, hook
from .config import LOAD_SPEC_IDEAL, LOAD_SPEC_REAL
from .elimination import compute_sole_readers
from .results import (
    LOAD_NOT_PREDICTED,
    LOAD_PRED_CORRECT,
    LOAD_PRED_INCORRECT,
    LOAD_READY,
    LoadStats,
    SimResult,
)


class WindowScheduler:
    """Schedules one trace on one machine configuration.

    Parameters
    ----------
    trace: DynTrace
    config: MachineConfig
    branch_result: BranchRunResult
        Precomputed conditional-branch outcomes (program order).
    load_prediction: LoadPredictionResult or None
        Precomputed two-delta outcomes; required when
        ``config.load_spec == "real"``.
    sanitizer: SchedulerSanitizer or None
        Optional invariant checker (see ``repro.lint.sanitize``); it is
        notified of window entry, every dependence relaxation, and every
        issue, and re-checks the schedule from independent bookkeeping.
    dae_plan: DAEPlan or None
        Static access/execute slices (``repro.lint.dae``) for a
        ``config.dae`` machine; without a plan a DAE configuration
        degenerates to its base machine (nothing decouples) and the
        result carries no DAE statistics.
    branch_plan: BranchPlan or None
        Static load-driven exit-branch contract
        (``repro.lint.branchflow``) for a ``config.branch_spec``
        machine; without a plan a configuration-J machine degenerates
        to config I (no fences are waived) and the result carries no
        branch-speculation statistics.
    """

    def __init__(self, trace, config, branch_result, load_prediction=None,
                 value_prediction=None, sanitizer=None, dae_plan=None,
                 branch_plan=None):
        if config.load_spec == LOAD_SPEC_REAL and load_prediction is None:
            raise ValueError("real load-speculation needs predictor output")
        if config.value_spec and value_prediction is None:
            raise ValueError("value speculation needs a value-prediction "
                             "pass (repro.vpred)")
        if dae_plan is not None and config.dae:
            dae_plan.validate(trace.static)
        if branch_plan is not None and config.branch_spec:
            branch_plan.validate(trace.static)
        self.trace = trace
        self.config = config
        self.branch_result = branch_result
        self.load_prediction = load_prediction
        self.value_prediction = value_prediction
        self.sanitizer = sanitizer
        self.dae_plan = dae_plan if config.dae else None
        self.branch_plan = branch_plan if config.branch_spec else None

    # ------------------------------------------------------------------

    def run(self):
        trace = self.trace
        config = self.config
        static = trace.static
        n = len(trace)

        # Static columns (localised for speed).
        sidx = trace.sidx
        eff_addr = trace.eff_addr
        cls_col = static.cls
        lat_col = static.lat
        dest_col = static.dest
        src1_col = static.src1
        src2_col = static.src2
        datasrc_col = static.datasrc
        writes_cc_col = static.writes_cc
        reads_cc_col = static.reads_cc
        producer_ok_col = static.producer_ok
        consumer_ok_col = static.consumer_ok

        mispredicted = self.branch_result.mispredicted if self.branch_result \
            else {}
        ideal_addresses = config.load_spec == LOAD_SPEC_IDEAL
        if config.load_spec == LOAD_SPEC_REAL:
            lp_attempted = self.load_prediction.attempted
            lp_correct = self.load_prediction.correct
        else:
            lp_attempted = lp_correct = None

        rules = config.collapse_rules
        collapsing = rules is not None
        # Rule checks run only when the rules impose them: the paper's
        # rules merge at any distance and across basic blocks.
        consecutive_only = collapsing and not rules.allow_nonconsecutive
        if collapsing:
            shapes = ShapeTable(rules, static)
            single, merge_groups = shapes.single, shapes.merge
        track_blocks = collapsing and not rules.allow_cross_block
        collapse_stats = CollapseStats()
        load_stats = LoadStats()
        sole_reader = compute_sole_readers(trace) \
            if collapsing and config.node_elimination else None

        width = config.issue_width
        window_limit = config.window_size
        fetch_break = config.fetch_taken_break
        taken_col = trace.taken
        san = self.sanitizer

        # Per-position simulation state.
        issue_cycle = [-1] * n
        completion = [0] * n
        pend = {}               # pos -> set of unissued producer positions
        bound = [0] * n         # latest completion among resolved producers
        consumers = {}          # producer pos -> consumer positions
        # pos -> (shape, positions) group of an unissued collapsible
        # producer, collapsing only
        groups = {} if collapsing else None
        collapsed = set()       # positions that took part in a collapse
        tally = {}              # (category, distance, sigs) -> merges
        # producer pos -> dynamic basic-block id, within-block
        # collapsing only
        block_of = {} if track_blocks else None
        eliminated = set()

        reg_writer = [-1] * 33  # 32 registers + condition codes (index 32)
        mem_writer = {}         # word address -> last store position

        ready_heap = []         # positions ready to issue now
        future_heap = []        # (cycle value becomes available, position)

        # The speculation components this config enables (none for
        # A-E), on the state they share: they read it, and the recovery
        # engine rewinds it on a squash.  Each hook is the method of
        # the one component defining it, or None.
        parts, recovery = build_components(self, SimpleNamespace(
            issue_cycle=issue_cycle, completion=completion, pend=pend,
            bound=bound, consumers=consumers, future_heap=future_heap,
            eliminated=eliminated, reg_writer=reg_writer))
        admit = hook(parts, "admit")
        memory_arc = hook(parts, "memory_arc")
        triage = hook(parts, "triage")
        entered = hook(parts, "entered")
        waives = hook(parts, "waives")
        issued_hook = hook(parts, "issued")
        taint = hook(parts, "taint")
        slotless = hook(parts, "slotless", ())
        events = recovery.events if recovery is not None else ()

        fetched = 0
        window_count = 0
        issued = 0
        block_fetch = False
        fence_pos = -1          # the mispredicted branch blocking fetch
        block_counter = 0
        cycle = 0
        last_issue = 0

        heappush = heapq.heappush
        heappop = heapq.heappop

        # --------------------------------------------------------------
        def enter(i, now):
            nonlocal block_fetch, block_counter, fence_pos, issued, \
                window_count
            if san is not None:
                san.on_enter(i, now)
            s = sidx[i]
            cls = cls_col[s]
            is_mem = cls == LD or cls == ST

            # ---- gather producer arcs: (producer, kind, collapsible, uses)
            arcs = []
            src1 = src1_col[s]
            src2 = src2_col[s]
            expr_kind = _KIND_ADDR if is_mem else _KIND_OTHER
            expr_collapsible = consumer_ok_col[s]
            if src1 >= 0:
                p = reg_writer[src1]
                if p >= 0:
                    if src2 == src1:
                        arcs.append((p, expr_kind, expr_collapsible, 2))
                    else:
                        arcs.append((p, expr_kind, expr_collapsible, 1))
            if src2 >= 0 and src2 != src1:
                p = reg_writer[src2]
                if p >= 0:
                    arcs.append((p, expr_kind, expr_collapsible, 1))
            if cls == ST:
                data_reg = datasrc_col[s]
                if data_reg >= 0:
                    p = reg_writer[data_reg]
                    if p >= 0:
                        arcs.append((p, _KIND_OTHER, False, 1))
            if reads_cc_col[s]:
                p = reg_writer[32]
                if p >= 0:
                    arcs.append((p, _KIND_OTHER, consumer_ok_col[s], 1))
            if cls == LD:
                p = mem_writer.get(eff_addr[i] >> 2, -1)
                if memory_arc is not None:
                    p = memory_arc(i, s, p, now)
                if p >= 0:
                    arcs.append((p, _KIND_OTHER, False, 1))

            b_addr = 0
            b_other = 0
            pending = []        # (producer, kind) arcs kept as dependences
            if triage is not None:
                arcs = triage(i, arcs, pending, now)
            merged = None       # (producer, kind) arcs collapsed into i
            group = None        # i's expression, built at its first merge

            for p, kind, arc_collapsible, uses in arcs:
                if issue_cycle[p] >= 0:
                    comp = completion[p]
                    if kind == _KIND_ADDR:
                        if comp > b_addr:
                            b_addr = comp
                    elif comp > b_other:
                        b_other = comp
                    continue
                # Producer still pending in the window.
                if collapsing and arc_collapsible:
                    # Only a collapsible producer has a group, until it
                    # issues (a squashed producer left the group table
                    # at its first issue and can no longer merge).
                    pgroup = groups.get(p)
                    distance = i - p
                    legal = pgroup is not None and (
                        not consecutive_only or distance == 1)
                    if legal and track_blocks \
                            and block_of.get(p) != block_counter:
                        legal = False
                    if legal:
                        merge = merge_groups(
                            group if group is not None else (single[s], (i,)),
                            pgroup, uses)
                        if merge is not None:
                            group, category = merge
                            if san is not None:
                                san.on_collapse(i, p, kind,
                                                *shapes.counts(group))
                            key = (category, distance, shapes.sigs[group[0]])
                            tally[key] = tally.get(key, 0) + 1
                            # Every other member of either group was
                            # added at the merge that brought it in.
                            collapsed.add(i)
                            collapsed.add(p)
                            # Inherit the producer's unresolved state.
                            pb = bound[p]
                            if kind == _KIND_ADDR:
                                if pb > b_addr:
                                    b_addr = pb
                            elif pb > b_other:
                                b_other = pb
                            for q in pend.get(p, ()):
                                pending.append((q, kind))
                            if merged is None:
                                merged = [(p, kind)]
                            else:
                                merged.append((p, kind))
                            continue
                pending.append((p, kind))

            # ---- load classification / address speculation: a correct
            # (or ideal) prediction drops the address-generation arcs.
            addr_dropped = False
            if cls == LD:
                has_pending_addr = False
                for arc in pending:
                    if arc[1] == _KIND_ADDR:
                        has_pending_addr = True
                        break
                if not has_pending_addr and b_addr <= now:
                    load_stats.record(LOAD_READY)
                elif ideal_addresses or (lp_attempted is not None
                                         and lp_attempted.get(i, False)
                                         and lp_correct.get(i, False)):
                    load_stats.record(LOAD_PRED_CORRECT)
                    pending = [arc for arc in pending
                               if arc[1] != _KIND_ADDR]
                    b_addr = 0
                    addr_dropped = True
                    if san is not None:
                        san.on_load_spec(i)
                elif lp_attempted is not None and lp_attempted.get(i, False):
                    load_stats.record(LOAD_PRED_INCORRECT)
                else:
                    load_stats.record(LOAD_NOT_PREDICTED)

            # ---- node elimination (Figure 1.f extension): a collapsed
            # producer whose sole reader is this consumer never executes.
            # It must have no remaining arc to this consumer (e.g. a
            # store that collapsed the address register but still needs
            # the same register as data) and no registered consumers.
            candidates = [p for p, _ in merged if sole_reader[p] == i] \
                if merged is not None and sole_reader is not None else None
            if candidates:
                still_needed = {p for p, _ in pending}
                for p in candidates:
                    if p in eliminated or p in still_needed \
                            or consumers.get(p):
                        continue
                    eliminated.add(p)
                    if san is not None:
                        san.on_eliminate(p, now)
                    collapse_stats.eliminated += 1
                    issue_cycle[p] = now
                    completion[p] = now
                    pend.pop(p, None)
                    groups.pop(p, None)
                    if track_blocks:
                        block_of.pop(p, None)
                    issued += 1
                    if p in slotless:
                        slotless.discard(p)
                    else:
                        window_count -= 1

            # ---- register the remaining arcs.  From here on a
            # dependence has no kind: the instruction waits for the
            # producers in one pending set, behind one bound, which every
            # unissued instruction keeps because a later consumer may
            # collapse it and must inherit its value-availability bound.
            ready_at = b_addr if b_addr > b_other else b_other
            bound[i] = ready_at
            if pending:
                wait = set()
                for p, _kind in pending:
                    if p not in wait:
                        wait.add(p)
                        consumers.setdefault(p, []).append(i)
                pend[i] = wait
            elif ready_at <= now:
                heappush(ready_heap, i)
            else:
                heappush(future_heap, (ready_at, i))

            if collapsing and producer_ok_col[s]:
                groups[i] = group if group is not None else (single[s], (i,))
                if track_blocks:
                    block_of[i] = block_counter

            if entered is not None:
                entered(i, s, cls, arcs, pending, merged, addr_dropped, now)

            # ---- architectural update (program order)
            dest = dest_col[s]
            if dest >= 0:
                reg_writer[dest] = i
            if writes_cc_col[s]:
                reg_writer[32] = i
            if cls == ST:
                mem_writer[eff_addr[i] >> 2] = i
            if cls == BRC or cls == CTI:
                block_counter += 1
                if i in mispredicted \
                        and (waives is None or not waives(i, now)):
                    block_fetch = True
                    fence_pos = i

        # --------------------------------------------------------------
        def notify(p):
            comp = completion[p]
            if taint is not None and p in taint:
                # p may yet be squashed: keep its consumer list so the
                # squash can re-block unissued consumers.
                plist = consumers.get(p)
            else:
                plist = consumers.pop(p, None)
            if not plist:
                return
            for c in plist:
                wait = pend.get(c)
                if wait is None or p not in wait:
                    continue
                wait.discard(p)
                if comp > bound[c]:
                    bound[c] = comp
                if not wait:
                    del pend[c]
                    heappush(future_heap, (bound[c], c))

        # --------------------------------------------------------------
        while issued < n or (recovery is not None
                             and recovery.outstanding()):
            # Fill the window (kept full except behind a mispredicted,
            # still-unissued conditional branch; with fetch_taken_break,
            # at most one taken control transfer enters per cycle).  A
            # component may admit a position to a window of its own.
            while fetched < n and not block_fetch:
                position = fetched
                if admit is None or not admit(
                        position, window_count >= window_limit, cycle):
                    if window_count >= window_limit:
                        break
                    window_count += 1
                enter(position, cycle)
                fetched += 1
                if fetch_break and taken_col[position]:
                    cls = cls_col[sidx[position]]
                    if cls == BRC or cls == CTI:
                        break

            # Fire matured recovery events (squashes and releases).
            if events and events[0][0] <= cycle:
                issued -= recovery.drain(cycle)

            # Mature future events.
            while future_heap and future_heap[0][0] <= cycle:
                heappush(ready_heap, heappop(future_heap)[1])

            # Issue up to ``width`` oldest-ready instructions.
            issued_now = 0
            while issued_now < width and ready_heap:
                pos = heappop(ready_heap)
                if sole_reader is not None and pos in eliminated:
                    # Eliminated after being scheduled: consumes nothing.
                    continue
                if recovery is not None:
                    # Squash/replay leaves stale heap entries behind;
                    # re-validate before issuing.
                    if issue_cycle[pos] >= 0:
                        continue
                    if pos in pend:
                        continue
                    ready_at = bound[pos]
                    if ready_at > cycle:
                        heappush(future_heap, (ready_at, pos))
                        continue
                issue_cycle[pos] = cycle
                completion[pos] = cycle + lat_col[sidx[pos]]
                if san is not None:
                    san.on_issue(pos, cycle)
                issued += 1
                issued_now += 1
                held = issued_hook is not None and issued_hook(pos, cycle)
                if pos in slotless:
                    slotless.discard(pos)
                else:
                    window_count -= 1
                if block_fetch and pos == fence_pos and not held:
                    # The blocking branch issued (non-speculatively);
                    # resume fetch next cycle.
                    block_fetch = False
                if collapsing:
                    groups.pop(pos, None)
                    if track_blocks:
                        block_of.pop(pos, None)
                if not held:
                    notify(pos)

            if issued_now:
                last_issue = cycle
                cycle += 1
            else:
                next_cycle = future_heap[0][0] if future_heap else None
                if events and (next_cycle is None
                               or events[0][0] < next_cycle):
                    next_cycle = events[0][0]
                if next_cycle is None:
                    cycle += 1
                elif fetch_break and fetched < n and not block_fetch \
                        and window_count < window_limit:
                    # Fetch proceeds one taken-branch block per cycle, so
                    # idle stretches cannot be skipped wholesale.
                    cycle += 1
                else:
                    cycle = next_cycle if next_cycle > cycle \
                        else cycle + 1

        collapse_stats.record_tally(tally)
        collapse_stats.trace_length = n
        collapse_stats.collapsed = len(collapsed)
        if san is not None:
            san.finish()
        return SimResult(
            config=config,
            trace_name=trace.name,
            instructions=n,
            cycles=last_issue + 1 if n else 0,
            loads=load_stats,
            collapse=collapse_stats,
            branch=self.branch_result,
            issue_cycles=issue_cycle,
            eliminated_positions=eliminated,
            **{part.FIELD: part.stats for part in parts},
        )
