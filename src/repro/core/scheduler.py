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
- Realistic disambiguation (``mem_spec == "mdpt"``, configs F/G): the
  load/store memory arc is dropped — loads issue speculatively past
  unresolved stores.  A load that issues before its producing store
  completes is a *certain* violation once the store executes: the load
  and its issued forward slice are squashed and replayed after a flush
  penalty, the MDPT (``repro.memdep``) learns the (load PC, store PC)
  pair, and promoted load PCs synchronize with the youngest matching
  in-flight store (MDST) at window entry instead of speculating.
- Result-value speculation with recovery (``value_spec == "replay"``,
  configuration I): a consumer of a load whose value prediction is
  *confident* drops the dependence arc — for free when the prediction
  is correct (the legacy ``value_spec=True`` behaviour), speculatively
  when it is wrong: the consumer may issue on the bad value, and when
  the load completes (verification) every such consumer is squashed
  and replayed with the architectural value after the flush penalty.
  A speculatively-issued consumer withholds its completion from its
  own consumers until the replay, so bad values never propagate
  un-squashably; a wrong-predicted load that already completed merely
  re-imposes the arc (the consumer waits — no squash).
- Load-driven exit-branch prediction (``config.branch_spec``,
  configuration J): given a static
  :class:`~repro.lint.branchflow.BranchPlan`, a *mispredicted* plan
  exit branch whose governing load's most recent dynamic instance was
  confidently and correctly value-predicted resolves at the load's
  address-generation time — the predicted value determines the branch
  direction before fetch reaches the branch, so the fetch fence is
  waived (Sridhar et al.'s LDBP, PAPERS.md).  An unpredicted or
  wrongly-predicted governing load leaves the fence in place.
- Decoupled access/execute (``config.dae``, configuration H): given a
  static :class:`~repro.lint.dae.DAEPlan`, members of a clean loop's
  access slice may enter a second *access window* (same capacity) when
  the main window is full, letting address computation and loads run
  ahead; each boundary load pushes its value into a per-loop bounded
  FIFO queue, popped when its first execute-side consumer issues (or
  reclaimed when the value is architecturally dead).  A boundary load
  that finds its queue full stays coupled (enters the main window,
  counted as a ``full_stall``).  Dependence timing is unchanged — the
  queues and the access window only relax *window occupancy*, which is
  what decoupling buys: the paper's limit machine never starves loads
  behind a full window, a DAE machine need not either.

The engine is event-driven: idle stretches are skipped by jumping to the
next dependence-resolution event, which keeps the 2048-wide/4096-window
configuration tractable in pure Python.
"""

import heapq

from ..collapse.classify import Group
from ..collapse.stats import CollapseStats
from ..trace.records import BRC, CTI, LD, ST
from .config import (
    LOAD_SPEC_IDEAL,
    LOAD_SPEC_NONE,
    LOAD_SPEC_REAL,
    MEM_SPEC_MDPT,
    VALUE_SPEC_REPLAY,
)
from .elimination import compute_sole_readers
from .results import (
    LOAD_NOT_PREDICTED,
    LOAD_PRED_CORRECT,
    LOAD_PRED_INCORRECT,
    LOAD_READY,
    LoadStats,
    SimResult,
)

_KIND_ADDR = 0
_KIND_OTHER = 1


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
        sig_col = static.sig
        leaves_col = static.leaves
        zeros_col = static.zeros
        producer_ok_col = static.producer_ok
        consumer_ok_col = static.consumer_ok
        pc_col = static.pc

        mispredicted = self.branch_result.mispredicted if self.branch_result \
            else {}
        load_spec = config.load_spec
        if load_spec == LOAD_SPEC_REAL:
            lp_attempted = self.load_prediction.attempted
            lp_correct = self.load_prediction.correct
        else:
            lp_attempted = lp_correct = None

        rules = config.collapse_rules
        collapsing = rules is not None
        # Rule checks run only when the rules impose them: the paper's
        # rules merge at any distance and across basic blocks.
        check_distance = collapsing and (not rules.allow_nonconsecutive
                                         or rules.max_distance is not None)
        track_blocks = collapsing and not rules.allow_cross_block
        collapse_stats = CollapseStats()
        load_stats = LoadStats()

        mem_realistic = config.mem_spec == MEM_SPEC_MDPT
        if mem_realistic:
            from ..memdep import FLUSH_PENALTY, MDPT, MemDepStats
            from ..memdep.mdpt import DEFAULT_ENTRIES, DEFAULT_STORE_SET
            mdpt = MDPT(entries=config.mdpt_entries or DEFAULT_ENTRIES,
                        store_set_size=config.mdpt_store_set
                        or DEFAULT_STORE_SET)
            memdep_stats = MemDepStats()
            true_store = {}        # load pos -> producing store pos (or -1)
            store_watch = {}       # store pos -> load positions to verify
            inflight_stores = {}   # store pc -> entered, uncompleted stores
            dep_record = {}        # pos -> timing-producer positions
            taint = {}             # pos -> pending-violation loads upstream
            slice_of = {}          # violating load -> issued tainted posns
            pending_violation = set()
            violation_heap = []    # (store completion cycle, load pos)
            replaying = set()      # squashed, awaiting re-issue
        else:
            memdep_stats = None

        node_elim = collapsing and config.node_elimination
        sole_reader = compute_sole_readers(trace) if node_elim else None
        eliminated = set()

        dae_plan = self.dae_plan
        dae_mode = config.dae and dae_plan is not None
        if dae_mode:
            from collections import deque
            from .daestats import DAEStats
            dae_stats = DAEStats()
            dae_access = dae_plan.access_of
            dae_boundary = dae_plan.boundary_of
            dae_body = dae_plan.body_of
            dae_chase = dae_plan.chase_of
            dae_body_loads = dae_plan.body_loads
            dae_capacity = dae_plan.capacity
            queues = {h: deque() for h in dae_plan.clean}
            queue_of = {}       # live queue entry (load pos) -> header
            delivered = set()   # entries consumed, awaiting FIFO drain
            popper = {}         # entry pos -> execute consumer that pops
            pop_on_issue = {}   # consumer pos -> [entry positions]
            bypassed = set()    # positions occupying the access window
            access_count = 0
            run_loop = -1       # header of the current dynamic loop run
            run_start = -1      # first position of the current run
        else:
            dae_stats = None

        value_spec = config.value_spec
        value_replay = value_spec == VALUE_SPEC_REPLAY
        if value_spec:
            vp_attempted = self.value_prediction.attempted
            vp_correct = self.value_prediction.correct
        else:
            vp_attempted = vp_correct = None
        branch_plan = self.branch_plan
        bspec_mode = branch_plan is not None
        if bspec_mode:
            from .branchspecstats import BranchSpecStats
            bspec_stats = BranchSpecStats()
            bspec_resolves = branch_plan.resolves
            bspec_loads = set(bspec_resolves.values())
            last_load_pos = {}   # governing-load sidx -> latest position
        else:
            bspec_stats = None

        if value_replay:
            from ..memdep import FLUSH_PENALTY
            from .vspecstats import ValueSpecStats
            vspec_stats = ValueSpecStats()
            vspec_wrong = {}     # consumer -> wrong-predicted load producers
            value_watch = {}     # load -> [(consumer, kind)] riding on it
            value_replaying = set()  # squashed, awaiting replay issue
            vspec_heap = []      # (load completion cycle, load pos)
        else:
            vspec_stats = None

        width = config.issue_width
        window_limit = config.window_size
        fetch_break = config.fetch_taken_break
        taken_col = trace.taken
        san = self.sanitizer

        # Per-position simulation state.
        issue_cycle = [-1] * n
        completion = [0] * n
        pend_addr = {}          # pos -> set of unissued producer positions
        pend_other = {}
        bound_addr = [0] * n    # max completion over resolved deps (0 once
        bound_other = [0] * n   # issued or eliminated)
        consumers = {}          # producer pos -> list of (consumer, kind)
        # pos -> collapse Group (while in window), collapsing only
        groups = {} if collapsing else None
        # pos -> dynamic basic-block id, within-block collapsing only
        block_of = {} if track_blocks else None

        reg_writer = [-1] * 33  # 32 registers + condition codes (index 32)
        mem_writer = {}         # word address -> last store position

        ready_heap = []         # positions ready to issue now
        future_heap = []        # (cycle value becomes available, position)

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
        # Realistic-disambiguation helpers (mdpt mode only).

        def _taint_from(dst, src):
            t = taint.get(src)
            if t:
                cur = taint.get(dst)
                if cur is None:
                    taint[dst] = set(t)
                else:
                    cur |= t

        def _youngest_inflight(store_pcs, now):
            """Youngest entered, not-yet-completed store among the given
            store PCs (MDST synchronization target), or -1."""
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

        # --------------------------------------------------------------
        # Decoupled access/execute helpers (dae mode only).

        def _dae_enqueue(h, i, now):
            queues[h].append(i)
            queue_of[i] = h
            stats = dae_stats.loop(h)
            stats.enqueued += 1
            depth = len(queues[h])
            if depth > stats.peak:
                stats.peak = depth
            if san is not None:
                san.on_dae_enqueue(h, i, now)

        def _dae_deliver(p, consumer, now):
            """Mark queue entry ``p`` consumed (``consumer`` issued) or
            dead (``consumer == -1``) and drain delivered entries from
            the queue head, preserving FIFO order."""
            h = queue_of.get(p)
            if h is None or p in delivered:
                return
            delivered.add(p)
            if san is not None:
                san.on_dae_deliver(p, consumer, now)
            queue = queues[h]
            stats = dae_stats.loop(h)
            while queue and queue[0] in delivered:
                head = queue.popleft()
                delivered.discard(head)
                del queue_of[head]
                stats.popped += 1
                if san is not None:
                    san.on_dae_pop(h, head, now)

        # --------------------------------------------------------------
        def enter(i, now):
            nonlocal block_fetch, block_counter, fence_pos, issued, \
                window_count, access_count, run_loop, run_start
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
                if not mem_realistic:
                    if p >= 0:
                        arcs.append((p, _KIND_OTHER, False, 1))
                else:
                    # The perfect memory arc is dropped: the load issues
                    # speculatively.  A promoted MDPT entry instead
                    # synchronizes the load with the youngest in-flight
                    # store of its predicted set.
                    memdep_stats.loads += 1
                    true_store[i] = p
                    if p >= 0:
                        memdep_stats.dependent += 1
                        store_watch.setdefault(p, []).append(i)
                    predicted = mdpt.store_set(pc_col[s])
                    if predicted:
                        sync = _youngest_inflight(predicted, now)
                        if sync >= 0:
                            arcs.append((sync, _KIND_OTHER, False, 1))
                            memdep_stats.synchronized += 1
                            if sync != p:
                                memdep_stats.false_syncs += 1
                            if san is not None:
                                san.on_mem_sync(i, sync)

            # ---- DAE run tracking and chase accounting: a dynamic
            # *run* is a maximal stretch of one loop's body members;
            # an arc from a load of the same loop, produced within the
            # run, into an access-slice member is a chase dependence —
            # statically-clean loops must never record one.
            if dae_mode:
                header = dae_body.get(s, -1)
                if header != run_loop:
                    run_loop = header
                    run_start = i
                    if header >= 0:
                        dae_stats.loop(header).runs += 1
                if run_loop >= 0 and dae_chase.get(s, -1) == run_loop:
                    watched = dae_body_loads[run_loop]
                    stats = dae_stats.loop(run_loop)
                    for p, _kind, _coll, _uses in arcs:
                        if p >= run_start and sidx[p] in watched:
                            stats.chase_deps += 1
                            if issue_cycle[p] < 0 or completion[p] > now:
                                stats.chase_stalls += 1
                for p, _kind, _coll, _uses in arcs:
                    if p in queue_of and p not in delivered \
                            and p not in popper:
                        popper[p] = i
                        pop_on_issue.setdefault(i, []).append(p)

            b_addr = 0
            b_other = 0
            pending = []        # (producer, kind) arcs kept as dependences
            resolved_rec = [] if mem_realistic else None
            elim_candidates = [] if node_elim else None
            group = Group(i, sig_col[s], leaves_col[s], zeros_col[s]) \
                if collapsing else None

            for p, kind, arc_collapsible, uses in arcs:
                if value_spec and cls_col[sidx[p]] == LD \
                        and vp_attempted.get(p, False):
                    if vp_correct.get(p, False):
                        # Value speculation (Figure 1.d extension): the
                        # consumer uses the predicted load value and does
                        # not wait for the load at all.  The load itself
                        # still executes to verify the prediction.
                        if value_replay:
                            vspec_stats.bypassed += 1
                        if san is not None:
                            san.on_value_bypass(i, p, kind)
                        continue
                    if value_replay:
                        if issue_cycle[p] >= 0 and completion[p] <= now \
                                and not vspec_wrong.get(p):
                            # The load already completed and verified:
                            # the misprediction was caught before this
                            # consumer existed, so it reads the
                            # architectural value like any resolved arc.
                            vspec_stats.late += 1
                        else:
                            # Wrong confident prediction: drop the arc
                            # anyway and ride the bad value.  The load's
                            # verification squashes and replays every
                            # consumer registered on the watch list.
                            vspec_stats.speculated += 1
                            vspec_wrong.setdefault(i, set()).add(p)
                            value_watch.setdefault(p, []).append((i, kind))
                            if issue_cycle[p] >= 0 \
                                    and not vspec_wrong.get(p):
                                heappush(vspec_heap, (completion[p], p))
                            if san is not None:
                                san.on_value_speculate(i, p, kind)
                            continue
                    # legacy value_spec=True: a wrong prediction simply
                    # keeps the arc (the machine magically knows).
                if issue_cycle[p] >= 0 \
                        and not (value_replay and vspec_wrong.get(p)):
                    comp = completion[p]
                    if kind == _KIND_ADDR:
                        if comp > b_addr:
                            b_addr = comp
                    elif comp > b_other:
                        b_other = comp
                    if mem_realistic:
                        resolved_rec.append((p, kind))
                        _taint_from(i, p)
                    continue
                # Producer still pending in the window.
                merged = False
                if collapsing and arc_collapsible and producer_ok_col[sidx[p]]:
                    distance = i - p
                    legal = True
                    if check_distance:
                        if not rules.allow_nonconsecutive and distance != 1:
                            legal = False
                        if legal and rules.max_distance is not None \
                                and distance > rules.max_distance:
                            legal = False
                    if legal and track_blocks \
                            and block_of.get(p) != block_counter:
                        legal = False
                    if legal and value_replay and vspec_wrong.get(p):
                        # Never fold into a producer that is itself
                        # riding a mispredicted value: the merged group
                        # would inherit its optimistic bounds without
                        # inheriting its squash obligation.
                        legal = False
                    if legal:
                        # (a squashed producer left the group table at
                        # its first issue and can no longer merge)
                        pgroup = groups.get(p)
                        category = group.try_merge(pgroup, uses, rules) \
                            if pgroup is not None else None
                        if category is not None:
                            if san is not None:
                                san.on_collapse(i, p, kind, group)
                            collapse_stats.record_event(
                                category, distance, group.sigs,
                                group.positions)
                            # Inherit the producer's unresolved state.
                            pb = bound_other[p]
                            if kind == _KIND_ADDR:
                                if pb > b_addr:
                                    b_addr = pb
                            elif pb > b_other:
                                b_other = pb
                            for q in pend_other.get(p, ()):
                                pending.append((q, kind))
                            merged = True
                            if mem_realistic:
                                for q in dep_record.get(p, ()):
                                    resolved_rec.append((q, kind))
                                _taint_from(i, p)
                            if node_elim and sole_reader[p] == i:
                                elim_candidates.append(p)
                if not merged:
                    pending.append((p, kind))
                    if mem_realistic:
                        _taint_from(i, p)

            # ---- load classification / speculation
            addr_dropped = False
            if cls == LD:
                has_pending_addr = False
                for arc in pending:
                    if arc[1] == _KIND_ADDR:
                        has_pending_addr = True
                        break
                if not has_pending_addr and b_addr <= now:
                    load_stats.record(LOAD_READY)
                elif load_spec == LOAD_SPEC_IDEAL:
                    load_stats.record(LOAD_PRED_CORRECT)
                    pending = [arc for arc in pending
                               if arc[1] != _KIND_ADDR]
                    b_addr = 0
                    addr_dropped = True
                    if san is not None:
                        san.on_load_spec(i)
                elif load_spec == LOAD_SPEC_REAL:
                    if lp_attempted.get(i, False):
                        if lp_correct.get(i, False):
                            load_stats.record(LOAD_PRED_CORRECT)
                            pending = [arc for arc in pending
                                       if arc[1] != _KIND_ADDR]
                            b_addr = 0
                            addr_dropped = True
                            if san is not None:
                                san.on_load_spec(i)
                        else:
                            load_stats.record(LOAD_PRED_INCORRECT)
                    else:
                        load_stats.record(LOAD_NOT_PREDICTED)
                else:
                    load_stats.record(LOAD_NOT_PREDICTED)

            # ---- node elimination (Figure 1.f extension): a collapsed
            # producer whose sole reader is this consumer never executes.
            # It must have no remaining arc to this consumer (e.g. a
            # store that collapsed the address register but still needs
            # the same register as data) and no registered consumers.
            if elim_candidates:
                still_needed = {p for p, _ in pending}
                for p in elim_candidates:
                    if p in eliminated or p in still_needed \
                            or consumers.get(p):
                        continue
                    eliminated.add(p)
                    if san is not None:
                        san.on_eliminate(p, now)
                    collapse_stats.eliminated += 1
                    issue_cycle[p] = now
                    completion[p] = now
                    pend_addr.pop(p, None)
                    pend_other.pop(p, None)
                    bound_addr[p] = 0
                    bound_other[p] = 0
                    groups.pop(p, None)
                    if track_blocks:
                        block_of.pop(p, None)
                    issued += 1
                    if dae_mode and p in bypassed:
                        bypassed.discard(p)
                        access_count -= 1
                    else:
                        window_count -= 1
                    if dae_mode and p in queue_of and p not in delivered \
                            and p not in popper:
                        _dae_deliver(p, -1, now)

            # ---- record the full timing-producer set (mdpt mode): a
            # squash replays the instruction against these positions.
            if mem_realistic:
                rec = {p for p, _ in pending}
                for p, kind in resolved_rec:
                    if addr_dropped and kind == _KIND_ADDR:
                        continue
                    rec.add(p)
                    # An issued producer can still be squashed while it
                    # is tainted or awaiting a violation; keep a consumer
                    # edge so this instruction re-blocks if that happens.
                    if taint.get(p) or p in pending_violation:
                        consumers.setdefault(p, []).append((i, kind))
                dep_record[i] = tuple(rec)

            # ---- register remaining arcs; bounds are kept for every
            # unissued instruction because a later consumer may collapse
            # this one and must inherit its value-availability bound.
            bound_addr[i] = b_addr
            bound_other[i] = b_other
            if pending:
                p_addr = p_other = None
                for p, kind in pending:
                    if kind == _KIND_ADDR:
                        if p_addr is None:
                            p_addr = {p}
                        elif p in p_addr:
                            continue
                        else:
                            p_addr.add(p)
                    elif p_other is None:
                        p_other = {p}
                    elif p in p_other:
                        continue
                    else:
                        p_other.add(p)
                    consumers.setdefault(p, []).append((i, kind))
                if p_addr is not None:
                    pend_addr[i] = p_addr
                if p_other is not None:
                    pend_other[i] = p_other
            else:
                ready_at = b_addr if b_addr > b_other else b_other
                if ready_at <= now:
                    heappush(ready_heap, i)
                else:
                    heappush(future_heap, (ready_at, i))

            if collapsing:
                groups[i] = group
                if track_blocks:
                    block_of[i] = block_counter

            # ---- architectural update (program order)
            dest = dest_col[s]
            if dest >= 0:
                if dae_mode:
                    old = reg_writer[dest]
                    # Overwritten before any execute-side consumer read
                    # it: the queued value is dead — reclaim its slot.
                    if old >= 0 and old in queue_of \
                            and old not in delivered and old not in popper:
                        _dae_deliver(old, -1, now)
                reg_writer[dest] = i
            if writes_cc_col[s]:
                reg_writer[32] = i
            if cls == ST:
                mem_writer[eff_addr[i] >> 2] = i
                if mem_realistic:
                    plist = inflight_stores.setdefault(pc_col[s], [])
                    plist.append(i)
                    if len(plist) > 32:
                        inflight_stores[pc_col[s]] = [
                            sp for sp in plist
                            if issue_cycle[sp] < 0 or completion[sp] > now]
            if bspec_mode and cls == LD and s in bspec_loads:
                last_load_pos[s] = i
            if cls == BRC or cls == CTI:
                block_counter += 1
                if bspec_mode and cls == BRC and s in bspec_resolves:
                    bspec_stats.exit_branches += 1
                if i in mispredicted:
                    waived = False
                    if bspec_mode and s in bspec_resolves:
                        p = last_load_pos.get(bspec_resolves[s], -1)
                        if p >= 0 and vp_attempted.get(p, False) \
                                and vp_correct.get(p, False):
                            # The governing load's confident, correct
                            # value prediction determines the branch
                            # direction at address-generation time:
                            # fetch follows the resolved path, no fence.
                            bspec_stats.early_resolved += 1
                            waived = True
                            if san is not None:
                                san.on_branch_resolve(i, p, now)
                        else:
                            bspec_stats.missed += 1
                    if not waived:
                        block_fetch = True
                        fence_pos = i

        # --------------------------------------------------------------
        def notify(p, now):
            comp = completion[p]
            if mem_realistic and (p in pending_violation or taint.get(p)):
                # p may yet be squashed: keep its consumer list so the
                # squash can re-block unissued consumers.
                plist = consumers.get(p)
            else:
                plist = consumers.pop(p, None)
            if not plist:
                return
            for c, kind in plist:
                if mem_realistic and issue_cycle[c] >= 0:
                    continue
                if kind == _KIND_ADDR:
                    wait = pend_addr.get(c)
                    if wait is None or p not in wait:
                        continue
                    wait.discard(p)
                    if not wait:
                        del pend_addr[c]
                    if comp > bound_addr[c]:
                        bound_addr[c] = comp
                else:
                    wait = pend_other.get(c)
                    if wait is None or p not in wait:
                        continue
                    wait.discard(p)
                    if not wait:
                        del pend_other[c]
                    if comp > bound_other[c]:
                        bound_other[c] = comp
                if mem_realistic:
                    _taint_from(c, p)
                if c not in pend_addr and c not in pend_other:
                    ba = bound_addr[c]
                    bo = bound_other[c]
                    ready_at = ba if ba > bo else bo
                    heappush(future_heap, (ready_at, c))

        # --------------------------------------------------------------
        def verify_memory_order(pos, now):
            """mdpt mode, at issue: prune/propagate taint, verify loads
            against their producing store, and re-verify watched loads
            when a store (re-)issues."""
            t = taint.get(pos)
            if t:
                t &= pending_violation
                if t:
                    for lv in t:
                        slice_of[lv].add(pos)
                else:
                    del taint[pos]
            cls = cls_col[sidx[pos]]
            if cls == LD:
                ts = true_store.get(pos, -1)
                if ts >= 0 and (issue_cycle[ts] < 0
                                or completion[ts] > now):
                    # Issued past the producing store: a certain
                    # violation once the store executes.
                    _mark_violation(pos, ts, now)
                    if issue_cycle[ts] >= 0:
                        heappush(violation_heap, (completion[ts], pos))
            elif cls == ST:
                watchers = store_watch.get(pos)
                if watchers:
                    comp = completion[pos]
                    for lw in watchers:
                        lc = issue_cycle[lw]
                        if lc < 0 or lc >= comp:
                            continue
                        if lw not in pending_violation:
                            _mark_violation(lw, pos, now)
                        heappush(violation_heap, (comp, lw))

        def _mark_violation(load, store, now):
            pending_violation.add(load)
            slice_of.setdefault(load, set()).add(load)
            t = taint.get(load)
            if t is None:
                taint[load] = {load}
            else:
                t.add(load)
            if san is not None:
                san.on_mem_speculate(load, store, now)

        def fire_violation(load, store, when):
            """Squash the violating load and its issued forward slice;
            replay everything after the flush penalty, resynchronized
            with the store that was violated."""
            nonlocal issued
            load_pc = pc_col[sidx[load]]
            store_pc = pc_col[sidx[store]]
            mdpt.train(load_pc, store_pc)
            members = sorted(
                p for p in slice_of.get(load, ())
                if issue_cycle[p] >= 0 and p not in eliminated)
            memdep_stats.record_violation(load_pc, store_pc,
                                          len(members), FLUSH_PENALTY)
            if san is not None:
                san.on_violation(load, store, when)
            member_set = set(members)
            for p in members:
                pending_violation.discard(p)
            for p in members:
                issue_cycle[p] = -1
                completion[p] = 0
                replaying.add(p)
                issued -= 1
                if san is not None:
                    san.on_squash(p, when)
                slice_of.pop(p, None)
                t = taint.get(p)
                if t:
                    t &= pending_violation
                    if not t:
                        del taint[p]
            restart = when + FLUSH_PENALTY
            for p in members:
                waits = set()
                base = restart
                for q in dep_record.get(p, ()):
                    if q in eliminated:
                        continue
                    if issue_cycle[q] < 0:
                        waits.add(q)
                        continue
                    cq = completion[q]
                    if cq > base:
                        base = cq
                if cls_col[sidx[p]] == LD:
                    ts = true_store.get(p, -1)
                    if ts >= 0 and ts not in eliminated:
                        # Resynchronize the replayed load with its true
                        # store so it cannot re-violate the same arc.
                        if issue_cycle[ts] < 0:
                            waits.add(ts)
                        elif completion[ts] > base:
                            base = completion[ts]
                pend_addr.pop(p, None)
                bound_addr[p] = 0
                bound_other[p] = base
                if waits:
                    pend_other[p] = waits
                    for q in waits:
                        consumers.setdefault(q, []).append(
                            (p, _KIND_OTHER))
                else:
                    pend_other.pop(p, None)
                    heappush(future_heap, (base, p))
                # Unissued consumers that folded p's old completion into
                # their bound must re-block on the replay.
                for c, kind in consumers.get(p, ()):
                    if c in member_set or c in eliminated \
                            or issue_cycle[c] >= 0:
                        continue
                    target = pend_addr if kind == _KIND_ADDR \
                        else pend_other
                    wait = target.get(c)
                    if wait is None:
                        target[c] = {p}
                    else:
                        wait.add(p)

        # --------------------------------------------------------------
        def verify_values(now):
            """value-replay mode: drain matured load verifications —
            squash issued consumers that rode the wrong prediction and
            schedule their replay; release unissued ones to wait for
            the architectural value (no penalty: nothing was undone)."""
            nonlocal issued
            while vspec_heap and vspec_heap[0][0] <= now:
                when, p = heappop(vspec_heap)
                if p in eliminated or issue_cycle[p] < 0 \
                        or completion[p] != when or vspec_wrong.get(p):
                    continue        # stale: squashed, re-timed, or the
                                    # load itself is still speculative
                watchers = value_watch.pop(p, None)
                if not watchers:
                    continue
                for w, kind in watchers:
                    if w in eliminated:
                        continue
                    wrong = vspec_wrong.get(w)
                    if wrong is None or p not in wrong:
                        continue
                    wrong.discard(p)
                    if issue_cycle[w] >= 0 and w not in value_replaying:
                        # Issued on the bad value: squash exactly once.
                        issue_cycle[w] = -1
                        completion[w] = 0
                        issued -= 1
                        value_replaying.add(w)
                        vspec_stats.squashes += 1
                        if san is not None:
                            san.on_value_squash(w, p, now)
                    if w in value_replaying:
                        if not wrong:
                            del vspec_wrong[w]
                            restart = when + FLUSH_PENALTY
                            bound_addr[w] = 0
                            bound_other[w] = restart
                            heappush(future_heap, (restart, w))
                    else:
                        # Never issued: the dropped arc re-materializes —
                        # fold the load's completion into the bound and
                        # let the consumer wait like any resolved arc.
                        if kind == _KIND_ADDR:
                            if when > bound_addr[w]:
                                bound_addr[w] = when
                        elif when > bound_other[w]:
                            bound_other[w] = when
                        if not wrong:
                            del vspec_wrong[w]
                            if w not in pend_addr and w not in pend_other:
                                ba = bound_addr[w]
                                bo = bound_other[w]
                                ready_at = ba if ba > bo else bo
                                heappush(future_heap, (ready_at, w))

        # --------------------------------------------------------------
        while issued < n or (mem_realistic and pending_violation) \
                or (value_replay and vspec_wrong):
            # Fill the window (kept full except behind a mispredicted,
            # still-unissued conditional branch; with fetch_taken_break,
            # at most one taken control transfer enters per cycle).  In
            # dae mode, access-slice members of clean loops may bypass a
            # full main window into the access window, boundary loads
            # permitting queue headroom.
            while fetched < n and not block_fetch:
                position = fetched
                bypass = False
                stall_loop = -1     # >= 0: queue full, -2: access full
                if dae_mode:
                    s_pos = sidx[position]
                    if dae_access.get(s_pos, -1) >= 0:
                        hb = dae_boundary.get(s_pos, -1)
                        if hb >= 0 \
                                and len(queues[hb]) >= dae_capacity[hb]:
                            stall_loop = hb     # stays coupled
                        elif access_count < window_limit:
                            bypass = True
                        else:
                            stall_loop = -2     # degrades to the window
                if not bypass and window_count >= window_limit:
                    break
                if bypass and san is not None:
                    san.on_dae_bypass(position)
                enter(position, cycle)
                fetched += 1
                if bypass:
                    bypassed.add(position)
                    access_count += 1
                    dae_stats.bypassed += 1
                else:
                    window_count += 1
                    if stall_loop >= 0:
                        dae_stats.loop(stall_loop).full_stalls += 1
                    elif stall_loop == -2:
                        dae_stats.degraded += 1
                if dae_mode:
                    hb = dae_boundary.get(sidx[position], -1)
                    if hb >= 0 and len(queues[hb]) < dae_capacity[hb]:
                        _dae_enqueue(hb, position, cycle)
                if fetch_break and taken_col[position]:
                    cls = cls_col[sidx[position]]
                    if cls == BRC or cls == CTI:
                        break

            # Fire matured memory-order violations (mdpt mode).
            if mem_realistic:
                while violation_heap and violation_heap[0][0] <= cycle:
                    viol_load = heappop(violation_heap)[1]
                    if viol_load not in pending_violation:
                        continue
                    viol_store = true_store[viol_load]
                    if issue_cycle[viol_store] < 0:
                        # The store itself was squashed; its re-issue
                        # re-arms the event via the store watch list.
                        continue
                    comp_s = completion[viol_store]
                    if comp_s > cycle:
                        heappush(violation_heap, (comp_s, viol_load))
                        continue
                    fire_violation(viol_load, viol_store, comp_s)

            # Fire matured value verifications (replay mode).
            if value_replay:
                verify_values(cycle)

            # Mature future events.
            while future_heap and future_heap[0][0] <= cycle:
                heappush(ready_heap, heappop(future_heap)[1])

            # Issue up to ``width`` oldest-ready instructions.
            issued_now = 0
            while issued_now < width and ready_heap:
                pos = heappop(ready_heap)
                if node_elim and pos in eliminated:
                    # Eliminated after being scheduled: consumes nothing.
                    continue
                if mem_realistic or value_replay:
                    # Squash/replay leaves stale heap entries behind;
                    # re-validate before issuing.
                    if issue_cycle[pos] >= 0:
                        continue
                    if pos in pend_addr or pos in pend_other:
                        continue
                    ba = bound_addr[pos]
                    bo = bound_other[pos]
                    ready_at = ba if ba > bo else bo
                    if ready_at > cycle:
                        heappush(future_heap, (ready_at, pos))
                        continue
                issue_cycle[pos] = cycle
                completion[pos] = cycle + lat_col[sidx[pos]]
                if san is not None:
                    san.on_issue(pos, cycle)
                issued += 1
                issued_now += 1
                if mem_realistic and pos in replaying:
                    # A replay re-uses the window slot freed at its first
                    # issue; it does not occupy the window again.
                    replaying.discard(pos)
                elif value_replay and pos in value_replaying:
                    # Same for a value-speculation replay.
                    value_replaying.discard(pos)
                    vspec_stats.replays += 1
                elif dae_mode and pos in bypassed:
                    bypassed.discard(pos)
                    access_count -= 1
                else:
                    window_count -= 1
                if dae_mode:
                    for p in pop_on_issue.pop(pos, ()):
                        _dae_deliver(p, pos, cycle)
                if block_fetch and pos == fence_pos \
                        and not (value_replay and vspec_wrong.get(pos)):
                    # The blocking branch issued (non-speculatively);
                    # resume fetch next cycle.
                    block_fetch = False
                bound_addr[pos] = 0
                bound_other[pos] = 0
                if collapsing:
                    groups.pop(pos, None)
                    if track_blocks:
                        block_of.pop(pos, None)
                if mem_realistic:
                    verify_memory_order(pos, cycle)
                if value_replay:
                    if cls_col[sidx[pos]] == LD and value_watch.get(pos) \
                            and not vspec_wrong.get(pos):
                        # Architectural completion scheduled: arm the
                        # verification event for the riders.
                        heappush(vspec_heap, (completion[pos], pos))
                    if vspec_wrong.get(pos):
                        # Speculative issue: withhold the completion from
                        # consumers until the replay produces the
                        # architectural value.
                        continue
                notify(pos, cycle)

            if issued_now:
                last_issue = cycle
                cycle += 1
            else:
                next_cycle = future_heap[0][0] if future_heap else None
                if mem_realistic and violation_heap:
                    viol_next = violation_heap[0][0]
                    if next_cycle is None or viol_next < next_cycle:
                        next_cycle = viol_next
                if value_replay and vspec_heap:
                    vnext = vspec_heap[0][0]
                    if next_cycle is None or vnext < next_cycle:
                        next_cycle = vnext
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

        collapse_stats.trace_length = n
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
            memdep=memdep_stats,
            dae=dae_stats,
            value_spec=vspec_stats,
            branch_spec=bspec_stats,
        )
