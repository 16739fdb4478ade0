"""Static collapsing-opportunity analysis (Section 3, statically).

The scheduler only ever merges a *direct* producer arc when the consumer
enters the window: the consumer's expression operands (``src1``/``src2``
of the static table, plus the condition-code input of a conditional
branch) each contribute at most one collapse event per dynamic instance,
and only when the architectural last writer of that operand is of a
collapsible producer class (``ar``/``lg``/``sh``/``mv``).  Group growth
is bounded by ``max_group`` members (one extra with zero-operand
detection), so a consumer can absorb at most ``max_group - 1`` (+1)
merges regardless of its operand count.

This module computes, per static instruction, the set of *may-reaching
last writers* of every operand over a may-CFG (conditional branches go
both ways, ``jmpl`` may land on any labelled instruction or call-return
site — the emulator's own restriction).  From that it derives a sound
per-static upper bound ``ub[s]`` on collapse events per dynamic
execution of ``s``; summing ``ub`` over a trace bounds the dynamic
``CollapseStats.events`` from above for *any* schedule the model can
produce.  The cross-check ``static bound >= dynamic events`` is wired
into ``repro lint --cross-check`` and the test suite.

The per-category breakdown merges *fresh* (single-instruction)
producer/consumer shapes through the scheduler's own
:class:`~repro.collapse.classify.ShapeTable`.  It is a diagnostic
profile of which signature pairs the rules admit and in which category
a first merge would land — grown groups can shift category (a pair
classified 3-1 can become 4-1 once the producer has itself absorbed a
member), so only the total is a guaranteed bound.
"""

from collections import Counter

from ..collapse.classify import ShapeTable
from ..collapse.rules import CollapseRules
from .cfg import ControlFlowGraph
from .findings import CheckResult

CC_SLOT = 32


class StaticCollapseBound:
    """Per-program static upper bound on collapse events."""

    def __init__(self, program, rules=None, cfg=None):
        self.program = program
        self.rules = rules if rules is not None else CollapseRules.paper()
        self.cfg = cfg if cfg is not None else ControlFlowGraph(program)
        self.table = self.cfg.table
        n = len(self.table)
        producer_mask = 0
        for i in range(n):
            if self.table.producer_ok[i]:
                producer_mask |= 1 << i
        self._producer_mask = producer_mask
        self._reach = self._reaching_writers()
        self.ub = [0] * n
        self.arc_count = [0] * n
        #: Counter of first-merge categories over static (producer,
        #: consumer) pairs the rules admit — diagnostic, not a bound.
        self.pair_categories = Counter()
        #: Counter of admissible (producer sig, consumer sig) pairs.
        self.pair_signatures = Counter()
        self._analyze()

    # ------------------------------------------------------------------

    def _reaching_writers(self):
        """Fixpoint: per instruction, per operand slot (32 registers +
        cc), the bitmask of instructions that may be the architectural
        last writer when control reaches it."""
        table = self.table
        n = self.cfg.n
        reach = [None] * n
        if not n:
            return reach
        entry = self.cfg.entry
        reach[entry] = [0] * 33
        work = [entry]
        while work:
            i = work.pop()
            state = reach[i]
            # Transfer: this instruction becomes the last writer of its
            # destinations.
            out = list(state)
            dest = table.dest[i]
            if dest > 0:
                out[dest] = 1 << i
            if table.writes_cc[i]:
                out[CC_SLOT] = 1 << i
            for s in self.cfg.may_successors(i):
                if s >= n:
                    continue
                target = reach[s]
                if target is None:
                    reach[s] = list(out)
                    work.append(s)
                    continue
                changed = False
                for slot in range(33):
                    merged = target[slot] | out[slot]
                    if merged != target[slot]:
                        target[slot] = merged
                        changed = True
                if changed:
                    work.append(s)
        return reach

    def _operand_slots(self, s):
        """Distinct operand slots of consumer ``s`` that the scheduler
        builds *collapsible* arcs from, with the use count the merge
        legality check sees."""
        table = self.table
        slots = []
        src1 = table.src1[s]
        src2 = table.src2[s]
        if src1 >= 0:
            slots.append((src1, 2 if src2 == src1 else 1))
        if src2 >= 0 and src2 != src1:
            slots.append((src2, 1))
        if table.reads_cc[s]:
            slots.append((CC_SLOT, 1))
        return slots

    def _analyze(self):
        table = self.table
        rules = self.rules
        cap = rules.max_group - 1 + (1 if rules.zero_detection else 0)
        producer_mask = self._producer_mask
        shapes = ShapeTable(rules, table)
        single = shapes.single
        for s in range(len(table)):
            if not table.consumer_ok[s]:
                continue
            state = self._reach[s]
            if state is None:        # unreachable even on the may-CFG
                continue
            fresh_raw = table.leaves[s] + table.zeros[s]
            if not rules.zero_detection and fresh_raw > rules.max_leaves:
                # Raw operand counts never shrink without zero-operand
                # detection, so no merge into this consumer can ever
                # satisfy the device limit.
                continue
            arcs = 0
            for slot, uses in self._operand_slots(s):
                writers = state[slot] & producer_mask
                if not writers:
                    continue
                arcs += 1
                mask = writers
                while mask:
                    low = mask & -mask
                    w = low.bit_length() - 1
                    mask ^= low
                    merged = shapes.merge_shapes(single[s], single[w], uses)
                    if merged is not None:
                        self.pair_categories[merged[1]] += 1
                        self.pair_signatures[
                            (table.sig[w], table.sig[s])] += 1
            self.arc_count[s] = arcs
            self.ub[s] = min(arcs, cap)

    # ------------------------------------------------------------------

    @property
    def static_bound(self):
        """Upper bound on events if every static site executed once."""
        return sum(self.ub)

    def bound_for_trace(self, trace):
        """Upper bound on ``CollapseStats.events`` for this trace.

        The trace must come from the same program (``sidx`` indexes this
        program's instruction list, as emu traces do).
        """
        ub = self.ub
        return sum(ub[s] for s in trace.sidx)

    def summary_rows(self):
        """Rows (index, line, sig, arcs, bound) for consumers with
        static opportunity, for the CLI ``--bounds`` table."""
        rows = []
        instrs = self.program.instructions
        for s, bound in enumerate(self.ub):
            if bound:
                line = instrs[s].line
                rows.append((s, line if line is not None else 0,
                             self.table.sig[s], self.arc_count[s], bound))
        return rows


class CollapseCheck(CheckResult):
    """Result of :func:`collapse_cross_check` for one program/trace."""

    __slots__ = ("bound", "events")

    def __init__(self, bound, events):
        CheckResult.__init__(self)
        self.bound = bound
        self.events = events


def collapse_cross_check(bound, trace, result):
    """Verify ``static bound >= dynamic collapse events``: ``bound`` is
    the program's :class:`StaticCollapseBound`, ``result`` a collapsing
    simulation of ``trace``."""
    check = CollapseCheck(bound.bound_for_trace(trace),
                          result.collapse.events)
    if check.bound < check.events:
        check.violations.append(
            "static collapse bound %d < dynamic collapse events %d — "
            "the scheduler merged an arc the static rules exclude"
            % (check.bound, check.events))
    return check


__all__ = ["CollapseCheck", "StaticCollapseBound", "collapse_cross_check"]
