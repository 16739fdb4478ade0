"""Static per-load address-predictability classification.

For every static load the pass decides *why* (or why not) the paper's
4096-entry two-delta stride predictor should cover it, using the loop
forest (:mod:`repro.lint.loops`) and the loop-relative value forms
(:mod:`repro.lint.induction`) of the address expression
``rs1 + rs2/imm`` relative to the load's innermost loop:

========== ===========================================================
``stride``    the address register is a basic induction variable plus a
              loop-invariant offset: constant stride = the IV step
``affine``    an affine function of a basic IV (scaled index, derived
              IV): constant per-iteration stride, value possibly
              statically unknown
``invariant`` loop-invariant address: stride 0 within any run
``chase``     the address derives from a load result produced inside
              the loop (load-to-load address dependence — linked-list
              walks)
``irregular`` everything else: hash mixing, variable-step updates,
              multiple reaching definitions, irreducible regions
``straight``  not inside any natural loop (no per-PC pattern to claim)
========== ===========================================================

Each class carries a *predicted steady-state two-delta bound*.  For the
three predictable classes the prediction is exact: once the table has
seen the same delta twice it predicts every following access of the
run, so misses at such a PC are confined to warmup (≤ 3) plus re-lock
windows after each observed delta change (≤ 2 each) — and delta
changes themselves happen only when an enclosing loop re-enters the
pattern.  The chase/irregular classes instead carry an audited
*coverage cap*: an upper bound on the fraction of their dynamic loads
the confidence gate should ever open for.  :func:`cross_check` asserts
both directions against the dynamic per-PC histograms collected by
``repro.addrpred.runner``:

- soundness floor — every predictable-class site with enough
  observations satisfies
  ``correct >= count - WARMUP_MISSES - RELOCK_MISSES * delta_changes``
  and its delta changes stay under the stability budget (a
  misclassified hash walk fails both spectacularly);
- coverage bound — the trace-weighted sum of per-class caps is an
  upper bound on the dynamic fraction of loads whose prediction the
  confidence gate actually used.

Sites whose PCs collide in the direct-mapped table (possible only for
programs longer than the table) are exempted from the per-PC floor and
reported as aliased.
"""

from ..isa.registers import reg_name
from .dataflow import definite_assignment, reg_reads
from .findings import SEV_WARNING, CheckResult, Finding
from .induction import (
    AFFINE,
    INV,
    IV,
    LOAD,
    LoopValues,
    combine_sum,
)
from .sites import Site, SiteClassification

CLASS_STRIDE = "stride"
CLASS_AFFINE = "affine"
CLASS_INVARIANT = "invariant"
CLASS_CHASE = "chase"
CLASS_IRREGULAR = "irregular"
CLASS_STRAIGHT = "straight"

ALL_CLASSES = (CLASS_STRIDE, CLASS_AFFINE, CLASS_INVARIANT, CLASS_CHASE,
               CLASS_IRREGULAR, CLASS_STRAIGHT)

#: classes whose steady-state two-delta accuracy prediction is 1.0
PREDICTABLE_CLASSES = frozenset(
    (CLASS_STRIDE, CLASS_AFFINE, CLASS_INVARIANT))

#: per-class upper bound on the fraction of dynamic loads whose
#: prediction the confidence gate opens for.  1.0 for classes with no
#: negative claim; the chase/irregular caps are audited empirical
#: bounds over the registered workloads (see docs/LINT.md) — a
#: violation means either the classification or the cap needs
#: revisiting, and either is worth a loud failure.
COVERAGE_CAP = {
    CLASS_STRIDE: 1.0,
    CLASS_AFFINE: 1.0,
    CLASS_INVARIANT: 1.0,
    CLASS_CHASE: 0.40,
    CLASS_IRREGULAR: 0.70,
    CLASS_STRAIGHT: 1.0,
}

#: two-delta warmup: a cold entry needs at most 3 observations before
#: the stride is promoted and predicts (see repro.addrpred.two_delta)
WARMUP_MISSES = 3
#: misses per observed delta change before the table re-locks
RELOCK_MISSES = 2
#: per-PC checks need this many observations to be meaningful
MIN_OBSERVATIONS = 16
#: slack on the delta-change budget for predictable sites, on top of
#: the entry-derived term (see :func:`_check_load_stream`):
#: absorbs the very first delta of the run and degenerate
#: single-iteration entries
STABILITY_BASE = 4


class LoadSite(Site):
    """One static load with its address classification."""

    __slots__ = ("stride",)

    def __init__(self, index, line, pc, cls, stride=None, loop=None,
                 note=""):
        Site.__init__(self, index, line, pc, cls, loop, note)
        self.stride = stride    # per-iteration stride when known

    def __repr__(self):
        return "<LoadSite #%d %s stride=%r>" % (self.index, self.cls,
                                                self.stride)


class AddressClassification(SiteClassification):
    """Per-program classification of every static load."""

    CLASSES = ALL_CLASSES
    COVERAGE_CAP = COVERAGE_CAP
    TABLE_ENTRIES = 4096

    def __init__(self, program, cfg=None):
        SiteClassification.__init__(self, program,
                                    LoopValues(program, cfg))
        self._classify()

    def _classify(self):
        instrs = self.program.instructions
        for i, ins in enumerate(instrs):
            if not ins.is_load:
                continue
            site = self._classify_load(i, ins)
            self.sites.append(site)
            self.by_index[i] = site

    def _classify_load(self, i, ins):
        line = ins.line
        pc = self.program.address_of_index(i)
        loop = self.forest.loop_of(i)
        if loop is None:
            return LoadSite(i, line, pc, CLASS_STRAIGHT)
        if self.forest.in_irreducible_region(i):
            return LoadSite(i, line, pc, CLASS_IRREGULAR, loop=loop,
                            note="irreducible region")
        if ins.rs1 < 0:
            # Absolute address [imm]: invariant by construction.
            return LoadSite(i, line, pc, CLASS_INVARIANT, stride=0,
                            loop=loop)
        base, offset = self.values.address_forms(i, loop)
        kinds = {base[0], offset[0]}
        combined = combine_sum(base, offset, negate=False)
        if combined[0] == LOAD:
            return LoadSite(i, line, pc, CLASS_CHASE, loop=loop)
        if combined[0] == INV:
            return LoadSite(i, line, pc, CLASS_INVARIANT, stride=0,
                            loop=loop)
        if combined[0] == AFFINE:
            if IV in kinds and kinds <= {IV, INV}:
                # A basic IV plus an invariant offset: the classic
                # pointer-bump / indexed-walk constant stride.
                return LoadSite(i, line, pc, CLASS_STRIDE,
                                stride=combined[1], loop=loop)
            return LoadSite(i, line, pc, CLASS_AFFINE,
                            stride=combined[1], loop=loop)
        return LoadSite(i, line, pc, CLASS_IRREGULAR, loop=loop)

    # ------------------------------------------------------------------

    def summary_rows(self):
        """Rows (index, line, class, stride, loop-header line, depth)
        for the CLI ``--addr`` table."""
        rows = []
        for site in self.sites:
            stride = site.stride if site.stride is not None else "?"
            if site.cls in (CLASS_CHASE, CLASS_IRREGULAR,
                            CLASS_STRAIGHT):
                stride = "-"
            rows.append(self._row(site, stride))
        return rows


# ----------------------------------------------------------------------
# Satellite: loads whose address registers may be undefined.
# ----------------------------------------------------------------------

def check_addr_untracked(program, cfg, file="<program>"):
    """Loads whose address registers are never defined on some path.

    A refinement of the generic ``uninit-read``: when the *address* of
    a load is the possibly-undefined value, the whole per-PC address
    stream is untrackable, so the site is additionally flagged for the
    address-classification pass.  Reuses the definite-assignment facts.
    """
    instrs = program.instructions
    if not cfg.n:
        return []
    live_in = definite_assignment(program, cfg)
    findings = []
    for i in sorted(cfg.reachable):
        ins = instrs[i]
        if not ins.is_load:
            continue
        mask = live_in[i]
        # For a load, reg_reads is exactly the address registers.
        for r in reg_reads(ins):
            if not (mask >> r) & 1:
                findings.append(Finding(
                    "addr-untracked",
                    "load address register %s is never defined on some "
                    "path from the entry point; the address stream of "
                    "this load cannot be classified" % (reg_name(r),),
                    file=file, line=ins.line, index=i,
                    severity=SEV_WARNING))
    return findings


# ----------------------------------------------------------------------
# Dynamic cross-check against per-PC predictor histograms.
# ----------------------------------------------------------------------

class LoadStreamCheck(CheckResult):
    """The per-PC and coverage evidence of a load-stream cross-check
    (:func:`cross_check`, ``valueflow_cross_check``)."""

    __slots__ = ("checked_sites", "skipped_aliased", "skipped_short",
                 "coverage_bound", "dynamic_coverage", "steady_accuracy",
                 "loads")

    def __init__(self):
        CheckResult.__init__(self)
        self.checked_sites = 0
        self.skipped_aliased = 0
        self.skipped_short = 0
        self.coverage_bound = 1.0
        self.dynamic_coverage = 0.0
        self.steady_accuracy = 0.0
        self.loads = 0


class AddressCheck(LoadStreamCheck):
    """Result of :func:`cross_check` for one (program, trace) pair."""

    __slots__ = ("predictable_share",)

    def __init__(self):
        LoadStreamCheck.__init__(self)
        self.predictable_share = 0.0


def count_loop_entries(trace, loops):
    """Dynamic entries into each loop: positions where the header
    executes and the previous dynamic instruction was outside the
    body.  One pass over the static-index stream; headers are unique
    per loop (back edges sharing a header were merged)."""
    by_header = {loop.header: loop for loop in loops}
    entries = dict.fromkeys(by_header, 0)
    if not by_header:
        return entries
    prev = None
    for s in trace.sidx:
        loop = by_header.get(s)
        if loop is not None and (prev is None or prev not in loop.body):
            entries[s] += 1
        prev = s
    return entries


def _check_load_stream(check, analysis, predictable, trace, result,
                       table_entries, relock, unstable, capped):
    """The half both load-stream cross-checks share: ``result``'s
    per-PC histograms and load coverage against the sites ``analysis``
    (a :class:`~repro.lint.sites.SiteClassification`) observes.

    Every observed site whose class is in ``predictable`` and whose PC
    has at least :data:`MIN_OBSERVATIONS` observations in the
    :class:`~repro.addrpred.runner.PerPCStat` histograms
    ``result.per_pc`` must satisfy the two-delta soundness floor
    ``correct >= count - WARMUP_MISSES - RELOCK_MISSES * delta_changes``,
    and its delta changes must fit a stability budget of
    :data:`STABILITY_BASE` plus :data:`RELOCK_MISSES` per dynamic entry
    into its innermost loop; sites whose entries collide in a table of
    ``table_entries`` entries are exempt.  The class-capped coverage
    bound must dominate the fraction of loads whose prediction the
    confidence gate used.  Violations are worded by the ``relock``,
    ``unstable`` and ``capped`` templates, filled with ``(line, index,
    class, correct, count, floor, delta_changes)``, ``(line, index,
    class, delta_changes, count, loop_entries, budget)`` and ``(bound,
    dynamic coverage)``.  Fills the per-PC and coverage fields of
    ``check``; returns the dynamic class counts, or None when the trace
    has no loads.
    """
    sites = analysis.observed
    per_pc = result.per_pc
    aliased = analysis.aliased_indices(table_entries)
    site_loops = {site.loop for site in sites
                  if site.cls in predictable and site.loop is not None}
    entries = count_loop_entries(trace, site_loops)
    warm_correct = 0
    warm_total = 0
    for site in sites:
        if site.cls not in predictable:
            continue
        stat = per_pc.get(site.pc)
        if stat is None:
            continue
        if site.index in aliased:
            check.skipped_aliased += 1
            continue
        if stat.count < MIN_OBSERVATIONS:
            check.skipped_short += 1
            continue
        check.checked_sites += 1
        warm = max(0, stat.count - WARMUP_MISSES)
        warm_correct += min(stat.correct, warm)
        warm_total += warm
        floor = stat.count - WARMUP_MISSES \
            - RELOCK_MISSES * stat.delta_changes
        if stat.correct < floor:
            check.violations.append(
                relock % (site.line, site.index, site.cls, stat.correct,
                          stat.count, floor, stat.delta_changes))
        loop_entries = entries.get(site.loop.header, 1)
        budget = STABILITY_BASE + RELOCK_MISSES * loop_entries
        if stat.delta_changes > budget:
            check.violations.append(
                unstable % (site.line, site.index, site.cls,
                            stat.delta_changes, stat.count, loop_entries,
                            budget))
    if warm_total:
        check.steady_accuracy = warm_correct / warm_total
    check.loads = result.loads
    if not result.loads:
        return None
    attempted = sum(1 for used in result.attempted.values() if used)
    check.dynamic_coverage = attempted / result.loads
    counts = analysis.dynamic_class_counts(trace)
    check.coverage_bound = analysis.capped_share(counts)
    if check.coverage_bound < check.dynamic_coverage:
        check.violations.append(
            capped % (check.coverage_bound, check.dynamic_coverage))
    return counts


def cross_check(classification, trace, result, table_entries=4096):
    """Verify the static classification against a dynamic predictor run.

    ``result`` must come from
    ``run_address_predictor(trace, per_pc=True)`` on a trace of the
    classified program.  Returns an :class:`AddressCheck`; its
    ``violations`` are human-readable strings, empty when every
    assertion holds.

    The delta-change budget of a predictable site is derived from the
    *dynamic entry count* of its innermost loop: within one run of the
    loop the statically-proved stride is constant, and each re-entry
    (the enclosing loop starting the pattern over) costs at most
    :data:`RELOCK_MISSES` delta changes — the jump to the new base plus
    the first in-run delta.  A site whose stream changes delta more
    often than that is not constant-stride inside its loop, no matter
    what the classifier believed.
    """
    check = AddressCheck()
    if result.per_pc is None:
        raise ValueError("cross_check needs per-PC stats: run the "
                         "predictor with per_pc=True")
    counts = _check_load_stream(
        check, classification, PREDICTABLE_CLASSES, trace, result,
        table_entries,
        relock="line %s: load #%d (%s) broke the two-delta re-lock "
               "bound: %d/%d correct, floor %d with %d delta changes",
        unstable="line %s: load #%d classified %s but its address "
                 "stream changed delta %d times over %d loads across "
                 "%d loop entries (budget %d) — statically claimed "
                 "constant stride is not constant within the loop",
        capped="static coverage bound %.3f < dynamic predictor "
               "coverage %.3f — a chase/irregular class cap is "
               "violated or loads are misclassified")
    if counts is not None:
        total = sum(counts.values())
        if total:
            check.predictable_share = sum(
                counts[c] for c in PREDICTABLE_CLASSES) / total
    return check


__all__ = [
    "ALL_CLASSES", "AddressCheck", "AddressClassification",
    "CLASS_AFFINE", "CLASS_CHASE", "CLASS_INVARIANT", "CLASS_IRREGULAR",
    "CLASS_STRAIGHT", "CLASS_STRIDE", "COVERAGE_CAP", "LoadSite",
    "MIN_OBSERVATIONS", "PREDICTABLE_CLASSES", "RELOCK_MISSES",
    "STABILITY_BASE", "WARMUP_MISSES", "check_addr_untracked",
    "count_loop_entries", "cross_check",
]
