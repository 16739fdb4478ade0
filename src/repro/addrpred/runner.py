"""Precompute load-prediction outcomes for every load in a trace.

All loads update the table in program order (Section 3: "All loads update
the table state but only not ready loads use the table"), so the
prediction outcome of every dynamic load is timing-independent and can be
computed in one pass.  The timing simulator later decides *readiness*
(which is timing-dependent) and combines it with these outcomes.

One pass serves both load streams: :func:`run_address_predictor` runs
it over effective addresses (the paper's load speculation) and
:func:`repro.vpred.run_value_predictor` over the values loads return
(the value-speculation extension).  Both run :func:`run_load_sweep`
(the vectorized pass) with the trace column to read, or
:func:`run_load_table` (the sequential loop, also the sweep's
reference) when the caller supplies a table.

Two accuracy views are reported:

- ``raw_accuracy`` counts every dynamic load, including the first
  access of each PC — which is always a miss (the table entry is cold),
  so the raw number systematically understates what the predictor does
  in steady state, especially at small trace scales;
- ``steady_accuracy`` excludes that unavoidable first prediction per
  PC, isolating the trained behaviour.

With ``per_pc=True`` the pass additionally keeps one
:class:`PerPCStat` histogram per static load address — accuracy,
confidence-gate coverage, and the number of *delta changes* in the
stream.  The static classifications (``repro.lint.addrclass`` over
addresses, ``repro.lint.valueflow`` over values) cross-check their
per-site claims against exactly these histograms.
"""

from ..trace.records import LD

#: observations before a cold entry can predict: for a two-delta table
#: the first access seeds the stream and the stride must then be seen
#: twice; for a 2-bit branch counter, up to two trainings to cross the
#: threshold plus the cold first prediction itself
PC_WARMUP = 3

_MASK32 = 0xFFFFFFFF


class PerPCStat:
    """Dynamic predictor behaviour of one static load (one PC).

    ``delta_changes`` counts observations whose stream delta differs
    from the previous delta at the same PC — the quantity that bounds
    two-delta misses from above (each change costs at most two misses
    before the table re-locks; see ``repro.lint.addrclass``).
    """

    __slots__ = ("pc", "count", "correct", "attempted",
                 "attempted_correct", "warm_correct", "delta_changes",
                 "_last", "_last_delta")

    def __init__(self, pc):
        self.pc = pc
        self.count = 0
        self.correct = 0
        self.attempted = 0
        self.attempted_correct = 0
        #: correct predictions beyond the first PC_WARMUP observations
        self.warm_correct = 0
        self.delta_changes = 0
        self._last = None
        self._last_delta = None

    def observe(self, value, would_use, correct):
        self.count += 1
        if correct:
            self.correct += 1
            if self.count > PC_WARMUP:
                self.warm_correct += 1
        if would_use:
            self.attempted += 1
            if correct:
                self.attempted_correct += 1
        if self._last is not None:
            delta = (value - self._last) & _MASK32
            if self._last_delta is not None \
                    and delta != self._last_delta:
                self.delta_changes += 1
            self._last_delta = delta
        self._last = value

    @property
    def accuracy(self):
        return self.correct / self.count if self.count else 0.0

    @property
    def steady_accuracy(self):
        """Accuracy over observations past the per-PC warmup."""
        steady = self.count - PC_WARMUP
        if steady <= 0:
            return 0.0
        return self.warm_correct / steady

    @property
    def coverage(self):
        """Fraction of observations the confidence gate opened for."""
        return self.attempted / self.count if self.count else 0.0

    def __repr__(self):
        return "<PerPCStat pc=0x%x n=%d acc=%.2f cov=%.2f changes=%d>" \
            % (self.pc, self.count, self.accuracy, self.coverage,
               self.delta_changes)


class LoadPredictionResult:
    """Per-load prediction outcomes.

    ``attempted`` and ``correct`` are dicts keyed by trace position,
    populated only for loads: ``attempted[pos]`` is True when confidence
    allowed using the prediction; ``correct[pos]`` is True when the
    prediction matched.  ``per_pc`` maps PC -> :class:`PerPCStat` when
    the run collected histograms, else None.  ``predictor`` names the
    value-predictor kind of a value pass (None for address passes).
    """

    __slots__ = ("attempted", "correct", "loads", "would_correct",
                 "first_misses", "warm_would_correct", "per_pc",
                 "predictor")

    def __init__(self, predictor=None):
        self.attempted = {}
        self.correct = {}
        self.loads = 0
        self.would_correct = 0
        #: dynamic loads that were the first access of their PC (the
        #: table entry was cold: such a prediction can never be right)
        self.first_misses = 0
        #: correct predictions among non-first accesses
        self.warm_would_correct = 0
        self.per_pc = None
        self.predictor = predictor

    @property
    def raw_accuracy(self):
        """Fraction of loads whose table prediction was correct,
        independent of confidence (diagnostic; includes the always-miss
        first access of every PC).  For a last-value pass this is value
        locality: loads returning the same value as the previous
        execution of the same static load."""
        if not self.loads:
            return 0.0
        return self.would_correct / self.loads

    @property
    def steady_accuracy(self):
        """Accuracy excluding the first access of every PC, whose miss
        is structural (cold entry) rather than a predictor failure."""
        warm = self.loads - self.first_misses
        if warm <= 0:
            return 0.0
        return self.warm_would_correct / warm

    @property
    def confident_coverage(self):
        """Fraction of loads speculated on: confidence gate open *and*
        the prediction correct — the coverage the static valueflow
        bound must dominate."""
        if not self.loads:
            return 0.0
        used = sum(1 for position, used in self.attempted.items()
                   if used and self.correct[position])
        return used / self.loads


def run_address_predictor(trace, table=None, per_pc=False):
    """One program-order pass of the address predictor over ``trace``.

    ``per_pc=True`` additionally collects a :class:`PerPCStat` per
    static load address in ``result.per_pc`` (costs one dict lookup per
    load; leave off in the simulator hot path).

    With the default table the pass runs the vectorized sweep
    (:mod:`repro.addrpred.nsweep`); an explicit ``table`` runs the
    sequential loop, since the caller observes its trained entries.
    ``run_address_predictor(trace, TwoDeltaTable())`` is the sweep's
    scalar reference.
    """
    if table is None:
        from .nsweep import two_delta_sweep
        return run_load_sweep(trace, "eff_addr", two_delta_sweep, per_pc)
    return run_load_table(trace, "eff_addr", table, per_pc)


def run_load_table(trace, column, table, per_pc, predictor=None):
    """Sequential pass of ``table`` over the loads' ``column`` stream
    (``"eff_addr"`` or ``"mem_value"``), in program order."""
    static = trace.static
    cls = static.cls
    pcs = static.pc
    stream = getattr(trace, column)
    result = LoadPredictionResult(predictor)
    observe = table.observe
    attempted = result.attempted
    correct_map = result.correct
    seen_pcs = set()
    histograms = {} if per_pc else None
    for position, sidx in enumerate(trace.sidx):
        if cls[sidx] != LD:
            continue
        pc = pcs[sidx]
        value = stream[position]
        would_use, correct, _ = observe(pc, value)
        result.loads += 1
        if pc in seen_pcs:
            if correct:
                result.would_correct += 1
                result.warm_would_correct += 1
        else:
            seen_pcs.add(pc)
            result.first_misses += 1
            if correct:
                # Possible only for a 0 (cold entries predict 0); count
                # it in the raw view.
                result.would_correct += 1
        attempted[position] = would_use
        correct_map[position] = correct
        if histograms is not None:
            stat = histograms.get(pc)
            if stat is None:
                stat = histograms[pc] = PerPCStat(pc)
            stat.observe(value & _MASK32, would_use, correct)
    if histograms is not None:
        result.per_pc = histograms
    return result


def run_load_sweep(trace, column, sweep, per_pc, predictor=None):
    """Vectorized pass, byte-identical to :func:`run_load_table` with the
    default table ``sweep`` reproduces (see :mod:`repro.addrpred.nsweep`)."""
    from ..nscan import first_occurrence
    from .nsweep import _load_stream, per_pc_sweep

    result = LoadPredictionResult(predictor)
    positions, pc, stream = _load_stream(trace, column)
    would_use, correct = sweep(pc, stream)
    result.loads = int(positions.shape[0])
    keys = positions.tolist()
    result.attempted = dict(zip(keys, would_use.tolist()))
    result.correct = dict(zip(keys, correct.tolist()))
    # First occurrence of each PC: a structurally cold table entry.
    first = first_occurrence(pc)
    result.first_misses = int(first.sum())
    result.would_correct = int(correct.sum())
    result.warm_would_correct = int((correct & ~first).sum())
    if per_pc:
        result.per_pc = per_pc_sweep(pc, stream, would_use, correct)
    return result
