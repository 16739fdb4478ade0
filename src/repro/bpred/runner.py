"""Run a branch predictor over a dynamic trace (program order).

Trace-driven limit studies train predictors in program order: the
prediction for each conditional branch is recorded and the predictor is
updated with the actual outcome before moving on.  The timing simulator
then consumes the per-branch misprediction flags.

With ``per_pc=True`` the pass additionally keeps one
:class:`PerPCBranchStat` histogram per static branch PC — count, taken
mix, accuracy, warmup-excluded steady accuracy and confidence-gate
coverage — the quantities the static ``lint.branchflow``
classification cross-checks its per-site claims against, exactly as
``lint.addrclass``/``lint.valueflow`` check the addrpred/vpred
histograms.  *Confident* means the chosen component's saturating
counter sat at a saturation point (0 or maximum) before the branch
predicted.
"""

from ..addrpred.runner import PC_WARMUP
from ..errors import ReproError
from ..trace.records import BRC
from .bimodal import BimodalPredictor
from .combining import CombiningPredictor, PerfectPredictor
from .gshare import GsharePredictor
from .local import LocalHistoryPredictor, StaticPredictor

#: Predictor kinds the runner accepts by name.
PREDICTORS = ("combining", "bimodal", "local", "gshare", "static",
              "perfect")

_FACTORIES = {
    "combining": CombiningPredictor,
    "bimodal": BimodalPredictor,
    "local": LocalHistoryPredictor,
    "gshare": GsharePredictor,
    "static": StaticPredictor,
    "perfect": PerfectPredictor,
}

#: names with a vectorized default-parameter sweep in ``nsweep``
_VECTORIZED = ("combining", "bimodal", "local")


def make_branch_predictor(predictor="combining"):
    """A fresh default-parameter predictor of the given kind."""
    try:
        factory = _FACTORIES[predictor]
    except KeyError:
        raise ValueError("unknown branch predictor %r (expected one of %s)"
                         % (predictor, ", ".join(PREDICTORS)))
    return factory()


class PerPCBranchStat:
    """Dynamic predictor behaviour of one static branch (one PC)."""

    __slots__ = ("pc", "count", "taken", "correct", "warm_correct",
                 "confident", "confident_correct")

    def __init__(self, pc):
        self.pc = pc
        self.count = 0
        self.taken = 0
        self.correct = 0
        #: correct predictions beyond the first PC_WARMUP observations
        self.warm_correct = 0
        self.confident = 0
        self.confident_correct = 0

    def observe(self, taken, correct, confident):
        self.count += 1
        if taken:
            self.taken += 1
        if correct:
            self.correct += 1
            if self.count > PC_WARMUP:
                self.warm_correct += 1
        if confident:
            self.confident += 1
            if correct:
                self.confident_correct += 1

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
    def confident_coverage(self):
        """Fraction of observations both confident and correct."""
        return self.confident_correct / self.count if self.count else 0.0

    def __repr__(self):
        return ("<PerPCBranchStat pc=0x%x n=%d taken=%d acc=%.2f "
                "conf=%d>" % (self.pc, self.count, self.taken,
                              self.accuracy, self.confident))


def _confidence(predictor, pc):
    """Pre-update confidence of ``predictor`` at ``pc``: the counter the
    prediction actually came from sits at a saturation point."""
    if isinstance(predictor, CombiningPredictor):
        if predictor.chooser.is_set(predictor._chooser_index(pc)):
            component = predictor.gshare
        else:
            component = predictor.bimodal
        table = component.table
        value = table.value(component._index(pc))
        return value == 0 or value == table.maximum
    if isinstance(predictor, (BimodalPredictor, GsharePredictor)):
        table = predictor.table
        value = table.value(predictor._index(pc))
        return value == 0 or value == table.maximum
    if isinstance(predictor, LocalHistoryPredictor):
        history = predictor.histories[predictor._history_slot(pc)]
        value = predictor.pht.value(history)
        return value == 0 or value == predictor.pht.maximum
    return False


class BranchRunResult:
    """Per-trace branch prediction outcome.

    Attributes
    ----------
    mispredicted:
        dict mapping trace position -> True for mispredicted conditional
        branches (positions absent for correct predictions keep lookups
        cheap in the scheduler).
    conditional:
        number of conditional branches in the trace.
    correct:
        number predicted correctly.
    confident:
        branches whose chosen counter was saturated pre-prediction.
    confident_correct:
        confident branches that were also predicted correctly — the
        coverage ``lint.branchflow``'s class-capped bound dominates.
    per_pc:
        dict PC -> :class:`PerPCBranchStat` when the run collected
        histograms, else None.
    """

    __slots__ = ("mispredicted", "conditional", "correct", "trace_length",
                 "confident", "confident_correct", "per_pc")

    def __init__(self, mispredicted, conditional, correct, trace_length,
                 confident=0, confident_correct=0, per_pc=None):
        self.mispredicted = mispredicted
        self.conditional = conditional
        self.correct = correct
        self.trace_length = trace_length
        self.confident = confident
        self.confident_correct = confident_correct
        self.per_pc = per_pc

    @property
    def accuracy(self):
        """Fraction of conditional branches predicted correctly
        (Table 2, column 3)."""
        if not self.conditional:
            raise ReproError(
                "branch accuracy is undefined: the trace has no "
                "conditional branches; run the predictor on a trace "
                "with at least one BRC record")
        return self.correct / self.conditional

    @property
    def cond_branch_fraction(self):
        """Conditional branches as a fraction of all instructions
        (Table 2, column 2)."""
        if not self.trace_length:
            raise ReproError(
                "conditional-branch fraction is undefined: the trace "
                "is empty; build the workload at a non-zero scale "
                "before running the predictor")
        return self.conditional / self.trace_length

    def to_payload(self):
        """JSON-safe dict for the disk-cache codec (lossless)."""
        per_pc = None
        if self.per_pc is not None:
            per_pc = {
                str(pc): [stat.count, stat.taken, stat.correct,
                          stat.warm_correct, stat.confident,
                          stat.confident_correct]
                for pc, stat in self.per_pc.items()
            }
        return {
            "mispredicted": sorted(self.mispredicted),
            "conditional": self.conditional,
            "correct": self.correct,
            "trace_length": self.trace_length,
            "confident": self.confident,
            "confident_correct": self.confident_correct,
            "per_pc": per_pc,
        }

    @classmethod
    def from_payload(cls, payload):
        mispredicted = dict.fromkeys(
            (int(p) for p in payload["mispredicted"]), True)
        per_pc = None
        packed = payload.get("per_pc")
        if packed is not None:
            per_pc = {}
            for key, fields in packed.items():
                stat = PerPCBranchStat(int(key))
                (stat.count, stat.taken, stat.correct, stat.warm_correct,
                 stat.confident, stat.confident_correct) = \
                    (int(f) for f in fields)
                per_pc[stat.pc] = stat
        return cls(mispredicted, int(payload["conditional"]),
                   int(payload["correct"]), int(payload["trace_length"]),
                   int(payload.get("confident", 0)),
                   int(payload.get("confident_correct", 0)),
                   per_pc)


def run_branch_predictor(trace, predictor=None, per_pc=False):
    """Predict every conditional branch of ``trace`` in program order.

    ``predictor`` is a predictor instance, one of the names in
    :data:`PREDICTORS`, or None for the default combining scheme.
    Named default-parameter predictors with a vectorized sweep
    (:mod:`repro.bpred.nsweep`) run it; an explicit instance runs the
    sequential loop, since the caller observes its trained state, and
    ``run_branch_predictor(trace, make_branch_predictor(name))`` is a
    sweep's scalar reference.  ``per_pc=True`` additionally collects a
    :class:`PerPCBranchStat` per static branch PC.
    """
    name = None
    if predictor is None:
        name = "combining"
    elif isinstance(predictor, str):
        name = predictor
        if name not in _FACTORIES:
            raise ValueError(
                "unknown branch predictor %r (expected one of %s)"
                % (name, ", ".join(PREDICTORS)))
    if name is not None:
        if name in _VECTORIZED:
            return _run_numpy(trace, name, per_pc)
        predictor = make_branch_predictor(name)
    static = trace.static
    cls = static.cls
    pcs = static.pc
    taken_col = trace.taken
    mispredicted = {}
    conditional = 0
    correct = 0
    confident = 0
    confident_correct = 0
    histograms = {} if per_pc else None
    if isinstance(predictor, PerfectPredictor):
        for position, sidx in enumerate(trace.sidx):
            if cls[sidx] != BRC:
                continue
            conditional += 1
            correct += 1
            if histograms is not None:
                pc = pcs[sidx]
                stat = histograms.get(pc)
                if stat is None:
                    stat = histograms[pc] = PerPCBranchStat(pc)
                stat.observe(taken_col[position], True, False)
        return BranchRunResult({}, conditional, correct, len(trace),
                               per_pc=histograms)
    predict = predictor.predict
    update = predictor.update
    for position, sidx in enumerate(trace.sidx):
        if cls[sidx] != BRC:
            continue
        conditional += 1
        pc = pcs[sidx]
        actual = taken_col[position]
        sure = _confidence(predictor, pc)
        hit = predict(pc) == actual
        if hit:
            correct += 1
        else:
            mispredicted[position] = True
        if sure:
            confident += 1
            if hit:
                confident_correct += 1
        update(pc, actual)
        if histograms is not None:
            stat = histograms.get(pc)
            if stat is None:
                stat = histograms[pc] = PerPCBranchStat(pc)
            stat.observe(actual, hit, sure)
    return BranchRunResult(mispredicted, conditional, correct,
                           len(trace), confident, confident_correct,
                           histograms)


def _run_numpy(trace, name, per_pc):
    """Vectorized pass, byte-identical to the sequential default run."""
    from .nsweep import SWEEPS, _branch_stream, branch_per_pc_sweep

    positions, correct_mask, confident_mask, conditional = \
        SWEEPS[name](trace)
    mispredicted = dict.fromkeys(positions[~correct_mask].tolist(), True)
    result = BranchRunResult(
        mispredicted, conditional, int(correct_mask.sum()), len(trace),
        int(confident_mask.sum()),
        int((confident_mask & correct_mask).sum()))
    if per_pc:
        _, pc, taken = _branch_stream(trace)
        result.per_pc = branch_per_pc_sweep(pc, taken, correct_mask,
                                            confident_mask)
    return result
