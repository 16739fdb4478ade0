"""High-level simulation entry points.

:func:`simulate_trace` runs one (trace, configuration) pair, computing the
program-order predictor passes on demand; :func:`simulate_many` amortises
those passes across several configurations of the same trace — branch
prediction and address prediction are configuration-independent (they run
in program order), so one pass each feeds every machine.
"""

from ..addrpred.runner import run_address_predictor
from ..bpred.combining import CombiningPredictor, PerfectPredictor
from ..bpred.runner import run_branch_predictor
from ..vpred.runner import run_value_predictor
from .config import LOAD_SPEC_REAL, VALUE_SPEC_REPLAY
from .scheduler import WindowScheduler


def branch_outcomes(trace, perfect=False):
    """Program-order branch-prediction pass for ``trace``."""
    predictor = PerfectPredictor() if perfect else CombiningPredictor()
    return run_branch_predictor(trace, predictor)


def load_outcomes(trace, table=None):
    """Program-order address-prediction pass for ``trace``."""
    return run_address_predictor(trace, table)


def value_outcomes(trace, table=None, predictor="last"):
    """Program-order value-prediction pass (extension).  ``predictor``
    selects the :mod:`repro.vpred` family member ("last", "stride",
    "fcm", "hybrid")."""
    return run_value_predictor(trace, table, predictor=predictor)


def _value_predictor_kind(config):
    """Config I speculates on the confident *stride* predictor — the
    mechanism the valueflow lint statically bounds; the oracle mode
    (``value_spec=True``) keeps the original last-value pass."""
    return "stride" if config.value_spec == VALUE_SPEC_REPLAY else "last"


def make_sanitizer(trace, config, branch_result=None, dae_plan=None,
                   branch_plan=None):
    """Build a :class:`~repro.lint.sanitize.SchedulerSanitizer` for one
    (trace, config, branch outcome) triple."""
    from ..lint.sanitize import SchedulerSanitizer
    mispredicted = branch_result.mispredicted if branch_result is not None \
        else {}
    return SchedulerSanitizer(trace, config, mispredicted,
                              dae_plan=dae_plan, branch_plan=branch_plan)


def simulate_trace(trace, config, branch_result=None, load_prediction=None,
                   value_prediction=None, sanitize=False, dae_plan=None,
                   branch_plan=None):
    """Simulate ``trace`` on ``config`` and return a ``SimResult``.

    With ``sanitize=True`` the run carries a scheduler sanitizer that
    re-checks the model invariants and raises
    :class:`~repro.lint.sanitize.SanitizeError` on any violation.
    ``dae_plan`` supplies the static access/execute slices a
    ``config.dae`` machine decouples with (``repro.lint.dae``);
    ``branch_plan`` the load-driven exit-branch contract a
    ``config.branch_spec`` machine resolves with
    (``repro.lint.branchflow``).
    """
    if branch_result is None:
        branch_result = branch_outcomes(trace,
                                        perfect=config.perfect_branches)
    if load_prediction is None and config.load_spec == LOAD_SPEC_REAL:
        load_prediction = load_outcomes(trace)
    if value_prediction is None and config.value_spec:
        value_prediction = value_outcomes(
            trace, predictor=_value_predictor_kind(config))
    sanitizer = make_sanitizer(trace, config, branch_result,
                               dae_plan=dae_plan,
                               branch_plan=branch_plan) if sanitize \
        else None
    scheduler = WindowScheduler(trace, config, branch_result,
                                load_prediction, value_prediction,
                                sanitizer=sanitizer, dae_plan=dae_plan,
                                branch_plan=branch_plan)
    return scheduler.run()


def simulate_many(trace, configs, sanitize=False, dae_plan=None,
                  branch_plan=None):
    """Simulate ``trace`` on several configurations, sharing predictor
    passes.  Returns a list of ``SimResult`` in the order of ``configs``.
    """
    configs = list(configs)
    real_branch = None
    perfect_branch = None
    load_prediction = None
    value_predictions = {}      # predictor kind -> program-order pass
    results = []
    for config in configs:
        if config.perfect_branches:
            if perfect_branch is None:
                perfect_branch = branch_outcomes(trace, perfect=True)
            branch_result = perfect_branch
        else:
            if real_branch is None:
                real_branch = branch_outcomes(trace)
            branch_result = real_branch
        prediction = None
        if config.load_spec == LOAD_SPEC_REAL:
            if load_prediction is None:
                load_prediction = load_outcomes(trace)
            prediction = load_prediction
        vpred = None
        if config.value_spec:
            kind = _value_predictor_kind(config)
            if kind not in value_predictions:
                value_predictions[kind] = value_outcomes(trace,
                                                         predictor=kind)
            vpred = value_predictions[kind]
        results.append(simulate_trace(trace, config,
                                      branch_result=branch_result,
                                      load_prediction=prediction,
                                      value_prediction=vpred,
                                      sanitize=sanitize,
                                      dae_plan=dae_plan
                                      if config.dae else None,
                                      branch_plan=branch_plan
                                      if config.branch_spec else None))
    return results
