"""High-level simulation entry points.

:func:`simulate_trace` is the one path from a (trace, configuration)
pair to a scheduler run: every other caller (``simulate_many``, the
experiment runner and its worker processes, the CLI) goes through it.
:func:`simulate_many` amortises the program-order predictor passes
across several configurations of the same trace — branch prediction and
address prediction are configuration-independent (they run in program
order), so one pass each feeds every machine.
"""

import functools

from ..addrpred.runner import run_address_predictor
from ..bpred.combining import CombiningPredictor
from ..bpred.runner import run_branch_predictor
from ..vpred.runner import run_value_predictor
from .config import LOAD_SPEC_REAL, VALUE_SPEC_REPLAY
from .scheduler import WindowScheduler


def branch_outcomes(trace):
    """Program-order branch-prediction pass for ``trace``."""
    return run_branch_predictor(trace, CombiningPredictor())


def load_outcomes(trace, table=None):
    """Program-order address-prediction pass for ``trace``."""
    return run_address_predictor(trace, table)


def value_outcomes(trace, table=None, predictor="last"):
    """Program-order value-prediction pass (extension).  ``predictor``
    selects the :mod:`repro.vpred` family member ("last", "stride",
    "fcm", "hybrid")."""
    return run_value_predictor(trace, table, predictor=predictor)


def value_predictor_kind(config):
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


def _input(value, used, compute=None):
    """One scheduler input: ``None`` when the config does not use it,
    else ``value`` — called first when it is a zero-argument callable,
    computed by ``compute`` when it is ``None``."""
    if not used:
        return None
    if callable(value):
        return value()
    if value is None and compute is not None:
        return compute()
    return value


def simulate_trace(trace, config, branch_result=None, load_prediction=None,
                   value_prediction=None, sanitize=False, dae_plan=None,
                   branch_plan=None):
    """Simulate ``trace`` on ``config`` and return a ``SimResult``.

    This is the one place a configuration's inputs are chosen: the
    branch pass always, the address pass when ``config.load_spec`` is
    ``"real"``, the value pass (:func:`value_predictor_kind`) when
    ``config.value_spec`` is set, ``dae_plan`` when ``config.dae`` and
    ``branch_plan`` when ``config.branch_spec``.  An input the config
    does not use is ignored.  Each input may be given as the object
    itself, or as a zero-argument callable that is called only when the
    config uses the input — the way memoising callers (the experiment
    runner, :func:`simulate_many`) pass their memo in.  A predictor pass
    left out is computed here; a plan left out is absent (it derives
    from the workload's assembly, not the trace), and the machine then
    degenerates to its base configuration.

    ``dae_plan`` is the static access/execute slicing a ``config.dae``
    machine decouples with (``repro.lint.dae``); ``branch_plan`` the
    load-driven exit-branch contract a ``config.branch_spec`` machine
    resolves with (``repro.lint.branchflow``).  With ``sanitize=True``
    the run carries a scheduler sanitizer that re-checks the model
    invariants and raises :class:`~repro.lint.sanitize.SanitizeError`
    on any violation.
    """
    branch_result = _input(branch_result, True,
                           lambda: branch_outcomes(trace))
    load_prediction = _input(load_prediction,
                             config.load_spec == LOAD_SPEC_REAL,
                             lambda: load_outcomes(trace))
    value_prediction = _input(
        value_prediction, config.value_spec,
        lambda: value_outcomes(trace,
                               predictor=value_predictor_kind(config)))
    dae_plan = _input(dae_plan, config.dae)
    branch_plan = _input(branch_plan, config.branch_spec)
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
    passes: each pass runs once, for the first configuration that uses
    it.  Returns a list of ``SimResult`` in the order of ``configs``.
    """
    once = functools.lru_cache(maxsize=None)
    branch = once(lambda: branch_outcomes(trace))
    loads = once(lambda: load_outcomes(trace))
    values = once(lambda kind: value_outcomes(trace, predictor=kind))
    return [simulate_trace(trace, config, branch_result=branch,
                           load_prediction=loads,
                           value_prediction=lambda config=config:
                           values(value_predictor_kind(config)),
                           sanitize=sanitize, dae_plan=dae_plan,
                           branch_plan=branch_plan)
            for config in configs]
