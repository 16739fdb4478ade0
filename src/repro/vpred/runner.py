"""Program-order value-prediction pass over a trace.

All loads train the table in program order, producing
timing-independent per-load outcomes the scheduler consumes for the
``value_spec`` extension and config I's squash/replay mode.  The pass
is the load-prediction pass of :mod:`repro.addrpred.runner` run over the
``mem_value`` column instead of ``eff_addr``.

The predictor kinds are ``"last"`` (value locality), ``"stride"`` (the
paper's two-delta table over values; config I's table), ``"fcm"``
(finite-context: the Markov table over values) and ``"hybrid"``
(stride + FCM with a chooser).  With ``per_pc=True`` the pass keeps one
:class:`~repro.addrpred.runner.PerPCStat` histogram per static load PC,
whose *delta changes* the static ``lint.valueflow`` classification
cross-checks its per-site claims against, exactly as ``lint.addrclass``
checks the address histograms.
"""

from ..addrpred.markov import HybridTable, MarkovTable
from ..addrpred.runner import run_load_sweep, run_load_table
from ..addrpred.two_delta import TwoDeltaTable
from .last_value import LastValueTable

#: Predictor kinds the runner accepts.
PREDICTORS = ("last", "stride", "fcm", "hybrid")

_TABLES = {
    "last": LastValueTable,
    "stride": TwoDeltaTable,
    "fcm": MarkovTable,
    "hybrid": HybridTable,
}


def make_value_table(predictor="last"):
    """A fresh default-parameter table of the given predictor kind."""
    try:
        factory = _TABLES[predictor]
    except KeyError:
        raise ValueError("unknown value predictor %r (expected one of %s)"
                         % (predictor, ", ".join(PREDICTORS)))
    return factory()


def run_value_predictor(trace, table=None, predictor="last", per_pc=False):
    """One program-order value-prediction pass over ``trace``.

    ``predictor`` selects the family member when no explicit ``table``
    is given.  ``per_pc=True`` additionally collects a
    :class:`~repro.addrpred.runner.PerPCStat` per static load PC in
    ``result.per_pc``.

    With a default table every kind runs its vectorized sweep
    (:mod:`repro.vpred.nsweep`); an explicit ``table`` runs the
    sequential loop so its trained entries stay observable.
    ``run_value_predictor(trace, make_value_table(kind), predictor=kind)``
    is the sweep's scalar reference.
    """
    if predictor not in PREDICTORS:
        raise ValueError("unknown value predictor %r (expected one of %s)"
                         % (predictor, ", ".join(PREDICTORS)))
    if table is None:
        from .nsweep import SWEEPS
        return run_load_sweep(trace, "mem_value", SWEEPS[predictor],
                              per_pc, predictor)
    return run_load_table(trace, "mem_value", table, per_pc, predictor)
