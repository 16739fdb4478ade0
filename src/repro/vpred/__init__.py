"""Load-value prediction (extension; paper Figure 1.d, citing [9]).

Value prediction runs the load-prediction pass of :mod:`repro.addrpred`
over the values loads return instead of their addresses.  The only
value-specific table is last-value (:mod:`.last_value`); the
``"stride"``, ``"fcm"`` and ``"hybrid"`` kinds are the shared two-delta,
Markov and hybrid tables.  Config I consumes the stride kind's
outcomes; ``lint.valueflow`` statically upper-bounds its confident
coverage.
"""

from .last_value import LastValueEntry, LastValueTable
from .runner import PREDICTORS, make_value_table, run_value_predictor

__all__ = ["LastValueEntry", "LastValueTable", "PREDICTORS",
           "make_value_table", "run_value_predictor"]
