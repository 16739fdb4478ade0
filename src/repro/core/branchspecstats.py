"""Per-run load-driven branch-speculation statistics (configuration J).

Counts the scheduler's exit-branch resolution events against the static
:class:`~repro.lint.branchflow.BranchPlan`:

- ``exit_branches`` — dynamic executions of plan-covered exit branches
  (every instance, predicted correctly or not);
- ``early_resolved`` — mispredicted plan branches whose governing
  load's value prediction was confident and correct: the branch
  outcome is computable at the load's address-generation time, so the
  fetch fence is waived (Sridhar et al.'s LDBP mechanism);
- ``missed`` — mispredicted plan branches the mechanism could not
  resolve (the governing load's instance was unpredicted or wrongly
  predicted): the normal fence applies.

``early_resolved + missed`` is exactly the mispredicted subset of
``exit_branches``; the sanitizer asserts each waived fence is resolved
exactly once against a prior instance of the plan's governing load.
"""

from ..counters import CounterRecord


class BranchSpecStats(CounterRecord):
    """Load-driven exit-branch behaviour of one simulated run."""

    __slots__ = ("exit_branches", "early_resolved", "missed")


__all__ = ["BranchSpecStats"]
