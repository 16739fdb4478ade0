"""Static dataflow analysis and runtime invariant checking.

Two halves share this package:

- the **static analyzer** (:func:`lint_program` and friends) builds a
  CFG over assembled programs and runs every pass on the declarative
  registry (:func:`register_lint_pass` / :func:`lint_passes`): the
  dataflow checks (uninitialized register reads, dead register writes,
  unreachable code, fallthrough past ``.text``, condition-code def-use)
  and the analyses each speculation mechanism is proved against —
  collapse bound, address/value/branch classes, loop recurrences, the
  may-alias conflict set and access/execute slices.  A pass declares
  its ``repro lint`` table and its static-vs-dynamic check (a
  ``*_cross_check``) on the registry; ``repro lint --list`` prints the
  passes with their flags;
- the **runtime sanitizer** (:class:`SchedulerSanitizer`, CLI flag
  ``--sanitize``) instruments the window scheduler to assert the model
  invariants every cycle and raises :class:`SanitizeError` on any
  violation.

See ``docs/LINT.md`` for the check catalogue and rationale.
"""

from .addrclass import (
    AddressCheck,
    AddressClassification,
    PREDICTABLE_CLASSES,
    check_addr_untracked,
    cross_check,
)
from .analyzer import lint_path, lint_program, lint_source, lint_workload
from .branchflow import (
    ALL_BRANCH_CLASSES,
    BRANCH_COVERAGE_CAP,
    BRANCH_PREDICTABLE_CLASSES,
    BranchflowCheck,
    BranchFlowAnalysis,
    BranchPlan,
    BranchSite,
    branch_class_join,
    branch_class_leq,
    branchflow_cross_check,
)
from .cfg import ControlFlowGraph
from .collapse_bound import (
    CollapseCheck,
    StaticCollapseBound,
    collapse_cross_check,
)
from .cycles import elementary_cycles
from .dae import (
    DAEAnalysis,
    DAECheck,
    DAEPlan,
    dae_cross_check,
    static_signature,
)
from .findings import SEV_ERROR, SEV_WARNING, Finding, LintReport
from .ipcbound import (
    RecurrenceCheck,
    fetch_refined_ipc,
    recurrence_cross_check,
)
from .loops import DominatorTree, Loop, LoopForest
from .memdep import MemDepBound, MemDepCheck, memdep_cross_check
from .recurrence import LoopRecurrence, RecurrenceAnalysis
from .registry import (
    LintCheck,
    LintContext,
    LintPass,
    LintTable,
    lint_passes,
    register_lint_pass,
    unregister_lint_pass,
)
from .sanitize import SanitizeError, SchedulerSanitizer
from .valueflow import (
    VALUE_PREDICTABLE_CLASSES,
    ValueflowCheck,
    ValueFlowAnalysis,
    ValueSite,
    class_join,
    class_leq,
    valueflow_cross_check,
)

__all__ = [
    "AddressCheck",
    "AddressClassification",
    "ALL_BRANCH_CLASSES",
    "BRANCH_COVERAGE_CAP",
    "BRANCH_PREDICTABLE_CLASSES",
    "BranchFlowAnalysis",
    "BranchPlan",
    "BranchSite",
    "BranchflowCheck",
    "CollapseCheck",
    "ControlFlowGraph",
    "DAEAnalysis",
    "DAECheck",
    "DAEPlan",
    "DominatorTree",
    "Finding",
    "LintCheck",
    "LintContext",
    "LintPass",
    "LintReport",
    "LintTable",
    "Loop",
    "LoopForest",
    "LoopRecurrence",
    "MemDepBound",
    "MemDepCheck",
    "PREDICTABLE_CLASSES",
    "RecurrenceAnalysis",
    "RecurrenceCheck",
    "SanitizeError",
    "SchedulerSanitizer",
    "SEV_ERROR",
    "SEV_WARNING",
    "StaticCollapseBound",
    "VALUE_PREDICTABLE_CLASSES",
    "ValueFlowAnalysis",
    "ValueSite",
    "ValueflowCheck",
    "branch_class_join",
    "branch_class_leq",
    "branchflow_cross_check",
    "check_addr_untracked",
    "class_join",
    "class_leq",
    "collapse_cross_check",
    "cross_check",
    "dae_cross_check",
    "elementary_cycles",
    "fetch_refined_ipc",
    "lint_passes",
    "lint_path",
    "lint_program",
    "lint_source",
    "lint_workload",
    "memdep_cross_check",
    "recurrence_cross_check",
    "register_lint_pass",
    "static_signature",
    "unregister_lint_pass",
    "valueflow_cross_check",
]
