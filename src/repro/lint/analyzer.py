"""Lint driver: run every registered pass over a program, source text,
file or registered workload and collect a :class:`LintReport`.

Passes live on the declarative registry (:mod:`repro.lint.registry`):
the driver builds the CFG once, wraps it in a
:class:`~repro.lint.registry.LintContext` and iterates
:func:`~repro.lint.registry.lint_passes` in order, so a new analysis
only has to call :func:`~repro.lint.registry.register_lint_pass` to
appear in ``repro lint`` / ``--all`` output.  Each built-in pass below
declares its ``repro lint`` table and its check next to its
registration.

An assembly failure is itself a located finding (check ``assemble``)
rather than an exception, so ``repro lint`` reports broken files in the
same ``file:line`` format as semantic findings.
"""

from ..addrpred import run_address_predictor
from ..asm.assembler import assemble
from ..errors import AssemblyError
from .addrclass import (
    AddressClassification,
    check_addr_untracked,
    cross_check,
)
from .branchflow import BranchFlowAnalysis, branchflow_cross_check
from .cfg import ControlFlowGraph
from .collapse_bound import StaticCollapseBound, collapse_cross_check
from .dae import DAEAnalysis, dae_cross_check
from .dataflow import (
    check_assignment,
    check_dead_results,
    check_off_end,
    check_unreachable,
)
from .findings import Finding, LintReport
from .ipcbound import SIM_GRAPHS, SIM_LETTERS, recurrence_cross_check
from .memdep import MemDepBound, memdep_cross_check
from .recurrence import VARIANTS, RecurrenceAnalysis
from .registry import (
    LintCheck,
    LintContext,
    LintTable,
    lint_passes,
    register_lint_pass,
)
from .valueflow import ValueFlowAnalysis, valueflow_cross_check

# Each check's ``run(report, runner, name, width)`` calls its
# ``*_cross_check`` through this module's global name at call time, so
# a rebinding of that name (e.g. a profiling wrapper) takes effect.


def _verdict(check):
    return "ok" if check.ok else "FAILED"


def _class_counts(label):
    """Table footer listing an analysis's nonzero class counts."""
    def footer(analysis):
        return "  %s classes: " % (label,) + "  ".join(
            "%s %d" % (cls, n)
            for cls, n in analysis.class_counts().items() if n)
    return footer


@register_lint_pass("dataflow", "register/cc dataflow checks", order=10)
def _pass_dataflow(ctx):
    findings = []
    for check in (check_unreachable, check_off_end, check_assignment,
                  check_dead_results, check_addr_untracked):
        findings.extend(check(ctx.program, ctx.cfg, file=ctx.file))
    return findings


def _check_collapse(report, runner, name, width):
    return collapse_cross_check(report.analyses["collapse-bound"],
                                runner.trace(name),
                                runner.result(name, "C", width))


def _collapse_lines(name, check, width):
    return ["  cross-check %s: static bound %d %s dynamic events %d "
            "(C/%d, sanitized)"
            % (name, check.bound, ">=" if check.ok else "<",
               check.events, width)]


@register_lint_pass(
    "collapse-bound", "static collapse opportunities", order=20,
    table=LintTable(
        "--bounds", "print the static collapse-opportunity table",
        ["index", "line", "signature", "arcs", "bound"],
        "static collapse opportunities",
        footer=lambda bound: "  static per-execution bound: %d collapse "
                             "events" % (bound.static_bound,)),
    check=LintCheck(
        "--cross-check", "simulate workload targets and verify the "
                         "static collapse bound >= dynamic events",
        8, _check_collapse, _collapse_lines))
def _pass_collapse_bound(ctx):
    ctx.publish(StaticCollapseBound(ctx.program, cfg=ctx.cfg))


def _check_addr(report, runner, name, width):
    trace = runner.trace(name)
    return cross_check(report.analyses["addr-class"], trace,
                       run_address_predictor(trace, per_pc=True))


def _addr_lines(name, check, width):
    return ["  addr-check %s: %s — %d sites checked (%d aliased, %d "
            "short), coverage bound %.3f %s dynamic %.3f, steady "
            "accuracy %.3f"
            % (name, _verdict(check), check.checked_sites,
               check.skipped_aliased, check.skipped_short,
               check.coverage_bound,
               ">=" if check.coverage_bound >= check.dynamic_coverage
               else "<", check.dynamic_coverage, check.steady_accuracy)]


@register_lint_pass(
    "addr-class", "load address classification", order=30,
    table=LintTable(
        "--addr", "print the per-load address-class table "
                  "(loop/induction-variable pass)",
        ["index", "line", "class", "stride", "loop line", "depth"],
        "load address classes", footer=_class_counts("address")),
    check=LintCheck(
        "--addr-check", "run the two-delta predictor per PC on workload "
                        "targets and verify the static address "
                        "classification",
        None, _check_addr, _addr_lines))
def _pass_addr_class(ctx):
    ctx.publish(AddressClassification(ctx.program, ctx.cfg))


def _check_value(report, runner, name, width):
    return valueflow_cross_check(
        report.analyses["valueflow"], runner.trace(name),
        recurrence=report.analyses["recurrence"],
        sim_ipc=runner.result(name, "I", width).ipc, widest=width)


def _value_lines(name, check, width):
    lines = ["  value-check %s: %s — %d predictable load sites checked "
             "(%d aliased, %d short skipped), coverage bound %.3f >= "
             "dynamic %.3f, steady accuracy %.3f"
             % (name, _verdict(check), check.checked_sites,
                check.skipped_aliased, check.skipped_short,
                check.coverage_bound, check.dynamic_coverage,
                check.steady_accuracy)]
    if check.sim_ipc is not None:
        bound = ("%.2f" % check.static_bound
                 if check.static_bound is not None else "inf")
        lines.append("    V: static ceiling %s IPC >= graph-V %.2f IPC >= "
                     "simulated I %.2f IPC (width %d, %d runs)"
                     % (bound, check.graph_ipc, check.sim_ipc,
                        check.widest, check.runs_checked))
    return lines


@register_lint_pass(
    "valueflow", "result-value predictability", order=35,
    table=LintTable(
        "--value", "print the per-instruction result-value class table "
                   "(valueflow pass)",
        ["index", "line", "class", "stride/k", "loop line", "depth"],
        "result-value classes", footer=_class_counts("value")),
    check=LintCheck(
        "--value-check", "run the stride value predictor per PC on "
                         "workload targets and verify the static "
                         "classification plus the variant-V chain "
                         "static ceiling >= graph V >= simulated "
                         "config I (exit 2 on violation)",
        2048, _check_value, _value_lines))
def _pass_valueflow(ctx):
    classes = ctx.report.analyses["addr-class"]
    ctx.publish(ValueFlowAnalysis(ctx.program, values=classes.values))


def _check_recur(report, runner, name, width):
    sim_ipcs = {variant: runner.result(name, letter, width).ipc
                for variant, letter in SIM_LETTERS.items()}
    return recurrence_cross_check(report.analyses["recurrence"],
                                  runner.trace(name), sim_ipcs=sim_ipcs,
                                  widest=width)


def _recur_lines(name, check, width):
    lines = ["  recur-check %s: %s — %d loops, %d runs checked "
             "(width %d)"
             % (name, _verdict(check), check.loops_checked,
                check.runs_checked, check.widest)]
    for variant in VARIANTS:
        bound = check.static_bound[variant]
        line = ("    %s: static floor %d cycles, bound %s IPC >= "
                "dataflow %.2f IPC"
                % (variant, check.static_floor[variant],
                   "%.2f" % bound if bound is not None else "inf",
                   check.ipc[variant]))
        sim = check.sim.get(variant)
        if sim is not None:
            key = SIM_GRAPHS[variant]
            if key != variant:
                line += "; ideal-cut %.2f IPC" % (check.ipc[key],)
            line += (" >= simulated %s %.2f IPC"
                     % (SIM_LETTERS[variant], sim))
        lines.append(line)
    return lines


@register_lint_pass(
    "recurrence", "loop recurrence (recMII) bounds", order=40,
    table=LintTable(
        "--recur", "print the per-loop recurrence (recMII) table for the "
                   "base / collapsed / d-speculated graph variants",
        ["line", "body", "nodes", "cycles",
         "recMII A", "recMII C", "recMII E", "recMII V",
         "ceil A", "ceil C", "ceil E", "ceil V", "note"],
        "loop recurrence bounds",
        empty="  no innermost reducible loops to bound"),
    check=LintCheck(
        "--recur-check", "verify the static recurrence bounds against "
                         "the trace dependence graphs and the simulated "
                         "machines (exit 2 on violation)",
        2048, _check_recur, _recur_lines))
def _pass_recurrence(ctx):
    analyses = ctx.report.analyses
    recurrence = ctx.publish(RecurrenceAnalysis(
        ctx.program, classes=analyses["addr-class"],
        valueflow=analyses["valueflow"]))
    return recurrence.findings(file=ctx.file)


def _check_branch(report, runner, name, width):
    sims = {letter: runner.result(name, letter, width)
            for letter in ("C", "I", "J")}
    return branchflow_cross_check(report.analyses["branchflow"],
                                  runner.trace(name), sim_results=sims)


def _branch_lines(name, check, width):
    lines = ["  branch-check %s: %s — %d sites, %d trip floors checked, "
             "coverage bound %.3f %s confident %.3f, ceiling %.4f %s "
             "accuracy %.4f"
             % (name, _verdict(check), check.sites,
                check.floors_checked, check.coverage_bound,
                ">=" if check.coverage_bound >= check.confident_coverage
                else "<", check.confident_coverage, check.ceiling,
                ">=" if check.ceiling >= check.accuracy else "<",
                check.accuracy)]
    if check.early_coverage is not None:
        sim_i = check.sim.get("I")
        sim_j = check.sim.get("J")
        lines.append("    J: %d plan branches, early coverage %.4f <= "
                     "accuracy; cycles J %d <= I %d (width %d, fetch "
                     "floor %d)"
                     % (check.plan_branches, check.early_coverage,
                        sim_j.cycles if sim_j is not None else -1,
                        sim_i.cycles if sim_i is not None else -1,
                        width, check.floor))
    return lines


@register_lint_pass(
    "branchflow", "branch predictability", order=45,
    table=LintTable(
        "--branch", "print the per-branch predictability table (trip / "
                    "exit / invariant / periodic / history / load / "
                    "straight / unknown)",
        ["index", "line", "class", "trip", "period", "exit", "load",
         "note"],
        "branch predictability classes", footer=_class_counts("branch")),
    check=LintCheck(
        "--branch-check", "verify trip floors, class-capped coverage and "
                          "the accuracy ceiling against per-PC "
                          "combining histograms plus a config-J "
                          "(load-driven exit-branch) simulation (exit 2 "
                          "on violation)",
        2048, _check_branch, _branch_lines))
def _pass_branchflow(ctx):
    ctx.publish(BranchFlowAnalysis(
        ctx.program, addr_classes=ctx.report.analyses["addr-class"]))


def _check_memdep(report, runner, name, width):
    return memdep_cross_check(report.analyses["memdep"],
                              runner.trace(name),
                              runner.result(name, "F", width))


def _memdep_lines(name, check, width):
    return ["  memdep-check %s: %s — static conflict pairs %d %s "
            "distinct dynamic pairs %d (%d MDPT-learned, %d violations, "
            "F/%d, sanitized)"
            % (name, _verdict(check), check.static_pairs,
               ">=" if check.static_pairs >= check.dynamic_pairs else "<",
               check.dynamic_pairs, check.mdpt_pairs,
               check.mdpt_violations, width)]


@register_lint_pass(
    "memdep", "may-alias conflict pairs", order=50,
    table=LintTable(
        "--memdep", "print the per-reference may-alias table (bounded "
                    "congruence address forms)",
        ["index", "line", "kind", "anchor", "mod", "lo", "hi",
         "conflicts"],
        "memory references and may-alias conflicts",
        footer=lambda bound: "  conflict pairs: %d of %d load x store"
                             % (bound.conflict_count, bound.pair_count)),
    check=LintCheck(
        "--memdep-check", "verify the static may-alias conflict set "
                          "against trace store->load dependences and an "
                          "MDPT (config F) simulation (exit 2 on "
                          "violation)",
        8, _check_memdep, _memdep_lines))
def _pass_memdep(ctx):
    classes = ctx.report.analyses["addr-class"]
    ctx.publish(MemDepBound(ctx.program, values=classes.values))


def _check_dae(report, runner, name, width):
    return dae_cross_check(report.analyses["dae"], runner.trace(name),
                           runner.result(name, "H", width))


def _dae_lines(name, check, width):
    return ["  dae-check %s: %s — %d loops (%d clean, %d queued, %d "
            "chase-poisoned, %d skipped), peak queue %d, %d enqueued / "
            "%d popped, %d chase deps on coupled loops (H/%d, sanitized)"
            % (name, _verdict(check), check.loops_checked,
               check.clean_loops, check.queued_loops,
               check.poisoned_loops, check.skipped_loops, check.peak,
               check.enqueued, check.popped, check.chase_deps, width)]


@register_lint_pass(
    "dae", "access/execute loop slicing", order=60,
    table=LintTable(
        "--dae", "print the per-loop access/execute slice table (clean / "
                 "chase-poisoned / skipped)",
        ["line", "body", "loads", "verdict", "access", "frac",
         "boundary", "recMII acc", "recMII body", "depth", "note"],
        "access/execute loop slices",
        empty="  no innermost reducible loops to slice"),
    check=LintCheck(
        "--dae-check", "simulate configuration H with the static "
                       "decoupling plan and verify clean loops never "
                       "chase plus queue occupancy within the static "
                       "depth bound (exit 2 on violation)",
        8, _check_dae, _dae_lines))
def _pass_dae(ctx):
    dae = ctx.publish(DAEAnalysis(
        ctx.program, recurrence=ctx.report.analyses["recurrence"]))
    return dae.findings(file=ctx.file)


def lint_program(program, target="<program>"):
    """Run all registered passes over an assembled program."""
    cfg = ControlFlowGraph(program)
    report = LintReport(target, [])
    report.instructions = cfg.n
    report.blocks = len(cfg.leaders)
    ctx = LintContext(program, cfg, target, report)
    for lint_pass in lint_passes():
        found = lint_pass.run(ctx)
        if found:
            report.extend(found)
    return report


def lint_source(text, target="<source>"):
    """Assemble source text and lint it; assembly errors become
    findings."""
    try:
        program = assemble(text)
    except AssemblyError as exc:
        report = LintReport(target, [Finding(
            "assemble", exc.bare_message, file=target, line=exc.line)])
        return report
    return lint_program(program, target=target)


def lint_path(path):
    """Lint one ``.s`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return lint_source(text, target=str(path))


def lint_workload(name, scale=0.05):
    """Lint the assembly a registered workload generates at ``scale``."""
    from ..workloads.registry import get_workload
    workload = get_workload(name)
    program = workload.build(scale=scale)
    return lint_program(program, target="<workload:%s>" % (name,))


__all__ = ["lint_program", "lint_source", "lint_path", "lint_workload"]
