"""Command-line interface: ``python -m repro <command>``.

Commands
--------

list
    Show the workload suite with characteristics.
trace WORKLOAD -o FILE
    Generate (and self-validate) a workload trace, save it in the binary
    trace format.
stats TARGET
    Print trace statistics and the dynamic signature mix for a workload
    name or a saved trace file.
disasm WORKLOAD
    Print the assembled kernel.
simulate WORKLOAD
    Run one machine configuration and print the full result breakdown.
sweep WORKLOAD
    Run every registered configuration (A-H) across issue widths and
    print the IPC table.
    ``--jobs N`` fans the grid out over worker processes and
    ``--cache-dir PATH`` persists traces/results across invocations.
report
    Regenerate EXPERIMENTS.md (all paper exhibits).  Supports the same
    ``--jobs``/``--cache-dir`` flags plus ``--profile`` for a per-cell
    timing and cache-hit table (see docs/PERFORMANCE.md).
lint TARGET...
    Static dataflow analysis (docs/LINT.md) of workload kernels or
    ``.s`` files: uninitialized reads, dead register writes, unreachable
    code, missing condition-code setters, fallthrough past ``.text``,
    untracked load addresses.  Exits non-zero when any finding is
    reported.  ``--cross-check`` additionally simulates each workload
    target and verifies the static collapse upper bound against the
    dynamic collapse count.  ``--addr`` prints the per-load address
    classification (loop/induction-variable pass, docs/LINT.md);
    ``--addr-check`` runs the two-delta predictor with per-PC
    histograms over each workload target and verifies the static
    classification: predictable sites must satisfy the re-lock miss
    bound and their delta-change budget, and the static coverage bound
    must dominate the dynamic predictor coverage.  ``--memdep`` prints
    the per-reference may-alias table; ``--memdep-check`` verifies the
    static conflict set against the trace's store->load dependences
    and an MDPT (config F) simulation.  ``--dae`` prints the per-loop
    access/execute slice table (clean / chase-poisoned / skipped,
    access fraction, queue depth bound); ``--dae-check`` simulates
    configuration H with the static decoupling plan and verifies that
    statically-clean loops never incur a dynamic chase dependence and
    that peak queue occupancy stays within the static depth bound
    (exit 2 on violation).

``simulate`` and ``report`` accept ``--sanitize`` to attach the
scheduler invariant checker to every simulation they perform.
"""

import argparse
import os
import sys

from .collapse import CollapseRules
from .core import MachineConfig, config_letters, paper_config, \
    simulate_many, simulate_trace
from .metrics import render_table
from .trace import TraceStats, load_trace, save_trace, signature_mix
from .workloads import SUITE, WORKLOADS, get_workload


def _load_target(target, scale):
    """A workload name or a path to a saved trace.

    Registered workload names always win: a stray file in the current
    directory named like a workload (e.g. ``compress``) must not shadow
    the workload and be parsed as a trace file.  Anything that is not a
    registered name is treated as a path; a target that is neither fails
    with the workload lookup's actionable error.
    """
    if target in WORKLOADS:
        return get_workload(target).trace(scale=scale)
    if os.path.exists(target):
        return load_trace(target)
    return get_workload(target).trace(scale=scale)


def cmd_list(args):
    suite_names = {workload.name for workload in SUITE}
    rows = []
    for workload in list(SUITE) + [WORKLOADS[name]
                                   for name in sorted(WORKLOADS)
                                   if name not in suite_names]:
        rows.append([workload.name,
                     "suite" if workload.name in suite_names else "extra",
                     "yes" if workload.pointer_chasing else "no",
                     workload.nominal_length,
                     workload.description])
    print(render_table(
        ["name", "set", "pointer chasing", "~dyn length @1.0",
         "description"],
        rows, title="registered workloads (suite = paper Table 1)"))
    return 0


def cmd_trace(args):
    workload = get_workload(args.workload)
    trace = workload.trace(scale=args.scale)
    save_trace(trace, args.output)
    print("wrote %s (%d instructions, validated)"
          % (args.output, len(trace)))
    return 0


def cmd_stats(args):
    trace = _load_target(args.target, args.scale)
    stats = TraceStats(trace)
    rows = [[key, value] for key, value in stats.summary_row().items()]
    print(render_table(["property", "value"], rows,
                       title="trace statistics: %s" % (trace.name,)))
    print()
    mix_rows = [[sig, 100.0 * share]
                for sig, share in signature_mix(trace, top=12)]
    print(render_table(["signature", "share (%)"], mix_rows,
                       title="dynamic signature mix"))
    if args.addr_pred:
        from .addrpred import run_address_predictor
        result = run_address_predictor(trace, per_pc=True)
        stats_by_count = sorted(result.per_pc.values(),
                                key=lambda s: -s.count)
        rows = [["0x%x" % stat.pc, stat.count,
                 100.0 * stat.accuracy, 100.0 * stat.steady_accuracy,
                 100.0 * stat.coverage, stat.delta_changes]
                for stat in stats_by_count[:16]]
        print()
        print(render_table(
            ["pc", "loads", "acc (%)", "steady (%)", "cov (%)",
             "delta changes"],
            rows, title="per-PC two-delta predictor stats (top 16)"))
        print("loads %d  raw accuracy %.3f  steady accuracy %.3f "
              "(%d cold first accesses excluded)"
              % (result.loads, result.raw_accuracy,
                 result.steady_accuracy, result.first_misses))
    return 0


def cmd_disasm(args):
    program = get_workload(args.workload).build(scale=args.scale)
    lines = program.disassemble()
    limit = args.limit or len(lines)
    for line in lines[:limit]:
        print(line)
    if limit < len(lines):
        print("... (%d more instructions)" % (len(lines) - limit,))
    return 0


def _build_config(args):
    if args.config:
        config = paper_config(args.config, args.width)
        if args.elim or args.vspec:
            rules = config.collapse_rules
            config = MachineConfig(
                args.width, collapse_rules=rules,
                load_spec=config.load_spec,
                node_elimination=args.elim, value_spec=args.vspec,
                name=config.name + ("+elim" if args.elim else "")
                + ("+vspec" if args.vspec else ""))
        return config
    rules = CollapseRules.paper() if args.collapse or args.elim else None
    return MachineConfig(args.width, collapse_rules=rules,
                         load_spec=args.load_spec,
                         node_elimination=args.elim,
                         value_spec=args.vspec)


def cmd_simulate(args):
    trace = _load_target(args.workload, args.scale)
    config = _build_config(args)
    dae_plan = None
    if config.dae and args.workload in WORKLOADS:
        from .workloads import cached_dae_plan
        dae_plan = cached_dae_plan(args.workload, args.scale)
    branch_plan = None
    if config.branch_spec and args.workload in WORKLOADS:
        from .workloads import cached_branch_plan
        branch_plan = cached_branch_plan(args.workload, args.scale)
    result = simulate_trace(trace, config, sanitize=args.sanitize,
                            dae_plan=dae_plan, branch_plan=branch_plan)
    print("%s on %s" % (config.name, trace.name))
    if args.sanitize:
        print("  sanitize     : ok (model invariants held)")
    print("  instructions : %d" % result.instructions)
    print("  cycles       : %d" % result.cycles)
    print("  IPC          : %.3f" % result.ipc)
    if result.branch is not None and result.branch.conditional:
        print("  branch acc.  : %.1f%%" % (100 * result.branch.accuracy))
    if result.loads.total:
        fractions = result.loads.fractions()
        print("  loads        : " + "  ".join(
            "%s %.1f%%" % (cat, 100 * frac)
            for cat, frac in fractions.items()))
    if config.collapsing:
        stats = result.collapse
        print("  collapses    : %d events, %.1f%% of instructions"
              % (stats.events, 100 * stats.collapsed_fraction))
        if config.node_elimination:
            print("  eliminated   : %d instructions" % stats.eliminated)
    if result.dae is not None:
        dae = result.dae
        print("  decoupled    : %d access ops bypassed, %d queued "
              "(peak occupancy %d), %d chase deps on coupled loops"
              % (dae.bypassed, dae.enqueued, dae.peak, dae.chase_deps))
    if result.branch_spec is not None:
        bspec = result.branch_spec
        print("  exit branches: %d planned, %d resolved at "
              "address-generation time, %d fences kept"
              % (bspec.exit_branches, bspec.early_resolved,
                 bspec.missed))
    return 0


def cmd_sweep(args):
    widths = [int(w) for w in args.widths.split(",")]
    letters = config_letters()
    headers = ["width"] + list(letters)
    rows = []
    profile = None
    if args.workload in WORKLOADS:
        # Registered workloads go through the parallel, disk-cached
        # engine; cells come back in input order so rows are identical
        # to the serial path.
        from .experiments.parallel import run_cells
        cells = [(args.workload, letter, width)
                 for width in widths for letter in letters]
        results, profile = run_cells(
            cells, args.scale, jobs=args.jobs, cache_dir=args.cache_dir,
            progress=True if args.jobs > 1 else None)
        name = args.workload
        stride = len(letters)
        for index, width in enumerate(widths):
            per_width = results[index * stride:(index + 1) * stride]
            rows.append([width] + [result.ipc for result in per_width])
    else:
        trace = _load_target(args.workload, args.scale)
        name = trace.name
        for width in widths:
            configs = [paper_config(letter, width) for letter in letters]
            results = simulate_many(trace, configs)
            rows.append([width] + [result.ipc for result in results])
    print(render_table(headers, rows,
                       title="IPC sweep on %s" % (name,)))
    if profile is not None and (args.jobs > 1 or args.cache_dir):
        print(profile.summary_line())
    return 0


def cmd_report(args):
    from .experiments.report import main as report_main
    argv = [str(args.scale), args.output, "--jobs", str(args.jobs)]
    if args.cache_dir:
        argv += ["--cache-dir", args.cache_dir]
    if args.profile:
        argv.append("--profile")
    if args.sanitize:
        argv.append("--sanitize")
    report_main(argv)
    return 0


def _lint_cross_check(name, report, scale):
    """Simulate the workload and verify the static collapse bound."""
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    config = paper_config("C", 8)
    result = simulate_trace(trace, config, sanitize=True)
    bound = report.collapse_bound.bound_for_trace(trace)
    ok = bound >= result.collapse.events
    print("  cross-check %s: static bound %d %s dynamic events %d "
          "(C/8, sanitized)"
          % (name, bound, ">=" if ok else "<", result.collapse.events))
    return ok


def _lint_addr_check(name, report, scale):
    """Run the per-PC predictor and verify the address classification."""
    from .addrpred import run_address_predictor
    from .lint import cross_check
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    result = run_address_predictor(trace, per_pc=True)
    check = cross_check(report.addr_classes, trace, result)
    print("  addr-check %s: %s — %d sites checked (%d aliased, %d "
          "short), coverage bound %.3f %s dynamic %.3f, steady "
          "accuracy %.3f"
          % (name, "ok" if check.ok else "FAILED", check.checked_sites,
             check.skipped_aliased, check.skipped_short,
             check.coverage_bound,
             ">=" if check.coverage_bound >= check.dynamic_coverage
             else "<", check.dynamic_coverage, check.steady_accuracy))
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_memdep_check(name, report, scale):
    """Replay the trace's store->load dependences and an MDPT (config
    F) simulation against the static may-alias conflict set."""
    from .lint import memdep_cross_check
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    config = paper_config("F", 8)
    result = simulate_trace(trace, config, sanitize=True)
    check = memdep_cross_check(report.memdep_bound, trace, result)
    memdep = result.memdep
    print("  memdep-check %s: %s — static conflict pairs %d %s "
          "distinct dynamic pairs %d (%d MDPT-learned, %d violations, "
          "F/8, sanitized)"
          % (name, "ok" if check.ok else "FAILED", check.static_pairs,
             ">=" if check.static_pairs >= check.dynamic_pairs else "<",
             check.dynamic_pairs, check.mdpt_pairs,
             memdep.violations if memdep is not None else 0))
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_recur_check(name, report, scale, widest=2048):
    """Verify the static recurrence bounds against the dynamic
    dependence graphs and the simulated machines (soundness chain:
    static <= dynamic growth, static IPC bound >= dataflow IPC >=
    simulated IPC at the widest machine)."""
    from .lint import recurrence_cross_check
    from .lint.recurrence import VARIANTS
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    check = recurrence_cross_check(report.recurrence, trace,
                                   widest=widest)
    print("  recur-check %s: %s — %d loops, %d runs checked "
          "(width %d)"
          % (name, "ok" if check.ok else "FAILED",
             check.loops_checked, check.runs_checked, check.widest))
    from .lint.ipcbound import SIM_LETTERS
    graph_keys = {"A": "A", "C": "C", "E": "E_ideal", "V": "V"}
    for variant in VARIANTS:
        bound = check.static_bound[variant]
        line = ("    %s: static floor %d cycles, bound %s IPC >= "
                "dataflow %.2f IPC"
                % (variant, check.static_floor[variant],
                   "%.2f" % bound if bound is not None else "inf",
                   check.ipc[variant]))
        sim = check.sim.get(variant)
        if sim is not None:
            key = graph_keys[variant]
            if key != variant:
                line += "; ideal-cut %.2f IPC" % (check.ipc[key],)
            line += (" >= simulated %s %.2f IPC"
                     % (SIM_LETTERS[variant], sim))
        print(line)
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_value_check(name, report, scale, widest=2048):
    """Verify the static value classification against the per-PC
    stride-predictor histograms and the variant-V soundness chain
    (static ceiling >= graph-V dataflow IPC >= simulated config I)."""
    from .lint import valueflow_cross_check
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    check = valueflow_cross_check(report.valueflow, trace,
                                  recurrence=report.recurrence,
                                  widest=widest)
    print("  value-check %s: %s — %d predictable load sites checked "
          "(%d aliased, %d short skipped), coverage bound %.3f >= "
          "dynamic %.3f, steady accuracy %.3f"
          % (name, "ok" if check.ok else "FAILED", check.checked_sites,
             check.skipped_aliased, check.skipped_short,
             check.coverage_bound, check.dynamic_coverage,
             check.steady_accuracy))
    if check.sim_ipc is not None:
        bound = ("%.2f" % check.static_bound
                 if check.static_bound is not None else "inf")
        print("    V: static ceiling %s IPC >= graph-V %.2f IPC >= "
              "simulated I %.2f IPC (width %d, %d runs)"
              % (bound, check.graph_ipc, check.sim_ipc, check.widest,
                 check.runs_checked))
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_dae_check(name, report, scale):
    """Simulate configuration H with the static decoupling plan and
    verify the slice <-> occupancy invariants."""
    from .lint import dae_cross_check
    from .workloads import cached_dae_plan, cached_trace
    trace = cached_trace(name, scale)
    plan = cached_dae_plan(name, scale)
    result = simulate_trace(trace, paper_config("H", 8), sanitize=True,
                            dae_plan=plan)
    check = dae_cross_check(report.dae, trace, result)
    print("  dae-check %s: %s — %d loops (%d clean, %d queued, %d "
          "chase-poisoned, %d skipped), peak queue %d, %d enqueued / "
          "%d popped, %d chase deps on coupled loops (H/8, sanitized)"
          % (name, "ok" if check.ok else "FAILED", check.loops_checked,
             check.clean_loops, check.queued_loops,
             check.poisoned_loops, check.skipped_loops, check.peak,
             check.enqueued, check.popped, check.chase_deps))
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_branch_check(name, report, scale, widest=2048):
    """Verify the static branch classification against per-PC combining
    histograms and the config-J soundness chain (static ceiling >=
    measured accuracy >= early-resolution coverage)."""
    from .lint import branchflow_cross_check
    from .workloads import cached_trace
    trace = cached_trace(name, scale)
    check = branchflow_cross_check(report.branchflow, trace,
                                   widest=widest)
    print("  branch-check %s: %s — %d sites, %d trip floors checked, "
          "coverage bound %.3f %s confident %.3f, ceiling %.4f %s "
          "accuracy %.4f"
          % (name, "ok" if check.ok else "FAILED", check.sites,
             check.floors_checked, check.coverage_bound,
             ">=" if check.coverage_bound >= check.confident_coverage
             else "<", check.confident_coverage, check.ceiling,
             ">=" if check.ceiling >= check.accuracy else "<",
             check.accuracy))
    if check.early_coverage is not None:
        sim_i = check.sim.get("I")
        sim_j = check.sim.get("J")
        print("    J: %d plan branches, early coverage %.4f <= accuracy"
              "; cycles J %d <= I %d (width %d, fetch floor %d)"
              % (check.plan_branches, check.early_coverage,
                 sim_j.cycles if sim_j is not None else -1,
                 sim_i.cycles if sim_i is not None else -1,
                 widest, check.floor))
    for violation in check.violations:
        print("    " + violation)
    return check.ok


def _lint_list():
    """Render the registered lint-pass table (``repro lint --list``)."""
    from .lint import lint_passes
    rows = [[p.order, p.name, p.title,
             " ".join(p.flags) if p.flags else "-"]
            for p in lint_passes()]
    print(render_table(["order", "pass", "title", "flags"], rows,
                       title="registered lint passes"))
    return 0


def cmd_lint(args):
    from .lint import lint_path, lint_workload

    if args.list_passes:
        return _lint_list()
    targets = list(args.targets)
    if args.all:
        targets += [name for name in sorted(WORKLOADS)
                    if name not in targets]
    if not targets:
        print("repro lint: no targets (give workload names, .s files, "
              "or --all)", file=sys.stderr)
        return 2
    failed = False
    violated = False
    for target in targets:
        if target in WORKLOADS:
            report = lint_workload(target, scale=args.scale)
            name = target
        else:
            report = lint_path(target)
            name = None
        print(report.render())
        if not report.ok:
            failed = True
        if args.bounds and report.collapse_bound is not None:
            rows = report.collapse_bound.summary_rows()
            if rows:
                print(render_table(
                    ["index", "line", "signature", "arcs", "bound"],
                    [list(row) for row in rows],
                    title="static collapse opportunities: %s"
                          % (report.target,)))
            print("  static per-execution bound: %d collapse events"
                  % (report.collapse_bound.static_bound,))
        if args.addr and report.addr_classes is not None:
            rows = report.addr_classes.summary_rows()
            if rows:
                print(render_table(
                    ["index", "line", "class", "stride", "loop line",
                     "depth"],
                    [list(row) for row in rows],
                    title="load address classes: %s" % (report.target,)))
            counts = report.addr_classes.class_counts()
            print("  address classes: " + "  ".join(
                "%s %d" % (cls, n) for cls, n in counts.items() if n))
        if args.memdep and report.memdep_bound is not None:
            rows = report.memdep_bound.summary_rows()
            if rows:
                print(render_table(
                    ["index", "line", "kind", "anchor", "mod", "lo",
                     "hi", "conflicts"],
                    [list(row) for row in rows],
                    title="memory references and may-alias conflicts: "
                          "%s" % (report.target,)))
            print("  conflict pairs: %d of %d load x store"
                  % (report.memdep_bound.conflict_count,
                     report.memdep_bound.pair_count))
        if args.dae and report.dae is not None:
            rows = report.dae.summary_rows()
            if rows:
                print(render_table(
                    ["line", "body", "loads", "verdict", "access",
                     "frac", "boundary", "recMII acc", "recMII body",
                     "depth", "note"],
                    [list(row) for row in rows],
                    title="access/execute loop slices: %s"
                          % (report.target,)))
            else:
                print("  no innermost reducible loops to slice")
        if args.value and report.valueflow is not None:
            rows = report.valueflow.summary_rows()
            if rows:
                print(render_table(
                    ["index", "line", "class", "stride/k", "loop line",
                     "depth"],
                    [list(row) for row in rows],
                    title="result-value classes: %s" % (report.target,)))
            counts = report.valueflow.class_counts()
            print("  value classes: " + "  ".join(
                "%s %d" % (cls, n) for cls, n in counts.items() if n))
        if args.branch and report.branchflow is not None:
            rows = report.branchflow.summary_rows()
            if rows:
                print(render_table(
                    ["index", "line", "class", "trip", "period",
                     "exit", "load", "note"],
                    [list(row) for row in rows],
                    title="branch predictability classes: %s"
                          % (report.target,)))
            counts = report.branchflow.class_counts()
            print("  branch classes: " + "  ".join(
                "%s %d" % (cls, n) for cls, n in counts.items() if n))
        if args.recur and report.recurrence is not None:
            rows = report.recurrence.summary_rows()
            if rows:
                print(render_table(
                    ["line", "body", "nodes", "cycles",
                     "recMII A", "recMII C", "recMII E", "recMII V",
                     "ceil A", "ceil C", "ceil E", "ceil V", "note"],
                    [list(row) for row in rows],
                    title="loop recurrence bounds: %s"
                          % (report.target,)))
            else:
                print("  no innermost reducible loops to bound")
        if args.cross_check and name is not None \
                and report.collapse_bound is not None:
            if not _lint_cross_check(name, report, args.scale):
                failed = True
        if args.addr_check and name is not None \
                and report.addr_classes is not None:
            if not _lint_addr_check(name, report, args.scale):
                failed = True
        if args.recur_check and name is not None \
                and report.recurrence is not None:
            if not _lint_recur_check(name, report, args.scale):
                violated = True
        if args.value_check and name is not None \
                and report.valueflow is not None:
            if not _lint_value_check(name, report, args.scale):
                violated = True
        if args.memdep_check and name is not None \
                and report.memdep_bound is not None:
            if not _lint_memdep_check(name, report, args.scale):
                violated = True
        if args.dae_check and name is not None \
                and report.dae is not None:
            if not _lint_dae_check(name, report, args.scale):
                violated = True
        if args.branch_check and name is not None \
                and report.branchflow is not None:
            if not _lint_branch_check(name, report, args.scale):
                violated = True
    if violated:
        return 2
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Data dependence speculation & collapsing (MICRO-29 "
                    "1996) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the workload suite")

    p_trace = sub.add_parser("trace", help="generate and save a trace")
    p_trace.add_argument("workload")
    p_trace.add_argument("-o", "--output", required=True)
    p_trace.add_argument("--scale", type=float, default=1.0)

    p_stats = sub.add_parser("stats", help="trace statistics")
    p_stats.add_argument("target", help="workload name or trace file")
    p_stats.add_argument("--scale", type=float, default=0.2)
    p_stats.add_argument("--addr-pred", dest="addr_pred",
                         action="store_true",
                         help="append per-PC two-delta predictor stats "
                              "and warmup-excluded accuracy")

    p_dis = sub.add_parser("disasm", help="print the assembled kernel")
    p_dis.add_argument("workload")
    p_dis.add_argument("--scale", type=float, default=0.05)
    p_dis.add_argument("--limit", type=int, default=80)

    p_sim = sub.add_parser("simulate", help="simulate one configuration")
    p_sim.add_argument("workload", help="workload name or trace file")
    p_sim.add_argument("--scale", type=float, default=0.2)
    p_sim.add_argument("--width", type=int, default=8)
    p_sim.add_argument("--config", choices=list(config_letters()),
                       help="registered configuration letter")
    p_sim.add_argument("--collapse", action="store_true",
                       help="enable paper collapsing rules")
    p_sim.add_argument("--load-spec", choices=["none", "real", "ideal"],
                       default="none")
    p_sim.add_argument("--elim", action="store_true",
                       help="node-elimination extension (Figure 1.f)")
    p_sim.add_argument("--vspec", action="store_true",
                       help="load-value speculation extension (Fig 1.d)")
    p_sim.add_argument("--sanitize", action="store_true",
                       help="re-check scheduler invariants during the "
                            "run (repro.lint.sanitize)")

    p_sweep = sub.add_parser("sweep",
                             help="config x width IPC table")
    p_sweep.add_argument("workload")
    p_sweep.add_argument("--scale", type=float, default=0.2)
    p_sweep.add_argument("--widths", default="4,8,16,32")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the config x width "
                              "grid")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="persistent trace/result cache directory")

    p_report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    p_report.add_argument("--scale", type=float, default=1.0)
    p_report.add_argument("-o", "--output", default="EXPERIMENTS.md")
    p_report.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the simulation grid")
    p_report.add_argument("--cache-dir", default=None,
                          help="persistent trace/result cache directory")
    p_report.add_argument("--profile", action="store_true",
                          help="append the per-cell timing/cache table")
    p_report.add_argument("--sanitize", action="store_true",
                          help="re-check scheduler invariants on every "
                               "simulation")

    p_lint = sub.add_parser(
        "lint", help="static dataflow analysis of kernels / .s files")
    p_lint.add_argument("targets", nargs="*",
                        help="workload names or assembly source files")
    p_lint.add_argument("--all", action="store_true",
                        help="lint every registered workload")
    p_lint.add_argument("--scale", type=float, default=0.05,
                        help="scale for workload kernel generation")
    p_lint.add_argument("--bounds", action="store_true",
                        help="print the static collapse-opportunity "
                             "table")
    p_lint.add_argument("--cross-check", dest="cross_check",
                        action="store_true",
                        help="simulate workload targets and verify the "
                             "static collapse bound >= dynamic events")
    p_lint.add_argument("--addr", action="store_true",
                        help="print the per-load address-class table "
                             "(loop/induction-variable pass)")
    p_lint.add_argument("--addr-check", dest="addr_check",
                        action="store_true",
                        help="run the two-delta predictor per PC on "
                             "workload targets and verify the static "
                             "address classification")
    p_lint.add_argument("--recur", action="store_true",
                        help="print the per-loop recurrence (recMII) "
                             "table for the base / collapsed / "
                             "d-speculated graph variants")
    p_lint.add_argument("--recur-check", dest="recur_check",
                        action="store_true",
                        help="verify the static recurrence bounds "
                             "against the trace dependence graphs and "
                             "the simulated machines (exit 2 on "
                             "violation)")
    p_lint.add_argument("--value", action="store_true",
                        help="print the per-instruction result-value "
                             "class table (valueflow pass)")
    p_lint.add_argument("--value-check", dest="value_check",
                        action="store_true",
                        help="run the stride value predictor per PC on "
                             "workload targets and verify the static "
                             "classification plus the variant-V chain "
                             "static ceiling >= graph V >= simulated "
                             "config I (exit 2 on violation)")
    p_lint.add_argument("--memdep", action="store_true",
                        help="print the per-reference may-alias table "
                             "(bounded congruence address forms)")
    p_lint.add_argument("--memdep-check", dest="memdep_check",
                        action="store_true",
                        help="verify the static may-alias conflict set "
                             "against trace store->load dependences "
                             "and an MDPT (config F) simulation (exit "
                             "2 on violation)")
    p_lint.add_argument("--dae", action="store_true",
                        help="print the per-loop access/execute slice "
                             "table (clean / chase-poisoned / skipped)")
    p_lint.add_argument("--dae-check", dest="dae_check",
                        action="store_true",
                        help="simulate configuration H with the static "
                             "decoupling plan and verify clean loops "
                             "never chase plus queue occupancy within "
                             "the static depth bound (exit 2 on "
                             "violation)")
    p_lint.add_argument("--branch", action="store_true",
                        help="print the per-branch predictability "
                             "table (trip / exit / invariant / "
                             "periodic / history / load / straight / "
                             "unknown)")
    p_lint.add_argument("--branch-check", dest="branch_check",
                        action="store_true",
                        help="verify trip floors, class-capped "
                             "coverage and the accuracy ceiling "
                             "against per-PC combining histograms "
                             "plus a config-J (load-driven exit-"
                             "branch) simulation (exit 2 on violation)")
    p_lint.add_argument("--list", dest="list_passes",
                        action="store_true",
                        help="print the registered lint-pass table "
                             "(name, slot, flags) and exit")

    return parser


_COMMANDS = {
    "list": cmd_list,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "disasm": cmd_disasm,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "report": cmd_report,
    "lint": cmd_lint,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
