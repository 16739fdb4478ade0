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
    Run every registered configuration (A-J) across issue widths and
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
    untracked load addresses.  Every registered lint pass may add a
    table flag and a static-vs-dynamic check flag; ``repro lint
    --list`` prints the passes with their flags.  Checks run on
    workload targets, with every simulated cell sanitized.  Exits 0
    when clean, 1 on findings, 2 on a usage error or a failed check.

``simulate`` and ``report`` accept ``--sanitize`` to attach the
scheduler invariant checker to every simulation they perform.
"""

import argparse
import os
import sys
from functools import partial

from .collapse import CollapseRules
from .core import MachineConfig, config_letters, paper_config, \
    simulate_many, simulate_trace
from .core.config import LOAD_SPEC_NONE
from .errors import ConfigError
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
        if args.collapse or args.load_spec is not None:
            flag = "--collapse" if args.collapse else "--load-spec"
            raise ConfigError(
                "%s: configuration %s fixes its own collapsing and load "
                "speculation; drop %s or --config"
                % (flag, args.config, flag))
        config = paper_config(args.config, args.width)
        if args.vspec and config.value_spec:
            raise ConfigError(
                "--vspec: configuration %s already speculates values "
                "(value_spec=%r)" % (args.config, config.value_spec))
        if args.elim or args.vspec:
            # The letter keeps every mechanism; MachineConfig rejects an
            # extension it cannot carry.
            config = paper_config(
                args.config, args.width, node_elimination=args.elim,
                value_spec=args.vspec or config.value_spec,
                name=config.name + ("+elim" if args.elim else "")
                + ("+vspec" if args.vspec else ""))
        return config
    rules = CollapseRules.paper() if args.collapse or args.elim else None
    return MachineConfig(args.width, collapse_rules=rules,
                         load_spec=args.load_spec or LOAD_SPEC_NONE,
                         node_elimination=args.elim,
                         value_spec=args.vspec)


def cmd_simulate(args):
    config = _build_config(args)
    trace = _load_target(args.workload, args.scale)
    plans = {}
    if args.workload in WORKLOADS:
        # The static plans derive from the workload's assembly; a saved
        # trace file has none.
        from .workloads import cached_branch_plan, cached_dae_plan
        plans = {"dae_plan": partial(cached_dae_plan, args.workload,
                                     args.scale),
                 "branch_plan": partial(cached_branch_plan, args.workload,
                                        args.scale)}
    result = simulate_trace(trace, config, sanitize=args.sanitize, **plans)
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


def _widths(text):
    """The ``--widths`` list: comma-separated issue widths."""
    try:
        return [int(w) for w in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected comma-separated integers, got %r" % (text,)) from None


def cmd_sweep(args):
    widths = args.widths
    letters = config_letters()
    headers = ["width"] + list(letters)
    rows = []
    profile = None
    if args.workload in WORKLOADS:
        # Registered workloads go through the experiment runner: the
        # parallel, disk-cached engine, identical to the serial path.
        from .experiments.runner import ExperimentRunner
        runner = ExperimentRunner(
            scale=args.scale, widths=widths, names=[args.workload],
            jobs=args.jobs, cache_dir=args.cache_dir,
            progress=True if args.jobs > 1 else None)
        sweep = runner.sweep(letters)
        name = args.workload
        profile = runner.profile
        for width in widths:
            rows.append([width] + [sweep[(letter, width)][0].ipc
                                   for letter in letters])
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
    """Lint each target, then print the tables and run the checks the
    flags request, in registry order.  Exit 0 when clean, 1 on findings,
    2 on a usage error or a failed check."""
    from .experiments.runner import ExperimentRunner
    from .lint import lint_passes, lint_path

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
    passes = lint_passes()
    tables = [p for p in passes
              if p.table is not None and getattr(args, p.table.dest)]
    checks = [p for p in passes
              if p.check is not None and getattr(args, p.check.dest)]
    # One sanitized runner per invocation: checks sharing a cell (or a
    # workload's lint report) reuse it instead of re-simulating.
    runner = ExperimentRunner(
        args.scale, names=[t for t in targets if t in WORKLOADS],
        sanitize=True)
    failed = False
    violated = False
    for target in targets:
        workload = target in WORKLOADS
        report = runner.lint(target) if workload else lint_path(target)
        print(report.render())
        if not report.ok:
            failed = True
        for lint_pass in tables:
            analysis = report.analyses.get(lint_pass.name)
            if analysis is not None:
                for line in lint_pass.table.lines(analysis,
                                                  report.target):
                    print(line)
        for lint_pass in checks:
            declared = lint_pass.check
            if not workload:
                print("  %s skipped: %s is not a registered workload"
                      % (declared.flag.lstrip("-"), target))
                continue
            check = runner.lint_check(lint_pass.name, target,
                                      declared.width)
            for line in declared.lines(target, check, declared.width):
                print(line)
            for violation in check.violations:
                print("    " + violation)
            if not check.ok:
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
                       help="enable paper collapsing rules (not with "
                            "--config)")
    p_sim.add_argument("--load-spec", choices=["none", "real", "ideal"],
                       help="load address speculation (default none; "
                            "not with --config)")
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
    p_sweep.add_argument("--widths", type=_widths, default="4,8,16,32")
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
    from .lint import lint_passes
    for lint_pass in lint_passes():
        for declared in (lint_pass.table, lint_pass.check):
            if declared is not None:
                p_lint.add_argument(declared.flag, action="store_true",
                                    help=declared.help)
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
