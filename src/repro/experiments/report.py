"""EXPERIMENTS.md generator: run every exhibit, compare to the paper.

Usage::

    python -m repro.experiments.report [scale] [output] \
        [--jobs N] [--cache-dir PATH] [--profile] [--sanitize]

``scale`` defaults to 1.0 (a few minutes of pure-Python simulation);
``output`` defaults to ``EXPERIMENTS.md`` in the current directory.
``--jobs`` fans the configuration x width simulation grid out over
worker processes (the grid comes from the exhibit registry,
``repro.experiments.exhibit``), ``--cache-dir`` persists traces and
results across runs, and
``--profile`` appends a per-cell timing / cache-hit table (see
docs/PERFORMANCE.md).
"""

import argparse
import sys
import time

from ..core.config import PAPER_ISSUE_WIDTHS
# Importing the builder modules populates the exhibit registry; the
# report itself never names individual exhibit functions.
from . import extensions as _extensions  # noqa: F401
from . import figures as _figures  # noqa: F401
from . import tables as _tables  # noqa: F401
from .exhibit import all_exhibits, exhibit_requirements
from .runner import ExperimentRunner

#: Headline numbers from the paper, for the paper-vs-measured summary.
PAPER_REFERENCE = {
    # Figure 3, configuration D speedups at widths 4/8/16/32.
    "speedup_D": {4: 1.20, 8: 1.35, 16: 1.51, 32: 1.66},
    # Figure 3, configuration E range across widths 4..2k.
    "speedup_E_range": (1.25, 2.95),
    # Figure 8: instructions collapsed, rising with width.
    "collapsed_range": (29.0, 47.0),
    # Figure 9: 3-1 dominates (65-82% at widths <= 32).
    "cat31_range": (65.0, 82.0),
    # Figure 10: distance nearly always < 8.
    "distance_within_8": 0.9,
}

def shape_checks(runner):
    """Programmatic paper-shape assertions, reported as pass/fail lines.

    These are the same invariants the test suite enforces at small scale;
    here they run on the report's scale so the generated document records
    whether the reproduction holds where it was generated.
    """
    lines = []

    def check(label, condition):
        lines.append("- [%s] %s" % ("x" if condition else " ", label))

    from .figures import figure3, figure5, figure8, figure9, figure10
    fig3 = figure3(runner)
    by_width = fig3.row_map()
    d_values = [row[3] for row in fig3.rows]
    e_values = [row[4] for row in fig3.rows]
    b_values = [row[1] for row in fig3.rows]
    c_values = [row[2] for row in fig3.rows]
    check("E >= D >= C >= B at every width (harmonic means)",
          all(e >= d >= c >= b - 1e-9 for b, c, d, e in
              zip(b_values, c_values, d_values, e_values)))
    check("collapsing (C) contributes more than speculation (B)",
          all(c > b for b, c in zip(b_values, c_values)))
    check("D speedups grow with width",
          all(x <= y + 0.05 for x, y in zip(d_values, d_values[1:])))

    fig5 = figure5(runner)
    b_chase = [row[1] for row in fig5.rows]
    check("pointer chasers gain little from B alone (paper: 5-9%)",
          all(b < 1.15 for b in b_chase))

    fig8 = figure8(runner)
    mean_col = [row[-1] for row in fig8.rows]
    li_col = fig8.column("li") if "li" in fig8.headers else mean_col
    check("collapsed fraction rises with width",
          mean_col[0] <= mean_col[-1] + 1.0)
    check("a large fraction of instructions collapses (paper: 29-47%; "
          "our hand-written kernels are denser, see note)",
          all(v >= 25.0 for v in mean_col))
    check("li (call/pointer-heavy analog) collapses least",
          all(li <= m for li, m in zip(li_col, mean_col)))

    fig9 = figure9(runner)
    check("3-1 is the dominant collapsing category",
          all(row[1] > row[2] and row[1] > row[3] for row in fig9.rows))

    fig10 = figure10(runner)
    within8 = [row[-1] for row in fig10.rows]
    check("distance <= 8 for the vast majority of collapses",
          all(v >= 80.0 for v in within8))

    from .extensions import memory_speculation
    memspec = memory_speculation(runner)
    check("realistic disambiguation never beats perfect memory "
          "(F <= A and G <= C at every width, within the 2% "
          "slot-stealing tolerance; see docs/MODEL.md anomalies)",
          all(v <= 1.02 for v in
              memspec.column("F/A") + memspec.column("G/C")))

    from .extensions import load_driven_branches
    ldbp = load_driven_branches(runner)
    check("load-driven exit-branch prediction never hurts "
          "(J >= I at every width: a waived fence only unblocks "
          "fetch earlier)",
          all(v >= 0.999 for v in ldbp.column("J/I")))

    from .extensions import decoupled_streams
    decoupled = decoupled_streams(runner)
    check("decoupled access/execute streams never hurt the mean "
          "(H >= A at every width)",
          all(v >= 0.999 for v in decoupled.column("H/A")))
    # At width 2k the window is effectively unbounded, never fills, and
    # H = A cycle-for-cycle (docs/MODEL.md) — only finite widths can gain.
    check("stride-dominated workloads gain from decoupling "
          "(H/A > 1 on the non pointer-chasing subset at finite widths; "
          "H = A at width 2k where the window never fills)",
          all(v > 1.0 for width, v in
              zip(runner.widths, decoupled.column("H/A (stride)"))
              if width < 2048))
    return "\n".join(lines)


def generate(scale=1.0, widths=PAPER_ISSUE_WIDTHS,
             include_extensions=True, jobs=1, cache_dir=None,
             profile=False, progress=None, sanitize=False):
    """Build the full EXPERIMENTS.md text.

    ``jobs``/``cache_dir`` parallelise and persist the simulation grid
    (exhibit content is identical regardless); ``profile`` appends the
    sweep-profile table.  ``sanitize`` attaches the scheduler sanitizer
    to every simulation: the report only completes if every run holds
    the model invariants (violations raise ``SanitizeError``).
    """
    runner = ExperimentRunner(scale=scale, widths=widths, jobs=jobs,
                              cache_dir=cache_dir, progress=progress,
                              sanitize=sanitize)
    started = time.time()
    # Resolve the simulation grid the registered exhibits will ask for
    # up front, so exhibit assembly is pure memo lookups (and actually
    # parallel when jobs > 1).  The demand comes from the exhibit
    # registry, not a hardcoded letter list.
    for letters, req_widths in exhibit_requirements():
        if letters:
            runner.prefetch(letters, widths=req_widths)
    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction of every table and figure of Sazeides, Vassiliadis "
        "& Smith, *The Performance Potential of Data Dependence "
        "Speculation & Collapsing* (MICRO-29, 1996).",
        "",
        "- Workload scale: %.2f (see DESIGN.md on trace-size "
        "substitution)" % (scale,),
        "- Issue widths: %s (window = 2x width)"
        % (", ".join(str(w) for w in widths),),
        "- Regenerate with: `python -m repro.experiments.report %s`"
        % (scale,),
        "",
        "Absolute numbers differ from the paper (different compiler, "
        "ISA subset, kernel-scale traces); the claims below are about "
        "*shape* — orderings, contribution splits, and trends.",
        "",
        "## Shape checks",
        "",
    ]
    specs = all_exhibits()
    exhibits = {spec.key: spec.build(runner) for spec in specs}
    parts.append(shape_checks(runner))
    parts.append("")
    for spec in specs:
        exhibit = exhibits[spec.key]
        parts.append("## %s — %s" % (exhibit.key, exhibit.title))
        parts.append("")
        if spec.note:
            parts.append("*%s*" % (spec.note,))
            parts.append("")
        parts.append("```")
        parts.append(exhibit.render())
        parts.append("```")
        parts.append("")
    if include_extensions:
        parts.extend(_extension_sections(runner))
    parts.extend(_addr_class_section(runner))
    parts.extend(_recurrence_section(runner))
    parts.extend(_valueflow_section(runner))
    parts.extend(_branchflow_section(runner))
    parts.extend(_dae_section(runner))
    if sanitize:
        parts.append("_Sanitized run: %d simulations re-checked against "
                     "the model invariants, zero violations (see "
                     "docs/LINT.md)._" % (runner.sanitized_runs,))
        parts.append("")
    if profile:
        parts.append("## Sweep profile")
        parts.append("")
        parts.append("```")
        parts.append(runner.profile.render())
        parts.append("```")
        parts.append("")
    parts.append("_Generated in %.0f s._" % (time.time() - started,))
    parts.append("")
    return "\n".join(parts)


def _extension_sections(runner):
    """Beyond-paper exhibits (DESIGN.md Section 7)."""
    from .extensions import (
        dataflow_limits,
        elimination_counts,
        extension_figure,
        predictor_comparison,
    )
    mid_width = runner.widths[min(2, len(runner.widths) - 1)]
    sections = [
        ("Paper Figure 1.f sketches node elimination and Figure 1.d "
         "value speculation; neither is simulated in the paper.",
         extension_figure(runner)),
        ("Eliminated (never-executed) instructions per workload.",
         elimination_counts(runner, width=mid_width)),
        ("The paper's closing future-work question: a predictor that "
         "serves both pointer-chasing and regular codes.",
         predictor_comparison(runner, width=mid_width)),
        ("Section 1's dependence-graph limits, for context.",
         dataflow_limits(runner)),
    ]
    parts = ["## Extensions beyond the paper", ""]
    for note, exhibit in sections:
        parts.append("*%s*" % (note,))
        parts.append("")
        parts.append("```")
        parts.append(exhibit.render())
        parts.append("```")
        parts.append("")
    return parts


def _addr_class_section(runner):
    """Static load-address classification vs dynamic predictor, per
    workload (docs/LINT.md, ``repro lint --addr-check``)."""
    from ..lint.addrclass import ALL_CLASSES
    from ..metrics import render_table
    width = runner.widths[-1]
    headers = ["workload"] + list(ALL_CLASSES) \
        + ["static bound", "dynamic cov", "steady acc", "check"]
    rows = []
    for name in runner.names:
        counts = runner.lint(name).analyses["addr-class"].class_counts()
        check = runner.lint_check("addr-class", name, width)
        rows.append([name] + [counts[cls] for cls in ALL_CLASSES]
                    + ["%.3f" % check.coverage_bound,
                       "%.3f" % check.dynamic_coverage,
                       "%.3f" % check.steady_accuracy,
                       "ok" if check.ok else "FAILED"])
    return [
        "## Static load-address classification",
        "",
        "*Per-workload static load sites by address class "
        "(loop/induction-variable pass, docs/LINT.md), the static "
        "coverage upper bound vs the dynamic two-delta coverage, and "
        "the per-PC cross-check verdict (`repro lint --addr-check`).*",
        "",
        "```",
        render_table(headers, rows,
                     title="load address classes and predictor "
                           "cross-check"),
        "```",
        "",
    ]


def _recurrence_section(runner):
    """Static loop-recurrence IPC ceilings vs graphs vs machines
    (docs/LINT.md, ``repro lint --recur-check``)."""
    from .extensions import recurrence_bounds
    exhibit = recurrence_bounds(runner)
    return [
        "## Static loop-recurrence bounds",
        "",
        "*Per-workload static recMII-derived IPC ceilings under the "
        "base (A), collapsed (C) and d-speculated (E) dependence-graph "
        "variants, the dataflow limits of the matching restructured "
        "trace graphs, and the simulated IPC at the widest machine "
        "(`repro lint --recur-check`).  Collapsing shortens recurrence "
        "cycles; speculation breaks them (paper Figure 1.e).*",
        "",
        "```",
        exhibit.render(),
        "```",
        "",
    ]


def _valueflow_section(runner):
    """Static result-value classification vs the stride value predictor
    and the variant-V/config-I chain (docs/LINT.md,
    ``repro lint --value-check``)."""
    from ..metrics import render_table
    width = runner.widths[-1]
    headers = ["workload", "sites", "cov bound", "dynamic cov",
               "ceiling V", "graph V", "I @ widest", "check"]
    rows = []
    for name in runner.names:
        valueflow = runner.lint(name).analyses["valueflow"]
        check = runner.lint_check("valueflow", name, width)
        ceiling = "%.2f" % (check.static_bound,) \
            if check.static_bound is not None else "inf"
        rows.append([name, len(valueflow.sites),
                     "%.3f" % check.coverage_bound,
                     "%.3f" % check.dynamic_coverage,
                     ceiling, "%.2f" % check.graph_ipc,
                     "%.2f" % check.sim_ipc,
                     "ok" if check.ok else "FAILED"])
    return [
        "## Static result-value classification",
        "",
        "*Per-workload result-value sites (docs/LINT.md, `repro lint "
        "--value`), the class-capped static coverage bound vs the "
        "stride value predictor's dynamic confident coverage, and the "
        "variant-V chain — static IPC ceiling >= graph-V dataflow "
        "limit >= simulated configuration I at width %d "
        "(`repro lint --value-check`).*" % (width,),
        "",
        "```",
        render_table(headers, rows,
                     title="result-value classes and config-I "
                           "cross-check"),
        "```",
        "",
    ]


def _branchflow_section(runner):
    """Static branch-predictability classification vs the combining
    predictor and the config-J chain (docs/LINT.md,
    ``repro lint --branch-check``)."""
    from ..lint.branchflow import ALL_BRANCH_CLASSES
    from ..metrics import render_table
    width = runner.widths[-1]
    headers = ["workload"] + list(ALL_BRANCH_CLASSES) \
        + ["cov bound", "ceiling", "accuracy", "early cov", "check"]
    rows = []
    for name in runner.names:
        counts = runner.lint(name).analyses["branchflow"].class_counts()
        check = runner.lint_check("branchflow", name, width)
        early = "%.3f" % check.early_coverage \
            if check.early_coverage is not None else "-"
        rows.append([name] + [counts[cls] for cls in ALL_BRANCH_CLASSES]
                    + ["%.3f" % check.coverage_bound,
                       "%.3f" % check.ceiling,
                       "%.3f" % check.accuracy,
                       early,
                       "ok" if check.ok else "FAILED"])
    return [
        "## Static branch-predictability classification",
        "",
        "*Per-workload static conditional-branch sites by "
        "predictability class (docs/LINT.md, `repro lint --branch`), "
        "the class-capped static coverage bound vs the combining "
        "predictor's confident-correct coverage, the cold-start "
        "accuracy ceiling vs the measured accuracy, and the config-J "
        "early-resolution coverage closing the chain ceiling >= "
        "accuracy >= early coverage at width %d "
        "(`repro lint --branch-check`).*" % (width,),
        "",
        "```",
        render_table(headers, rows,
                     title="branch predictability classes and "
                           "config-J cross-check"),
        "```",
        "",
    ]


def _dae_section(runner):
    """Static access/execute slicing vs the decoupled machine H
    (docs/LINT.md, ``repro lint --dae-check``)."""
    from ..metrics import render_table
    width = runner.widths[-1]
    headers = ["workload", "loops", "clean", "poisoned", "skipped",
               "queued", "depth bound", "peak q", "chase deps", "check"]
    rows = []
    for name in runner.names:
        analysis = runner.lint(name).analyses["dae"]
        check = runner.lint_check("dae", name, width)
        rows.append([name, check.loops_checked, check.clean_loops,
                     check.poisoned_loops, check.skipped_loops,
                     check.queued_loops,
                     sum(analysis.plan().capacity.values()),
                     check.peak, check.chase_deps,
                     "ok" if check.ok else "FAILED"])
    return [
        "## Static access/execute slicing",
        "",
        "*Per-workload verdicts of the backward address-cone slicer "
        "(docs/LINT.md, `repro lint --dae`) against a configuration-H "
        "run at width %d: statically-clean loops must never incur a "
        "dynamic chase dependence, and peak FIFO queue occupancy must "
        "stay within the static recMII-gap depth bound "
        "(`repro lint --dae-check`).*" % (width,),
        "",
        "```",
        render_table(headers, rows,
                     title="access/execute slice verdicts and "
                           "occupancy cross-check"),
        "```",
        "",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.experiments.report",
        description="Regenerate EXPERIMENTS.md (all paper exhibits)")
    parser.add_argument("scale", nargs="?", type=float, default=1.0)
    parser.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the simulation grid")
    parser.add_argument("--cache-dir", default=None,
                        help="persistent trace/result cache directory")
    parser.add_argument("--profile", action="store_true",
                        help="append the per-cell timing/cache table")
    parser.add_argument("--sanitize", action="store_true",
                        help="re-check scheduler invariants on every "
                             "simulation (repro.lint.sanitize)")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    text = generate(scale=args.scale, jobs=args.jobs,
                    cache_dir=args.cache_dir, profile=args.profile,
                    progress=True if args.jobs > 1 else None,
                    sanitize=args.sanitize)
    with open(args.output, "w") as handle:
        handle.write(text)
    print("wrote %s (scale %.2f)" % (args.output, args.scale))


if __name__ == "__main__":
    main()
