"""Trace-core throughput snapshots and the perf-regression gate.

Measures, per suite workload, the hot kernels the SoA trace core
vectorizes — the fused dependence-depth propagation and the three
predictor sweeps — against the scalar reference loops they reproduce,
and records the timings in ``benchmarks/BENCH_trace_core.json``:

    python -m repro.bench.trace_core --write            # refresh snapshot
    python -m repro.bench.trace_core --check            # regression gate

The gate re-measures and compares *speedups* (numpy over scalar), not
wall-clock times, so it holds across machines of different absolute
speed: it fails when any recorded speedup regresses by more than the
tolerance (default 15%), or when the depth-kernel speedup falls below
the 10x acceptance floor at the snapshot scale.

Timings take the best of ``--repeats`` runs.  The scalar depth figure
covers the four per-variant walks the report consumes (plain,
collapsed, collapsed+cut, cut); the numpy "warm" figure is one fused
:func:`repro.analysis.nkernel._propagate` pass computing all four, and
"cold" adds the cached :func:`~repro.analysis.nkernel.dep_columns`
build (producer matrix, Kahn levels, level halving).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from ..metrics.means import harmonic_mean

SNAPSHOT = Path(__file__).resolve().parents[3] \
    / "benchmarks" / "BENCH_trace_core.json"
DEPTH_FLOOR = 10.0  # acceptance: numpy depth kernel >= 10x at scale 0.1
DEFAULT_SCALE = 0.1
DEFAULT_TOLERANCE = 0.15

#: per-workload speedup fields recorded in the snapshot; the gate
#: enforces depth per workload and the sweeps as suite harmonic means
#: (single-digit-millisecond sweep timings are too noisy per cell)
GATED = ("depth_speedup", "bpred_speedup", "addrpred_speedup",
         "vpred_speedup")
SWEEPS = ("bpred", "addrpred", "vpred")


def _best(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _clear_depth_cache(trace):
    cache = trace.soa().cache
    for key in [k for k in cache
                if k == "dep_columns" or (isinstance(k, tuple)
                                          and k[0] == "variant_depths")]:
        del cache[key]


def measure_workload(name, scale, repeats=5):
    """One workload's scalar-reference/numpy kernel timings (seconds)."""
    from ..addrpred import TwoDeltaTable
    from ..addrpred.runner import run_address_predictor
    from ..analysis.depgraph import DependenceGraph, _walk_restructured
    from ..analysis.nkernel import _propagate, dep_columns
    from ..bpred.runner import make_branch_predictor, run_branch_predictor
    from ..vpred.runner import make_value_table, run_value_predictor
    from ..workloads import cached_trace

    trace = cached_trace(name, scale)
    row = {"n": len(trace)}

    def scalar_depths():
        DependenceGraph(trace)._walk_depths()
        _walk_restructured(trace, collapse=True)
        _walk_restructured(trace, collapse=True, cut_all_loads=True)
        _walk_restructured(trace, cut_all_loads=True)

    row["scalar_depth_ms"] = _best(scalar_depths, repeats) * 1e3
    row["bpred_scalar_ms"] = _best(
        lambda: run_branch_predictor(trace, make_branch_predictor()),
        repeats) * 1e3
    row["addrpred_scalar_ms"] = _best(
        lambda: run_address_predictor(trace, TwoDeltaTable(), per_pc=True),
        repeats) * 1e3
    row["vpred_scalar_ms"] = _best(
        lambda: run_value_predictor(trace, make_value_table()),
        repeats) * 1e3

    _clear_depth_cache(trace)
    t0 = time.perf_counter()
    columns = dep_columns(trace)
    row["numpy_cold_ms"] = (time.perf_counter() - t0) * 1e3
    row["levels"] = columns.nlevels
    row["arcs_per_node"] = round(
        columns.idx.shape[0] / max(1, len(trace)), 2)
    row["numpy_warm_ms"] = _best(
        lambda: _propagate(columns), max(repeats, 5)) * 1e3
    row["bpred_numpy_ms"] = _best(
        lambda: run_branch_predictor(trace), repeats) * 1e3
    row["addrpred_numpy_ms"] = _best(
        lambda: run_address_predictor(trace, per_pc=True),
        repeats) * 1e3
    row["vpred_numpy_ms"] = _best(
        lambda: run_value_predictor(trace), repeats) * 1e3

    row["depth_speedup"] = row["scalar_depth_ms"] / row["numpy_warm_ms"]
    for sweep in ("bpred", "addrpred", "vpred"):
        row["%s_speedup" % sweep] = (row["%s_scalar_ms" % sweep]
                                     / row["%s_numpy_ms" % sweep])
    for key, value in row.items():
        if isinstance(value, float):
            row[key] = round(value, 3)
    return row


def _suite_stats(rows):
    suite = {
        "depth_speedup_min": round(
            min(r["depth_speedup"] for r in rows.values()), 3),
        "depth_speedup_hmean": round(harmonic_mean(
            r["depth_speedup"] for r in rows.values()), 3),
    }
    for sweep in SWEEPS:
        suite["%s_speedup_hmean" % sweep] = round(harmonic_mean(
            r["%s_speedup" % sweep] for r in rows.values()), 3)
    return suite


def measure(scale, repeats=5, workloads=None):
    from ..workloads import EXTRAS, SUITE

    names = workloads or [w.name for w in SUITE + EXTRAS]
    rows = {}
    for name in names:
        rows[name] = measure_workload(name, scale, repeats)
        print("%-10s depth %6.1fx  bpred %5.1fx  addrpred %5.1fx  "
              "vpred %5.1fx" % (name, rows[name]["depth_speedup"],
                                rows[name]["bpred_speedup"],
                                rows[name]["addrpred_speedup"],
                                rows[name]["vpred_speedup"]),
              file=sys.stderr)
    return {"schema": 1, "scale": scale, "workloads": rows,
            "suite": _suite_stats(rows)}


def merge_best(first, second):
    """Element-wise best of two measurement passes (min times, max
    speedups), the standard debounce for a loaded machine."""
    rows = {}
    for name, a in first["workloads"].items():
        b = second["workloads"][name]
        row = dict(a)
        for field, value in a.items():
            if field.endswith("_ms"):
                row[field] = min(value, b[field])
            elif field.endswith("_speedup"):
                row[field] = max(value, b[field])
        rows[name] = row
    return {"schema": first["schema"], "scale": first["scale"],
            "workloads": rows, "suite": _suite_stats(rows)}


def check(snapshot, measured, tolerance=DEFAULT_TOLERANCE):
    """Regression verdicts of ``measured`` against ``snapshot``.

    Returns a list of failure strings (empty = gate passes)."""
    failures = []
    if measured["scale"] != snapshot["scale"]:
        failures.append("scale mismatch: snapshot %s vs measured %s"
                        % (snapshot["scale"], measured["scale"]))
        return failures
    percent = round(tolerance * 100)
    for name, reference in snapshot["workloads"].items():
        row = measured["workloads"].get(name)
        if row is None:
            failures.append("%s: missing from measurement" % name)
            continue
        # The acceptance floor backs the recorded speedup, so a
        # snapshot near the floor still gates at the floor.
        target = max(reference["depth_speedup"], DEPTH_FLOOR)
        floor = target * (1.0 - tolerance)
        if row["depth_speedup"] < floor:
            failures.append(
                "%s: depth_speedup %.2fx < %.2fx (snapshot %.2fx - %d%%)"
                % (name, row["depth_speedup"], floor,
                   reference["depth_speedup"], percent))
    for field in sorted(snapshot["suite"]):
        if field.endswith("_min"):
            continue
        floor = snapshot["suite"][field] * (1.0 - tolerance)
        if measured["suite"][field] < floor:
            failures.append(
                "suite: %s %.2fx < %.2fx (snapshot %.2fx - %d%%)"
                % (field, measured["suite"][field], floor,
                   snapshot["suite"][field], percent))
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro.bench.trace_core", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE)
    parser.add_argument("--snapshot", type=Path, default=SNAPSHOT)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help="measure and overwrite the snapshot")
    mode.add_argument("--check", action="store_true",
                      help="measure and gate against the snapshot")
    args = parser.parse_args(argv)

    measured = measure(args.scale, args.repeats)
    if args.write:
        args.snapshot.write_text(json.dumps(measured, indent=1,
                                            sort_keys=True) + "\n")
        print("wrote %s" % args.snapshot)
        return 0
    snapshot = json.loads(args.snapshot.read_text())
    failures = check(snapshot, measured, args.tolerance)
    if failures:
        # Debounce scheduler noise: one full re-measure, keeping the
        # best of both passes, before declaring a regression.
        print("gate miss, re-measuring: %s" % "; ".join(failures),
              file=sys.stderr)
        measured = merge_best(measured, measure(args.scale,
                                                args.repeats))
        failures = check(snapshot, measured, args.tolerance)
    for failure in failures:
        print("FAIL %s" % failure)
    if failures:
        return 1
    print("trace-core gate: %d workloads within %d%% of snapshot "
          "(depth floor %.0fx)"
          % (len(snapshot["workloads"]), round(args.tolerance * 100),
             DEPTH_FLOOR))
    return 0


if __name__ == "__main__":
    sys.exit(main())
