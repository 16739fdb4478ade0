"""Pipeline benchmark: end-to-end and per-layer timings of the simulator.

Run from the repository root::

    python benchmarks/pipeline/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--trace-out DIR] [--json OUT]
    python benchmarks/pipeline/run.py --write-golden --seed N
    python benchmarks/pipeline/run.py --compare PARENT.json... CHANGE.json...

Each workload runs in a fresh child process (``measure.py``) with
``OMP_NUM_THREADS=1`` and ``PYTHONPATH=src``.  The seed selects the
input scale.  Every operation's output is checked against
``golden/seed<seed % 3>.json``; a failed or mismatching operation counts
in ``failed`` and makes the exit code nonzero.  The command prints every
metric by name with its unit, then, as the last line per workload, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
``end_to_end`` metrics of ``BENCHMARK.json`` from an untraced run, or
with ``--trace 1`` its ``per_layer`` metrics from a traced run.  See
README.md for the workloads, the metrics and how to compare commits.
"""

import argparse
import fnmatch
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_PATH = HERE.parents[1] / "BENCHMARK.json"
GOLDEN_DIR = HERE / "golden"
#: Scratch space for the children's report caches, under the working
#: directory so a run writes nothing outside its checkout.
SCRATCH = ".pipeline_bench"
CHILD_TIMEOUT_S = 170

#: Input scale per seed tier (seed % 3).  Between tiers only the
#: ``compress`` input (and, for ``sim-*``, ``eqntott``'s) changes, by at
#: most 2%, so runs with different seeds stay comparable.
SCALES = {"sim": (0.053, 0.0535, 0.054), "report": (0.01, 0.0102, 0.0104)}

#: Per-layer metrics (fnmatch patterns) that a traced run of each
#: workload must report as nonzero; a zero means a wrapper never fired.
COVERAGE = (
    ("asm.*", "sim-base sim-spec report-cold report-warm"),
    ("emu.*", "sim-base sim-spec report-cold"),
    ("workloads.validate_s", "sim-base sim-spec report-cold"),
    ("trace.soa_s", "sim-base sim-spec report-cold"),
    ("trace.save_s", "report-cold"),
    ("trace.load_s", "report-cold report-warm"),
    ("bpred.*", "sim-base sim-spec report-cold report-warm"),
    ("addrpred.*", "sim-base report-cold report-warm"),
    ("vpred.*", "sim-spec report-cold report-warm"),
    ("core.run_s", "sim-base sim-spec report-cold"),
    ("core.cells", "sim-base sim-spec report-cold"),
    ("core.sim_kinst", "sim-base sim-spec report-cold"),
    ("core.useful_issue_ratio", "sim-base sim-spec report-cold"),
    ("core.kips.[ABCDE].*", "sim-base"),
    ("core.kips.[FGHIJ].*", "sim-spec"),
    ("core.kips.*.w8", "report-cold"),
    ("core.replayed_per_kinst", "sim-spec report-cold"),
    ("collapse.events_per_kinst", "sim-base sim-spec report-cold"),
    ("memdep.violations_per_kinst", "sim-spec report-cold"),
    ("core.vspec_squashes_per_kinst", "sim-spec report-cold"),
    ("core.dae_full_stalls_per_kinst", "sim-spec report-cold"),
    ("cache.load_*", "report-cold report-warm"),
    ("cache.store_*", "report-cold"),
    ("cache.hit_ratio", "report-cold report-warm"),
    ("cache.bytes", "report-cold report-warm"),
    ("lint.addrclass_s", "sim-spec report-cold report-warm"),
    ("lint.valueflow_s", "sim-spec report-cold report-warm"),
    ("lint.recurrence_s", "sim-spec report-cold report-warm"),
    ("lint.branchflow_s", "sim-spec report-cold report-warm"),
    ("lint.dae_s", "sim-spec report-cold report-warm"),
    ("lint.*_check_s", "report-cold"),
    ("lint.[abdv]*_check_s", "report-warm"),
    ("analysis.depths_s", "report-cold report-warm"),
    ("experiments.*", "report-cold report-warm"),
    ("metrics.render_s", "report-cold report-warm"),
)


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def scale_for(workload, seed):
    return SCALES["sim" if workload.startswith("sim") else "report"][seed % 3]


def golden_path(seed):
    return GOLDEN_DIR / ("seed%d.json" % (seed % 3))


def load_golden(seed):
    path = golden_path(seed)
    if not path.exists():
        return {}
    with open(path) as handle:
        return json.load(handle)


def expected_digest(golden, workload, label):
    if workload.startswith("sim"):
        return golden.get("cells", {}).get(label)
    return golden.get("report")


def golden_mismatches(record, golden):
    """Labels of ``record`` whose digest differs from (or is missing in)
    the golden file."""
    bad = []
    for label, digest in sorted(record["digests"].items()):
        output = {k: v for k, v in digest.items() if k != "runs"}
        if expected_digest(golden, record["workload"], label) != output:
            bad.append(label)
    return bad


def update_golden(seed, record):
    """Write the digests of ``record`` into the seed's golden file."""
    golden = load_golden(seed)
    sim = record["workload"].startswith("sim")
    golden["sim_scale" if sim else "report_scale"] = record["scale"]
    for label, digest in record["digests"].items():
        output = {k: v for k, v in digest.items() if k != "runs"}
        if sim:
            golden.setdefault("cells", {})[label] = output
        else:
            golden["report"] = output
    GOLDEN_DIR.mkdir(exist_ok=True)
    with open(golden_path(seed), "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


def coverage_gaps(workload, layers):
    """Per-layer metrics that should be nonzero on ``workload`` but
    are not."""
    gaps = []
    for pattern, workloads in COVERAGE:
        if workload not in workloads.split():
            continue
        matched = [name for name in layers if fnmatch.fnmatch(name, pattern)]
        if not matched:
            gaps.append(pattern)
        gaps.extend(name for name in matched if not layers[name])
    return gaps


def spawn(workload, scale, seconds, trace, trace_out=None):
    """Run ``measure.py`` for one workload in a fresh interpreter and
    return its record (``None`` if the child failed)."""
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    # A fixed string-hash seed gives every run the same dict and set
    # layouts; a random one moved run times by a few percent.  Outputs
    # do not depend on it (the golden digests hold for any seed).
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    os.makedirs(SCRATCH, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=workload + "-", dir=SCRATCH)
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", workload, "--scale", repr(scale),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--scratch", scratch]
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", repr(time.time())]
    try:
        child = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("%s: timed out after %d s" % (workload, CHILD_TIMEOUT_S),
              file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass    # another run's scratch is still there
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print("%s: child exited with %d" % (workload, child.returncode),
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def result_of(record, golden, spec, trace):
    """The result object (``correct``, ``attempted``, ``failed``,
    ``metrics``) for one child record."""
    bad = golden_mismatches(record, golden)
    for label in bad:
        print("%s: %s does not match %s" % (record["workload"], label,
                                            golden_path(record["seed"])),
              file=sys.stderr)
    failed = record["failed"] + sum(record["digests"][label]["runs"]
                                    for label in bad)
    failed = min(failed, record["attempted"])
    correct = failed == 0
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    measured = record["layers"] if trace else record["metrics"]
    if trace:
        gaps = coverage_gaps(record["workload"], measured)
        for name in gaps:
            print("%s: layer metric %s never measured" % (
                record["workload"], name), file=sys.stderr)
        correct = correct and not gaps
    metrics = {}
    for entry in entries:
        if entry["name"] not in measured:
            print("%s: %s not measured" % (record["workload"],
                                           entry["name"]), file=sys.stderr)
            correct = False
            continue
        metrics[entry["name"]] = {"value": measured[entry["name"]],
                                  "unit": entry["unit"]}
    return {"correct": correct, "attempted": record["attempted"],
            "failed": failed, "metrics": metrics}


def print_result(record, result):
    print("# %s seed %d scale %s kernel %s: %d ops, %d failed; "
          "raw host wall_s %.4g" % (
              record["workload"], record["seed"], record["scale"],
              record["kernel"], result["attempted"], result["failed"],
              record["raw_wall_s"]))
    for name, metric in result["metrics"].items():
        print("%s %s %.6g %s" % (record["workload"], name, metric["value"],
                                 metric["unit"]))
    print(json.dumps(result, sort_keys=True), flush=True)


# ----------------------------------------------------------------------
# Comparing runs of two commits.
# ----------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def wins(parent, change, better):
    """Pairs in which the change's run reads better than the parent's."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """Verdict on paired runs of one metric on one workload.

    improved: the change wins at least 9 of 10 pairs and the medians
    differ by more than the parent's quartile spread.  unresolved: the
    parent's spread is wider than the bound, unless every change run is
    worse than every parent run.  regressed: the change's median is
    worse than the parent's by more than the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    p_median = statistics.median(parent)
    c_median = statistics.median(change)
    q1, q3 = quartiles(parent)
    if (wins(parent, change, better) >= 0.9 * len(parent)
            and sign * (p_median - c_median) > q3 - q1):
        return "improved"
    all_worse = all(sign * (c - p) > 0 for p in parent for c in change)
    if (q3 - q1) > bound * abs(p_median) and not all_worse:
        return "unresolved"
    if sign * (c_median - p_median) > bound * abs(p_median):
        return "regressed"
    return "unchanged"


def compare(paths, spec):
    """Print one row per (workload, metric) for runs saved with
    ``--json``: the first half of ``paths`` are the parent's runs, the
    second half the change's, paired in order.  Returns the verdicts."""
    if len(paths) < 2 or len(paths) % 2:
        raise SystemExit("--compare needs PARENT.json... CHANGE.json... "
                         "with as many change runs as parent runs")
    runs = []
    for path in paths:
        with open(path) as handle:
            runs.append(json.load(handle)["workloads"])
    half = len(runs) // 2
    parent, change = runs[:half], runs[half:]
    workloads = sorted(set.intersection(*(set(run) for run in runs)))
    verdicts = {}
    print("%-12s %-12s %30s %30s %7s %5s  %s" % (
        "workload", "metric", "parent p50 [q1, q3]", "change p50 [q1, q3]",
        "delta", "wins", "verdict"))
    for workload in workloads:
        for entry in spec["end_to_end"]:
            name = entry["name"]
            try:
                p = [run[workload]["metrics"][name]["value"] for run in parent]
                c = [run[workload]["metrics"][name]["value"] for run in change]
            except KeyError:
                continue
            result = verdict(p, c, entry["better"], entry["bound"])
            verdicts[(workload, name)] = result
            print("%-12s %-12s %30s %30s %+6.1f%% %2d/%-2d  %s" % (
                workload, name, _summary(p), _summary(c),
                100.0 * (statistics.median(c) / statistics.median(p) - 1),
                wins(p, c, entry["better"]), len(p), result))
        failed = [sum(run[workload]["failed"] for run in side)
                  for side in (parent, change)]
        if failed[1] > failed[0]:
            print("%-12s more failed operations in the change (%d vs %d)"
                  % (workload, failed[1], failed[0]))
    return verdicts


def _summary(values):
    q1, q3 = quartiles(values)
    return "%.5g [%.5g, %.5g]" % (statistics.median(values), q1, q3)


# ----------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Pipeline benchmark (see benchmarks/pipeline/README.md)")
    parser.add_argument("--workload", nargs="+", default=None,
                        help="workloads to run (default: all, in order)")
    parser.add_argument("--seed", type=int, default=0,
                        help="selects the input scale (seed %% 3)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--trace-out", default=None, metavar="DIR",
                        help="write each traced run's spans to DIR")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="save every workload's result to OUT")
    parser.add_argument("--write-golden", action="store_true",
                        help="record the outputs as the seed's golden file")
    parser.add_argument("--compare", nargs="+", default=None,
                        metavar="RUN.json",
                        help="compare saved runs: PARENT.json... "
                             "CHANGE.json...")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    if args.compare:
        verdicts = compare(args.compare, spec)
        return 1 if "regressed" in verdicts.values() else 0
    if not Path("src/repro").is_dir():
        print("run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = sorted(set(workloads) - set(names))
    if unknown:
        print("unknown workload(s): %s" % ", ".join(unknown),
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if args.trace_out:
        os.makedirs(args.trace_out, exist_ok=True)
    golden = load_golden(args.seed)
    results, status = {}, 0
    for workload in workloads:
        trace_out = os.path.join(
            args.trace_out, "%s-seed%d.json" % (workload, args.seed)) \
            if args.trace_out else None
        record = spawn(workload, scale_for(workload, args.seed), seconds,
                       args.trace, trace_out)
        if record is None:
            return 1
        record["seed"] = args.seed
        if args.write_golden:
            if record["failed"]:
                print("%s: not writing golden digests of a run with "
                      "failed operations" % workload, file=sys.stderr)
                return 1
            update_golden(args.seed, record)
            golden = load_golden(args.seed)
        result = result_of(record, golden, spec, args.trace)
        results[workload] = result
        print_result(record, result)
        if not result["correct"]:
            status = 1
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "trace": args.trace, "workloads": results},
                      handle, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so a running child is killed and
    # waited for before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
