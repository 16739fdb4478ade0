"""Child process of the pipeline benchmark: time one workload.

``run.py`` starts this script in a fresh interpreter per workload
(``OMP_NUM_THREADS=1``, ``PYTHONPATH=src``), passing the input scale it
derived from the seed.  The script sets the workload up several times,
runs timed passes over the workload's operations for ``--seconds``,
and, with ``--trace 1``, repeats one set-up and the passes with
:mod:`spans` wrappers installed.  It prints one JSON line: end-to-end
metrics from the untraced phase, per-layer metrics from the traced
phase, and a digest of every operation's output for the golden check
``run.py`` makes.

By hand (from the repository root)::

    mkdir -p .pipeline_bench
    PYTHONPATH=src python benchmarks/pipeline/measure.py \\
        --workload sim-base --scale 0.053 --seconds 5 --scratch .pipeline_bench
"""

import argparse
import json
import time

import clock as clock_module

WORKLOADS = ("sim-base", "sim-spec", "report-cold", "report-warm")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True,
                        help="directory for report cache directories")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent spawned this "
                             "process (default: now)")
    parser.add_argument("--trace-out", default=None,
                        help="write the traced run's spans here (JSON)")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None \
        else time.time()
    clock = clock_module.Clock()
    clock.start()
    try:
        # The launch covers the interpreter start (raw) and every import
        # (at reference speed), so no timed call pays for a lazy import.
        begin = time.perf_counter()
        interpreter_s = time.time() - spawned_at
        import harness
        harness.spans.import_all()
        harness.kernel.active_kernel()
        launch_s = interpreter_s + clock.seconds(begin, time.perf_counter())
        record = harness.measure(args.workload, args.scale, args.seconds,
                                 args.trace, args.scratch, clock, launch_s,
                                 args.trace_out)
    finally:
        clock.stop()
    print(json.dumps(record, sort_keys=True))


if __name__ == "__main__":
    main()
