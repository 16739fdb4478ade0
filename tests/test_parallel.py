"""Parallel experiment engine tests: parallel == serial, cache reuse."""

import pytest

from repro.experiments import ExperimentRunner

NAMES = ("eqntott", "li")
GRID = [(name, letter, width)
        for name in NAMES
        for letter in ("A", "D")
        for width in (4, 8)]
SCALE = 0.03


def resolved(jobs, cache_dir=None):
    """A runner that prefetched ``GRID`` with ``jobs`` processes, and
    its results in ``GRID`` order."""
    runner = ExperimentRunner(scale=SCALE, widths=(4, 8), names=NAMES,
                              jobs=jobs, cache_dir=cache_dir)
    assert runner.prefetch(["A", "D"]) == len(GRID)
    return runner, [runner.result(*cell) for cell in GRID]


def assert_same_results(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.trace_name == b.trace_name
        assert a.config_name == b.config_name
        assert a.instructions == b.instructions
        assert a.cycles == b.cycles
        assert a.ipc == pytest.approx(b.ipc, abs=0)
        assert a.loads.counts == b.loads.counts
        assert a.branch.accuracy == b.branch.accuracy
        assert a.collapse.events == b.collapse.events
        assert a.collapse.collapsed == b.collapse.collapsed
        assert a.collapse.category_fractions() == \
            b.collapse.category_fractions()


def test_parallel_results_identical_to_serial():
    _, serial = resolved(jobs=1)
    _, parallel = resolved(jobs=2)
    assert [r.trace_name for r in serial] == [cell[0] for cell in GRID]
    assert_same_results(serial, parallel)


def test_parallel_profile_counts_every_cell():
    runner, _ = resolved(jobs=2)
    profile = runner.profile
    assert len(profile.cells) == len(GRID)
    assert profile.misses == len(GRID)
    assert profile.hits == 0
    assert all(seconds >= 0.0
               for _, _, _, seconds, _ in profile.cells)
    assert "8 cells" in profile.summary_line()
    assert "workload" in profile.render()


def test_warm_cache_serves_every_cell(tmp_path):
    cache_dir = tmp_path / "cache"
    cold_runner, cold = resolved(jobs=2, cache_dir=cache_dir)
    warm_runner, warm = resolved(jobs=2, cache_dir=cache_dir)
    assert cold_runner.profile.hits == 0
    assert warm_runner.profile.hits == len(GRID)
    assert warm_runner.profile.cache_counters["result_hits"] == len(GRID)
    assert_same_results(cold, warm)


def test_cache_works_without_pool(tmp_path):
    cache_dir = tmp_path / "cache"
    _, cold = resolved(jobs=1, cache_dir=cache_dir)
    runner, warm = resolved(jobs=1, cache_dir=cache_dir)
    assert runner.profile.hits == len(GRID)
    assert_same_results(cold, warm)


def test_pool_writes_one_progress_line(capsys):
    """The pool reports each finished cell on one rewritten stderr
    line; a serial prefetch, and a pool's single missing cell, which
    resolves in this process, write nothing."""
    resolved(jobs=2)
    err = capsys.readouterr().err
    assert err.count("\r") == len(GRID) and err.endswith("\n")
    assert "[%d/%d]" % (len(GRID), len(GRID)) in err
    for name, letter, width in GRID:
        assert "%s/w%-4d %s" % (letter, width, name) in err
    resolved(jobs=1)
    runner = ExperimentRunner(scale=SCALE, widths=(4,), names=NAMES[:1],
                              jobs=2)
    assert runner.prefetch(["A"]) == 1
    assert capsys.readouterr().err == ""


def test_runner_parallel_sweep_matches_serial_runner():
    names = ("eqntott", "li")
    serial = ExperimentRunner(scale=SCALE, widths=(4, 8), names=names)
    parallel = ExperimentRunner(scale=SCALE, widths=(4, 8), names=names,
                                jobs=2)
    serial_sweep = serial.sweep(["A", "D"])
    parallel_sweep = parallel.sweep(["A", "D"])
    assert set(serial_sweep) == set(parallel_sweep)
    for key in serial_sweep:
        assert_same_results(serial_sweep[key], parallel_sweep[key])


def test_runner_prefetch_fills_memo_and_profile():
    runner = ExperimentRunner(scale=SCALE, widths=(4, 4),
                              names=("eqntott",), jobs=2)
    resolved = runner.prefetch(["A", "D", "A"])   # each cell once
    assert resolved == 2
    assert runner.prefetch(["A", "D"]) == 0       # memo hits, no re-run
    assert len(runner.profile.cells) == 2
    result = runner.result("eqntott", "A", 4)
    assert result.trace_name == "eqntott"


def test_runner_disk_cache_round_trip(tmp_path):
    cache_dir = tmp_path / "cache"
    first = ExperimentRunner(scale=SCALE, widths=(4,),
                             names=("eqntott",), cache_dir=cache_dir)
    baseline = first.result("eqntott", "D", 4)
    second = ExperimentRunner(scale=SCALE, widths=(4,),
                              names=("eqntott",), cache_dir=cache_dir)
    cached = second.result("eqntott", "D", 4)
    assert second.cache.stats()["result_hits"] == 1
    assert_same_results([baseline], [cached])


def test_report_identical_with_and_without_jobs(tmp_path):
    from repro.experiments.report import generate
    serial = generate(scale=0.02, widths=(4, 8),
                      include_extensions=False)
    parallel = generate(scale=0.02, widths=(4, 8),
                        include_extensions=False, jobs=2,
                        cache_dir=tmp_path / "cache")

    def exhibits(text):
        # Strip the throwaway lines: generation timing is wall-clock.
        return [line for line in text.splitlines()
                if not line.startswith("_Generated")]

    assert exhibits(serial) == exhibits(parallel)


def test_report_profile_section(tmp_path):
    from repro.experiments.report import generate
    text = generate(scale=0.02, widths=(4,), include_extensions=False,
                    jobs=2, cache_dir=tmp_path / "cache", profile=True)
    assert "## Sweep profile" in text
    assert "cache counters" in text


def test_report_profile_counts_warm_cache_reads(tmp_path):
    """Serial and pooled profiles both render the runner's disk-cache
    counters: the parent's own reads plus every worker's."""
    import re
    from repro.experiments.report import generate
    cache_dir = tmp_path / "cache"
    generate(scale=0.01, widths=(8,), include_extensions=False, jobs=2,
             cache_dir=cache_dir)
    for jobs in (1, 2):
        text = generate(scale=0.01, widths=(8,), include_extensions=False,
                        jobs=jobs, cache_dir=cache_dir, profile=True)
        line = re.search(r"\(cache counters: (.*)\)", text).group(1)
        counters = {key: int(value)
                    for key, value in re.findall(r"(\w+)=(\d+)", line)}
        assert counters["result_hits"] > 0, jobs
        assert counters["trace_hits"] > 0, jobs
        assert counters["result_misses"] == 0, jobs


def test_workers_memoise_predictor_passes(monkeypatch):
    """A worker's runner runs each prediction pass once per (workload,
    scale, cache directory, predictor kind), and only for cells that
    use it."""
    from repro.experiments import parallel, runner
    calls = {"address": 0, "value": 0}

    def counting(kind, real):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return real(*args, **kwargs)
        return wrapper

    def run(cells):
        for index, (name, letter, width) in enumerate(cells):
            parallel._run_cell((index, name, letter, width, SCALE, None,
                                False, False))

    monkeypatch.setattr(runner, "load_outcomes",
                        counting("address", runner.load_outcomes))
    monkeypatch.setattr(runner, "value_outcomes",
                        counting("value", runner.value_outcomes))
    parallel._worker_runner.cache_clear()
    try:
        run([("eqntott", letter, width)
             for letter in ("A", "I", "J") for width in (4, 8)])
        assert calls == {"address": 0, "value": 1}
        run([("eqntott", letter, 16) for letter in ("B", "D", "I")])
        assert calls == {"address": 1, "value": 1}
    finally:
        # A pool forked from this process would inherit the runner.
        parallel._worker_runner.cache_clear()
