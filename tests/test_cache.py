"""Disk-cache (repro.cache) behaviour tests."""

import json
import os

import pytest

from synth import strided_load_loop

from repro.cache import CACHE_FORMAT_VERSION, DiskCache, code_fingerprint
from repro.core import paper_config, simulate_trace
from repro.core.results import SimResult
from repro.errors import ReproError
from repro.workloads import cached_trace


@pytest.fixture
def cache(tmp_path):
    return DiskCache(tmp_path / "cache")


def _result(width=8, keep_schedules=False):
    trace = strided_load_loop(120)
    result = simulate_trace(trace, paper_config("D", width))
    if not keep_schedules:
        result.issue_cycles = None
    return trace, result


def test_code_fingerprint_stable_and_nonempty():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64
    assert CACHE_FORMAT_VERSION == 1


@pytest.mark.parametrize("module", ["memdep/mdpt.py", "counters.py",
                                    "nscan.py", "experiments/extensions.py",
                                    "core/scheduler.py"])
def test_code_fingerprint_covers_every_module(module, tmp_path,
                                              monkeypatch):
    """Editing any module the simulator or a cached blob runs through
    (here: a copy of the package) must change the fingerprint — e.g.
    the MDPT flush penalty in memdep/, which F/G cells depend on."""
    import shutil

    import repro.cache as cache_module
    package = tmp_path / "repro"
    shutil.copytree(os.path.dirname(cache_module.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(cache_module, "__file__",
                        str(package / "cache.py"))
    monkeypatch.setattr(cache_module, "_code_fingerprint", None)
    before = code_fingerprint()
    with open(package / module, "a") as handle:
        handle.write("\n# edited\n")
    monkeypatch.setattr(cache_module, "_code_fingerprint", None)
    assert code_fingerprint() != before


def test_trace_round_trip_counts_hit_and_miss(cache):
    trace = cached_trace("eqntott", 0.03)
    assert cache.load_trace("eqntott", 0.03) is None
    cache.store_trace(trace, "eqntott", 0.03)
    loaded = cache.load_trace("eqntott", 0.03)
    assert loaded.sidx == trace.sidx
    assert loaded.mem_value == trace.mem_value
    assert cache.stats() == {"trace_hits": 1, "trace_misses": 1,
                             "result_hits": 0, "result_misses": 0,
                             "blob_hits": 0, "blob_misses": 0}


def test_unreadable_trace_entry_is_a_miss(cache):
    trace = cached_trace("eqntott", 0.03)
    cache.store_trace(trace, "eqntott", 0.03)
    with open(cache.trace_path("eqntott", 0.03), "wb") as handle:
        handle.write(b"NOTATRACE")
    assert cache.load_trace("eqntott", 0.03) is None
    regenerated = cache.get_trace("eqntott", 0.03,
                                  lambda: cached_trace("eqntott", 0.03))
    assert regenerated.sidx == trace.sidx
    assert cache.load_trace("eqntott", 0.03).sidx == trace.sidx


def test_corrupt_trace_header_is_a_miss_and_regenerates(cache):
    """A cached trace whose header is garbage counts as a miss, and
    get_trace writes a loadable trace back over it."""
    import struct
    path = cache.trace_path("eqntott", 0.03)
    garbage = b"{not json"
    with open(path, "wb") as handle:
        handle.write(b"REPROTR2" + struct.pack("<Q", len(garbage))
                     + garbage)
    assert cache.load_trace("eqntott", 0.03) is None
    assert cache.stats()["trace_misses"] == 1
    trace = cached_trace("eqntott", 0.03)
    regenerated = cache.get_trace("eqntott", 0.03, lambda: trace)
    assert regenerated is trace
    assert cache.load_trace("eqntott", 0.03).sidx == trace.sidx
    assert cache.stats()["trace_hits"] == 1


def test_get_trace_generates_once(cache):
    calls = []

    def generate():
        calls.append(1)
        return cached_trace("li", 0.03)

    first = cache.get_trace("li", 0.03, generate)
    second = cache.get_trace("li", 0.03, generate)
    assert len(calls) == 1
    assert first.sidx == second.sidx


def test_result_round_trip_preserves_derived_measures(cache):
    trace, result = _result()
    config = paper_config("D", 8)
    assert cache.load_result("synth", 0.1, config) is None
    cache.store_result(result, "synth", 0.1, config)
    loaded = cache.load_result("synth", 0.1, config)
    assert loaded.cycles == result.cycles
    assert loaded.instructions == result.instructions
    assert loaded.ipc == pytest.approx(result.ipc)
    assert loaded.config_name == result.config_name
    assert loaded.loads.counts == result.loads.counts
    assert loaded.loads.fractions() == result.loads.fractions()
    assert (loaded.branch.correct, loaded.branch.conditional) \
        == (result.branch.correct, result.branch.conditional)
    assert loaded.branch.mispredicted == result.branch.mispredicted
    collapse, original = loaded.collapse, result.collapse
    assert collapse.events == original.events
    assert collapse.collapsed == original.collapsed
    assert collapse.collapsed_fraction == \
        pytest.approx(original.collapsed_fraction)
    assert collapse.category_fractions() == original.category_fractions()
    assert collapse.distance_histogram() == original.distance_histogram()
    assert collapse.top_pairs() == original.top_pairs()
    assert collapse.top_triples() == original.top_triples()


def test_result_key_separates_configs_scales_and_names(cache):
    keys = {
        cache.result_key("a", 0.1, paper_config("A", 8)),
        cache.result_key("a", 0.1, paper_config("D", 8)),
        cache.result_key("a", 0.1, paper_config("D", 16)),
        cache.result_key("a", 0.2, paper_config("D", 8)),
        cache.result_key("b", 0.1, paper_config("D", 8)),
    }
    assert len(keys) == 5


def test_result_extra_key_separates_entries(cache):
    config = paper_config("D", 8)
    assert cache.result_key("a", 0.1, config) != \
        cache.result_key("a", 0.1, config, extra={"addrpred": "markov"})


def test_blob_round_trip_counts_hit_and_miss(cache):
    assert cache.load_blob("pass", {"name": "a"}) is None
    cache.store_blob("pass", {"name": "a"}, {"x": [1, 2]})
    assert cache.load_blob("pass", {"name": "a"}) == {"x": [1, 2]}
    assert cache.load_blob("pass", {"name": "b"}) is None
    assert cache.counters["blob_hits"] == 1
    assert cache.counters["blob_misses"] == 2


def test_corrupt_result_entry_is_a_miss(cache):
    trace, result = _result()
    config = paper_config("D", 8)
    cache.store_result(result, "synth", 0.1, config)
    with open(cache.result_path("synth", 0.1, config), "w") as handle:
        handle.write("{not json")
    assert cache.load_result("synth", 0.1, config) is None


def test_issue_cycles_and_eliminated_positions_round_trip(tmp_path):
    from repro.collapse import CollapseRules
    from repro.core import MachineConfig
    trace = strided_load_loop(80)
    config = MachineConfig(8, collapse_rules=CollapseRules.paper(),
                           node_elimination=True)
    result = simulate_trace(trace, config)
    loaded = SimResult.from_payload(
        json.loads(json.dumps(result.to_payload())))
    assert loaded.issue_cycles == result.issue_cycles
    assert loaded.eliminated_positions == result.eliminated_positions


def test_merge_counters_rejects_unknown_keys(cache):
    with pytest.raises(ReproError):
        cache.merge_counters({"bogus": 1})


def test_cache_layout_on_disk(cache, tmp_path):
    trace, result = _result()
    config = paper_config("D", 8)
    cache.store_trace(trace, "synth", 0.1)
    cache.store_result(result, "synth", 0.1, config)
    assert os.listdir(cache.trace_dir)
    assert os.listdir(cache.result_dir)
    # no leftover temp files from atomic writes
    for directory in (cache.trace_dir, cache.result_dir):
        assert not [entry for entry in os.listdir(directory)
                    if entry.endswith(".tmp")]
