"""Load-speculation semantics in the timing model (Section 3 + Tables 3-4).

These tests drive the scheduler with handcrafted prediction outcomes so
each load category and its timing effect is pinned down exactly.
"""

from helpers import make_load_prediction, sim

from repro.trace.records import TraceBuilder


def slow_address_load():
    """A load whose address is produced by a 3-add chain.

    positions: 0,1,2 = chain; 3 = load; 4 = consumer of the load.
    Base timing: adds @0,1,2; load @3 (addr at 3); consumer @5.
    """
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.load(dest=2, addr_reg=1, addr=0x100)
    builder.add(dest=3, src1=2, imm=True)
    return builder.build()


def test_base_machine_waits_for_address():
    result = sim(slow_address_load(), width=4)
    assert result.cycles == 6
    assert result.loads.counts["ready"] == 0
    # Without load-speculation all non-ready loads are "not predicted".
    assert result.loads.counts["not_predicted"] == 1


def test_correct_prediction_hides_address_chain():
    prediction = make_load_prediction(attempted={3: True},
                                      correct={3: True})
    result = sim(slow_address_load(), width=4, load_spec="real",
                 load_pred=prediction)
    # Load issues @0 (ignores address deps), completes @2, consumer @2.
    # The add chain still runs to @2; last issue at 2 -> 3 cycles.
    assert result.cycles == 3
    assert result.loads.counts["predicted_correctly"] == 1


def test_wrong_prediction_keeps_base_timing():
    prediction = make_load_prediction(attempted={3: True},
                                      correct={3: False})
    result = sim(slow_address_load(), width=4, load_spec="real",
                 load_pred=prediction)
    assert result.cycles == 6
    assert result.loads.counts["predicted_incorrectly"] == 1


def test_low_confidence_not_predicted():
    prediction = make_load_prediction(attempted={3: False},
                                      correct={3: True})
    result = sim(slow_address_load(), width=4, load_spec="real",
                 load_pred=prediction)
    assert result.cycles == 6
    assert result.loads.counts["not_predicted"] == 1


def test_ideal_speculation_equals_correct_prediction():
    ideal = sim(slow_address_load(), width=4, load_spec="ideal")
    assert ideal.cycles == 3
    assert ideal.loads.counts["predicted_correctly"] == 1


def test_ready_load_never_uses_the_table():
    """Address available at window entry -> ready, even in real mode."""
    builder = TraceBuilder()
    builder.load(dest=2, addr_reg=9, addr=0x100)   # r9 never written
    builder.add(dest=3, src1=2, imm=True)
    prediction = make_load_prediction(attempted={0: True},
                                      correct={0: False})
    result = sim(builder.build(), width=4, load_spec="real",
                 load_pred=prediction)
    assert result.loads.counts["ready"] == 1
    assert result.cycles == 3      # ld@0 completes @2, add@2


def test_speculated_load_still_respects_memory_dependence():
    """Prediction removes address-generation deps only: a same-word store
    ahead of the load still orders it."""
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)              # 0: data chain
    builder.add(dest=1, src1=1, imm=True)              # 1
    builder.store(datasrc=1, addr_reg=8, addr=0x100)   # 2: st @2
    builder.add(dest=4, src1=4, imm=True)              # 3: addr producer
    builder.load(dest=2, addr_reg=4, addr=0x100)       # 4: same word
    prediction = make_load_prediction(attempted={4: True},
                                      correct={4: True})
    result = sim(builder.build(), width=4, load_spec="real",
                 load_pred=prediction)
    # Store issues @2, completes @3 -> load @3 despite perfect address.
    assert result.cycles == 4
    assert result.loads.counts["predicted_correctly"] == 1


def test_load_categories_partition_all_loads():
    from repro.core import paper_config, simulate_trace
    from repro.trace.synth import random_trace
    trace = random_trace(500, seed=8)
    result = simulate_trace(trace, paper_config("D", 8))
    loads = sum(1 for s in trace.sidx if trace.static.cls[s] == 4)
    assert result.loads.total == loads
    fractions = result.loads.fractions()
    assert abs(sum(fractions.values()) - 1.0) < 1e-9


def test_window_size_affects_readiness():
    """With a tiny window the load enters late (address already computed,
    ready); with a big window it enters early (not ready)."""
    trace = slow_address_load()
    small = sim(trace, width=1, window=1)
    big = sim(trace, width=4, window=8)
    assert small.loads.counts["ready"] == 1
    assert big.loads.counts["ready"] == 0
