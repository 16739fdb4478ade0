"""Worked example: result-value speculation (configuration I).

The valueflow pass (`repro.lint.valueflow`, docs/LINT.md) classifies
value_chain.s's result producers *before running anything*: the spilled
counter's load is `load`-class (an in-loop store aliases it), the
chase-loop bias reload is `invariant`, the pointer walk is `load`.
Recurrence variant V then prices each loop's carried cycles with every
statically value-predictable arc cut: the 4-cycle memory-carried
counter recurrence dissolves (recMII V = 0) while machines A, C and E
all keep it.

The dynamic half simulates configuration C against configuration I and
shows which cut arcs the machine actually cashes in: the counter's
value stream strides by 1, the two-delta table locks on, and the
bypass collapses the spill loop; the shuffled pointer stream never
opens the confidence gate, so the chase recurrence stands.  The
valueflow cross-check then ties the halves together: per-PC re-lock
floors on the invariant load, the class-capped coverage bound, and the
chain *static V ceiling >= graph-V IPC >= simulated config-I IPC*.

Run:  python examples/value_study.py
"""

import os

from repro.asm import assemble
from repro.core import simulate_trace
from repro.core.config import paper_config
from repro.emu import trace_program
from repro.lint import (
    RecurrenceAnalysis,
    ValueFlowAnalysis,
    valueflow_cross_check,
)
from repro.metrics import render_table

EXAMPLES = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(EXAMPLES, "value_chain.s")) as handle:
        program = assemble(handle.read())

    # -- static half: classify every result producer -------------------
    valueflow = ValueFlowAnalysis(program)
    in_loops = [row for row in valueflow.summary_rows() if row[5] > 0]
    print(render_table(
        ["index", "line", "class", "stride/k", "loop line", "depth"],
        in_loops,
        title="value_chain.s — result-value classes (loop bodies)"))
    counts = valueflow.class_counts()
    print("value classes: " + "  ".join(
        "%s %d" % (cls, n) for cls, n in counts.items() if n))
    print()

    recurrence = RecurrenceAnalysis(program, valueflow=valueflow)
    print(render_table(
        ["line", "body", "nodes", "cycles",
         "recMII A", "recMII C", "recMII E", "recMII V",
         "ceil A", "ceil C", "ceil E", "ceil V", "note"],
        [list(row) for row in recurrence.summary_rows()],
        title="loop recurrence bounds"))
    spill, chase = recurrence.loops
    assert spill.recmii("A") == spill.recmii("C") == spill.recmii("E") == 4
    # The cut dissolves the counter cycle: no recurrence binds V.
    assert spill.ipc_ceiling("V") is None
    assert chase.recmii("A") == chase.recmii("C") == chase.recmii("E") == 2
    print("spill loop: recMII 4 in A/C/E, unbound in V — only value "
          "speculation breaks a memory-carried counter")
    print()

    # -- dynamic half: C vs I ------------------------------------------
    trace, _, _ = trace_program(program, name="value_chain")
    width = 4
    base = simulate_trace(trace, paper_config("C", width))
    spec = simulate_trace(trace, paper_config("I", width), sanitize=True)
    vspec = spec.value_spec
    print("width %d:" % (width,))
    print("  C: %6.3f IPC" % (base.ipc,))
    print("  I: %6.3f IPC (%.3fx): %d bypassed, %d speculated, "
          "%d late, %d squashes, %d replays"
          % (spec.ipc, spec.speedup_over(base), vspec.bypassed,
             vspec.speculated, vspec.late, vspec.squashes,
             vspec.replays))
    assert spec.ipc > base.ipc        # the spill loop dominates
    assert vspec.replays == vspec.squashes
    print()

    # -- the proof: static claims vs dynamic behaviour ------------------
    widest = 64
    check = valueflow_cross_check(
        valueflow, trace, recurrence=recurrence,
        sim_ipc=simulate_trace(trace, paper_config("I", widest)).ipc,
        widest=widest)
    print("cross-check: %s (%d site(s) checked, steady accuracy %.3f; "
          "coverage %.3f within bound %.3f)"
          % ("ok" if check.ok else "FAILED", check.checked_sites,
             check.steady_accuracy, check.dynamic_coverage,
             check.coverage_bound))
    ceiling = "%.2f" % (check.static_bound,) \
        if check.static_bound is not None else "inf"
    print("variant-V chain: static ceiling %s IPC >= graph-V %.2f IPC "
          ">= simulated I %.2f IPC (width %d)"
          % (ceiling, check.graph_ipc, check.sim_ipc, check.widest))
    assert check.ok, check.violations


if __name__ == "__main__":
    main()
