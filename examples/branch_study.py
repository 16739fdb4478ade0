"""Worked example: load-driven exit-branch prediction (config J).

The branchflow pass (`repro.lint.branchflow`, docs/LINT.md) classifies
every conditional branch of exit_branch.s and proves, *before running
anything*, that the array-scan loop's exit is governed by a single
stride-classified load — so configuration J (I + load-driven
exit-branch prediction) can resolve it at the load's
address-generation time — while the list walk's exit is governed by a
pointer-chasing load the plan must exclude: that exit is
data-dependent in a way no load-driven predictor can see coming.

The script shows the static classification table, the derived
:class:`BranchPlan`, an I-vs-J simulation where the planned exit's
misprediction fence is waived, and the soundness chain the
cross-check proves: static accuracy ceiling >= measured combining
accuracy >= config-J early-resolution coverage.

Run:  python examples/branch_study.py
"""

import os

from repro.asm import assemble
from repro.core.config import paper_config
from repro.core.simulator import simulate_trace
from repro.emu import trace_program
from repro.lint import BranchFlowAnalysis, branchflow_cross_check
from repro.metrics import render_table

EXAMPLES = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(EXAMPLES, "exit_branch.s")) as handle:
        program = assemble(handle.read())

    # -- static half: classify every conditional branch ----------------
    analysis = BranchFlowAnalysis(program)
    print(render_table(
        ["index", "line", "class", "trip", "period", "exit", "load",
         "note"],
        analysis.summary_rows(),
        title="exit_branch.s — branch predictability"))
    plan = analysis.plan()
    print("plan: %d load-driven exit branch(es): %r"
          % (len(plan.resolves), plan.resolves))
    assert len(plan.resolves) == 1, \
        "only the stride-governed scan exit is resolvable"
    print()

    # -- dynamic half: I vs J ------------------------------------------
    trace, _, _ = trace_program(program, name="exit_branch")
    width = 2
    base = simulate_trace(trace, paper_config("I", width))
    ldbp = simulate_trace(trace, paper_config("J", width),
                          branch_plan=plan, sanitize=True)
    bspec = ldbp.branch_spec
    print("width %d:" % (width,))
    print("  I: %4d cycles (%5.3f IPC)" % (base.cycles, base.ipc))
    print("  J: %4d cycles (%5.3f IPC), %d/%d planned-exit "
          "mispredictions resolved at address-generation time"
          % (ldbp.cycles, ldbp.ipc, bspec.early_resolved,
             bspec.early_resolved + bspec.missed))
    assert ldbp.cycles <= base.cycles
    # The warm final exit resolves early (the governing load's stride
    # value prediction is confident and correct); the cold first-lap
    # misprediction cannot — and the chase loop's exit never appears
    # in the stats at all, because the plan excludes it.
    assert bspec.early_resolved >= 1
    print()

    # -- the proof: the soundness chain --------------------------------
    sims = {"C": simulate_trace(trace, paper_config("C", width)),
            "I": base, "J": ldbp}
    check = branchflow_cross_check(analysis, trace, sim_results=sims)
    print("cross-check: %s (%d sites, %d trip floors; ceiling %.4f >= "
          "accuracy %.4f >= early coverage %.4f)"
          % ("ok" if check.ok else "FAILED", check.sites,
             check.floors_checked, check.ceiling, check.accuracy,
             check.early_coverage))
    assert check.ok, check.violations


if __name__ == "__main__":
    main()
