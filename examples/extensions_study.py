"""Beyond the paper: node elimination and load-value speculation.

The paper sketches both ideas (Figure 1.f and Figure 1.d) without
simulating them.  This example measures what they would have added on top
of configuration D:

- node elimination removes collapsed producers whose value nobody else
  needs — it frees issue slots, so it pays most at narrow widths;
- last-value prediction for loads attacks exactly the dependences that
  stride prediction cannot (the paper's "future research" direction for
  pointer chasers), but only where values repeat.

Run:  python examples/extensions_study.py [scale]
"""

import sys

from repro.core import (
    branch_outcomes,
    load_outcomes,
    simulate_trace,
    value_outcomes,
)
from repro.core.config import MachineConfig
from repro.collapse import CollapseRules
from repro.metrics import render_table
from repro.workloads import cached_trace, SUITE

WIDTH = 8


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    rows = []
    for workload in SUITE:
        trace = cached_trace(workload.name, scale)
        branch = branch_outcomes(trace)
        loads = load_outcomes(trace)
        values = value_outcomes(trace)

        def run(elim=False, vspec=False):
            config = MachineConfig(
                WIDTH, collapse_rules=CollapseRules.paper(),
                load_spec="real", node_elimination=elim,
                value_spec=vspec)
            return simulate_trace(trace, config, branch, loads, values)

        d = run()
        elim = run(elim=True)
        vspec = run(vspec=True)
        rows.append([
            workload.name,
            d.ipc,
            elim.ipc,
            vspec.ipc,
            100.0 * elim.collapse.eliminated / max(1, len(trace)),
            100.0 * values.raw_accuracy,
        ])
    print(render_table(
        ["workload", "D IPC", "+elim IPC", "+vspec IPC",
         "eliminated (%)", "value locality (%)"],
        rows, title="extension study (width %d, scale %.2f)"
        % (WIDTH, scale)))
    print("""
notes:
- "eliminated" instructions are collapsed producers nobody else reads
  (Figure 1.f); they free issue slots, which matters when width binds.
- "value locality" is the fraction of loads returning the same value as
  their previous dynamic instance [9]; our kernels stream fresh data, so
  locality is low and value speculation adds little -- matching why the
  paper left it to future work.
""")


if __name__ == "__main__":
    main()
