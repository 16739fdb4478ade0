"""A, C and E simulations never import numpy.

The scheduler's modules import ``repro.core.elimination`` and the
branch predictor at load time, so a module-level ``import numpy`` in
either would reach every cell.  Node elimination and the vectorized
passes import numpy inside their functions instead, and
``branch_outcomes`` runs the scalar combining-predictor loop, so a run
that uses neither stays numpy-free.  B is the contrast: its load
address pass is vectorized.  The probe runs in a fresh interpreter,
because the test process itself has numpy loaded.
"""

import json
import os
import subprocess
import sys

import repro

#: the directory holding the ``repro`` package, for the child interpreter
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PROBE = """
import json, sys
import repro.cli
from repro.core.config import paper_config
from repro.core.simulator import simulate_trace
from repro.workloads import cached_trace

trace = cached_trace("eqntott", 0.02)
loaded = {}
for letter in "ACEB":
    simulate_trace(trace, paper_config(letter, 8))
    loaded[letter] = "numpy" in sys.modules
print(json.dumps(loaded))
"""


def test_a_c_and_e_simulations_import_no_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE],
                          capture_output=True, text=True, env=env,
                          check=True)
    assert json.loads(proc.stdout) == {
        "A": False, "C": False, "E": False, "B": True}
