"""Golden pin of the simulated cell grid.

``golden/sim_cells.json`` holds, for every registered workload, every
registered configuration letter and issue widths 8 and 2048 at scale
0.03, the cycle count and a SHA-256 of the whole
``SimResult.to_payload()``: issue cycles, load categories, collapse
events and every per-mechanism counter.  Any change to a simulated
result fails here.  After a deliberate model change, rewrite the file
with ``PYTHONPATH=src python -m pytest tests/test_golden_cells.py
--regen-golden`` and justify the diff.
"""

import hashlib
import json
from pathlib import Path

from repro.core.config import config_letters, paper_config
from repro.core.simulator import simulate_many
from repro.workloads.registry import (
    WORKLOADS,
    cached_branch_plan,
    cached_dae_plan,
    cached_trace,
)

GOLDEN = Path(__file__).parent / "golden" / "sim_cells.json"
SCALE = 0.03
WIDTHS = (8, 2048)


def payload_digest(result):
    payload = json.dumps(result.to_payload(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def grid_digests():
    """``{"<workload>/<letter>/w<width>": {"cycles", "sha256"}}`` for
    the whole grid, computed from the current code."""
    cells = {}
    for name in sorted(WORKLOADS):
        configs = [paper_config(letter, width)
                   for letter in config_letters() for width in WIDTHS]
        results = simulate_many(cached_trace(name, SCALE), configs,
                                dae_plan=cached_dae_plan(name, SCALE),
                                branch_plan=cached_branch_plan(name, SCALE))
        for config, result in zip(configs, results):
            cells["%s/%s" % (name, config.name)] = {
                "cycles": result.cycles,
                "sha256": payload_digest(result),
            }
    return {"scale": SCALE, "widths": list(WIDTHS), "cells": cells}


def test_grid_matches_golden_file(regen_golden):
    current = grid_digests()
    if regen_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        with open(GOLDEN, "w") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    changed = sorted(label for label in set(golden["cells"])
                     | set(current["cells"])
                     if golden["cells"].get(label)
                     != current["cells"].get(label))
    assert not changed, (
        "%d cells differ from %s (first: %s); rewrite it with "
        "--regen-golden only for a deliberate model change"
        % (len(changed), GOLDEN.name, ", ".join(changed[:5])))
    assert golden == current


def test_grid_covers_every_workload_letter_and_width():
    with open(GOLDEN) as handle:
        cells = json.load(handle)["cells"]
    assert len(cells) == len(WORKLOADS) * len(config_letters()) * len(WIDTHS)
    # vortex is the one workload whose J cells waive a fetch fence, so
    # the pin covers the branch-plan path too.
    config = paper_config("J", 8)
    [result] = simulate_many(cached_trace("vortex", SCALE), [config],
                             branch_plan=cached_branch_plan("vortex", SCALE))
    assert result.branch_spec.early_resolved > 0
    assert "vortex/J/w8" in cells
