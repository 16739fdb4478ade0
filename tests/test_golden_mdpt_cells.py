"""Golden pin of F and G cells where the MDPT has trained.

At the scales of ``golden/sim_cells.json`` (0.03) the store-set
predictor sees almost no violations, so a change to squash/replay or
synchronization could pass that pin unseen.  ``golden/mdpt_cells.json``
holds, for ``eqntott`` at scale 0.3 and issue widths 8 and 2048, the
cycle count and a SHA-256 of ``SimResult.to_payload()`` of F, G and G
with node elimination: cells that make 8-87 violations, squash up to
394 instructions and (G+elim) eliminate about 12.5k producers.
``--regen-golden`` rewrites the file (see ``test_golden_cells.py``).
"""

import hashlib
import json
from pathlib import Path

from repro.core.config import paper_config
from repro.core.simulator import simulate_many
from repro.workloads.registry import cached_trace

GOLDEN = Path(__file__).parent / "golden" / "mdpt_cells.json"
WORKLOAD = "eqntott"
SCALE = 0.3
WIDTHS = (8, 2048)
#: (label, letter, node elimination); ``paper_config`` names G+elim
#: ``G/w<width>`` like plain G, so the label is set here.
MACHINES = (("F", "F", False), ("G", "G", False), ("G+elim", "G", True))


def payload_digest(result):
    payload = json.dumps(result.to_payload(), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def mdpt_digests():
    """``{"eqntott/<label>/w<width>": {"cycles", "sha256"}}`` computed
    from the current code."""
    labels = []
    configs = []
    for width in WIDTHS:
        for label, letter, elim in MACHINES:
            labels.append("%s/%s/w%d" % (WORKLOAD, label, width))
            configs.append(paper_config(letter, width,
                                        node_elimination=elim))
    results = simulate_many(cached_trace(WORKLOAD, SCALE), configs)
    cells = {label: {"cycles": result.cycles,
                     "sha256": payload_digest(result)}
             for label, result in zip(labels, results)}
    return {"scale": SCALE, "widths": list(WIDTHS), "cells": cells}


def test_mdpt_cells_match_golden_file(regen_golden):
    current = mdpt_digests()
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
    assert len(golden["cells"]) == len(MACHINES) * len(WIDTHS)
