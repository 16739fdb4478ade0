"""Golden pin of the Extension exhibit's node-elimination and oracle
value-speculation cells.

``golden/extension_cells.json`` holds, for every registered workload at
issue widths 8 and 2048 and scale 0.03, the cycle count and a SHA-256 of
``SimResult.to_payload()`` of the exhibit's ``D+elim``, ``D+vspec`` and
``D+both`` machines (``repro.experiments.extensions``), fed the
exhibit's last-value pass.  The digest leaves out the ``value_spec``
counters: they record how the oracle mode is carried out, not what it
simulates; every issue cycle, load category, collapse event and
eliminated position is in it.  ``--regen-golden`` rewrites the file
(see ``test_golden_cells.py``).
"""

import hashlib
import json
from pathlib import Path

from repro.core.simulator import simulate_many
from repro.experiments.extensions import _VARIANTS, _variant_config
from repro.workloads.registry import WORKLOADS, cached_trace

GOLDEN = Path(__file__).parent / "golden" / "extension_cells.json"
SCALE = 0.03
WIDTHS = (8, 2048)
VARIANTS = [(label, elim, vspec) for label, elim, vspec in _VARIANTS
            if elim or vspec]


def payload_digest(result):
    payload = result.to_payload()
    del payload["value_spec"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def extension_digests():
    """``{"<workload>/<variant>/w<width>": {"cycles", "sha256"}}``
    computed from the current code."""
    cells = {}
    for name in sorted(WORKLOADS):
        labels = []
        configs = []
        for width in WIDTHS:
            for label, elim, vspec in VARIANTS:
                labels.append("%s/%s/w%d" % (name, label, width))
                configs.append(_variant_config(width, elim, vspec))
        # simulate_many feeds value_spec=True the last-value pass, as
        # the exhibit does.
        results = simulate_many(cached_trace(name, SCALE), configs)
        for label, result in zip(labels, results):
            cells[label] = {"cycles": result.cycles,
                            "sha256": payload_digest(result)}
    return {"scale": SCALE, "widths": list(WIDTHS), "cells": cells}


def test_extension_cells_match_golden_file(regen_golden):
    current = extension_digests()
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
    assert len(golden["cells"]) == \
        len(WORKLOADS) * len(VARIANTS) * len(WIDTHS)
