"""Golden pin of ``repro lint`` output.

``golden/lint_cli.json`` holds the exit code and standard output of
every ``repro lint`` invocation the CI workflow runs: each static-vs-
dynamic check over ``--all`` workloads at the scales CI uses, the
worked example tables of ``examples/*.s`` and the ``--list`` pass
table.  Any change to a table, a check line or an exit status fails
here.  After a deliberate output change, rewrite the file with
``PYTHONPATH=src python -m pytest tests/test_golden_lint.py
--regen-golden`` and justify the diff.
"""

import json
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).parent / "golden" / "lint_cli.json"
ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted("examples/%s" % path.name
                  for path in (ROOT / "examples").glob("*.s"))

#: label -> ``repro lint`` arguments, as the CI workflow spells them
INVOCATIONS = {
    "all-cross-check-0.05": ["--all", "--scale", "0.05", "--cross-check"],
    "all-addr-check-0.05": ["--all", "--scale", "0.05", "--addr-check"],
    "all-recur-check-0.03": ["--all", "--recur-check", "--scale", "0.03"],
    "all-memdep-check-0.03": ["--all", "--memdep-check", "--scale", "0.03"],
    "all-memdep-check-0.05": ["--all", "--memdep-check", "--scale", "0.05"],
    "all-value-check-0.03": ["--all", "--value-check", "--scale", "0.03"],
    "all-value-check-0.05": ["--all", "--value-check", "--scale", "0.05"],
    "all-dae-check-0.03": ["--all", "--dae-check", "--scale", "0.03"],
    "all-dae-check-0.05": ["--all", "--dae-check", "--scale", "0.05"],
    "all-branch-check-0.03": ["--all", "--branch-check", "--scale", "0.03"],
    "all-branch-check-0.05": ["--all", "--branch-check", "--scale", "0.05"],
    "examples-addr": EXAMPLES + ["--addr"],
    "recurrence-chain-recur": ["examples/recurrence_chain.s", "--recur"],
    "ijpeg-memdep-0.03": ["ijpeg", "--scale", "0.03", "--memdep"],
    "value-chain-value-recur": ["examples/value_chain.s", "--value",
                                "--recur"],
    "dae-stream-dae": ["examples/dae_stream.s", "--dae"],
    "exit-branch-branch": ["examples/exit_branch.s", "--branch"],
    "list": ["--list"],
}


def lint_outputs(capsys):
    """``{label: {"argv", "exit", "stdout"}}`` from the current code,
    run from the repository root so example paths print as CI's do."""
    outputs = {}
    for label, argv in INVOCATIONS.items():
        code = main(["lint"] + argv)
        stdout = capsys.readouterr().out
        outputs[label] = {"argv": argv, "exit": code,
                          "stdout": stdout.split("\n")}
    return outputs


def test_lint_output_matches_golden_file(regen_golden, capsys,
                                         monkeypatch):
    monkeypatch.chdir(ROOT)
    current = lint_outputs(capsys)
    if regen_golden:
        GOLDEN.parent.mkdir(exist_ok=True)
        with open(GOLDEN, "w") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    changed = sorted(label for label in set(golden) | set(current)
                     if golden.get(label) != current.get(label))
    assert not changed, (
        "%d lint invocations differ from %s (%s); rewrite it with "
        "--regen-golden only for a deliberate output change"
        % (len(changed), GOLDEN.name, ", ".join(changed)))


def test_golden_covers_every_ci_invocation_and_all_exit_clean():
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    assert set(golden) == set(INVOCATIONS)
    assert all(entry["exit"] == 0 for entry in golden.values())
    examples = golden["examples-addr"]["stdout"]
    for path in EXAMPLES:
        assert any(line.startswith(path + ": clean") for line in examples)
