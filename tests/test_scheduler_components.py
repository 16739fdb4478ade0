"""Selection of the scheduler's speculation components from the config.

The core issue loop is the paper's machine; configurations that enable
none of ``mem_spec="mdpt"``, ``dae``, ``value_spec`` or ``branch_spec``
(A-E) must run it with no component at all.
"""

from types import SimpleNamespace

import pytest

from helpers import make_branch_result

from repro.core import WindowScheduler, paper_config
from repro.core.components import (
    Decoupling,
    ExitBranchResolution,
    MemorySpeculation,
    ValueSpeculation,
    build_components,
)
from repro.core.config import MEM_SPEC_MDPT, MachineConfig, config_letters
from repro.core.simulator import load_outcomes, value_outcomes
from repro.errors import ConfigError
from repro.workloads.registry import (
    cached_branch_plan,
    cached_dae_plan,
    cached_trace,
)

SCALE = 0.03


def components(letter, core=None, name="compress"):
    trace = cached_trace(name, SCALE)
    config = paper_config(letter, 8)
    scheduler = WindowScheduler(
        trace, config, make_branch_result(trace), load_outcomes(trace),
        value_outcomes(trace, predictor="stride"),
        dae_plan=cached_dae_plan(name, SCALE),
        branch_plan=cached_branch_plan(name, SCALE))
    return build_components(scheduler, core)


def speculates(config):
    return (config.mem_spec == MEM_SPEC_MDPT or config.dae
            or config.value_spec or config.branch_spec)


def test_non_speculative_letters_build_no_component():
    plain = [letter for letter in config_letters()
             if not speculates(paper_config(letter, 8))]
    assert set("ABCDE") <= set(plain)
    for letter in plain:
        # Nothing is built, so nothing touches the core's state.
        assert components(letter, core=None) == ([], None)


@pytest.mark.parametrize("letter, kinds", [
    ("F", [MemorySpeculation]),
    ("G", [MemorySpeculation]),
    ("H", [Decoupling]),
    ("I", [ValueSpeculation]),
    ("J", [ValueSpeculation, ExitBranchResolution]),
])
def test_speculative_letters_build_their_components(letter, kinds):
    core = SimpleNamespace(issue_cycle=[], completion=[], reg_writer=[])
    parts, recovery = components(letter, core)
    assert [type(part) for part in parts] == kinds
    assert (recovery is not None) == (letter in "FGIJ")


def test_oracle_value_mode_requires_perfect_memory():
    """The oracle runs config I's replay path, whose recovery engine
    MDPT speculation would also drive."""
    with pytest.raises(ConfigError):
        MachineConfig(8, value_spec=True, mem_spec=MEM_SPEC_MDPT)
