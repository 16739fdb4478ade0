"""Machine-configuration preset and registry tests."""

import pytest

from repro.collapse import CollapseRules
from repro.core import (
    MachineConfig,
    PAPER_ISSUE_WIDTHS,
    config_letters,
    config_specs,
    get_config_spec,
    paper_config,
    register_config,
    unregister_config,
)
from repro.errors import ConfigError


def test_window_defaults_to_twice_width():
    for width in PAPER_ISSUE_WIDTHS:
        assert MachineConfig(width).window_size == 2 * width


def test_paper_widths():
    assert PAPER_ISSUE_WIDTHS == (4, 8, 16, 32, 2048)


def test_config_a_is_plain():
    config = paper_config("A", 8)
    assert not config.collapsing
    assert config.load_spec == "none"
    assert config.features() == []


def test_config_b_real_speculation():
    config = paper_config("B", 8)
    assert config.load_spec == "real"
    assert not config.collapsing


def test_config_c_collapsing_only():
    config = paper_config("C", 8)
    assert config.collapsing
    assert config.load_spec == "none"


def test_config_d_both():
    config = paper_config("D", 8)
    assert config.collapsing
    assert config.load_spec == "real"


def test_config_e_ideal():
    config = paper_config("E", 8)
    assert config.collapsing
    assert config.load_spec == "ideal"


def test_paper_config_dispatch():
    for letter in "ABCDE":
        config = paper_config(letter, 16)
        assert config.issue_width == 16
        assert config.name.startswith(letter)
    assert paper_config("d", 4).load_spec == "real"


def test_paper_config_unknown_letter():
    with pytest.raises(ConfigError):
        paper_config("Z", 8)


def test_custom_collapse_rules_pass_through():
    rules = CollapseRules.pairs_only()
    config = paper_config("C", 8, rules=rules)
    assert config.collapse_rules is rules


def test_validation_errors():
    with pytest.raises(ConfigError):
        MachineConfig(0)
    with pytest.raises(ConfigError):
        MachineConfig(8, window_size=4)
    with pytest.raises(ConfigError):
        MachineConfig(8, load_spec="magic")
    with pytest.raises(ConfigError):
        MachineConfig(8, mem_spec="oracle")


def test_repr_mentions_name():
    assert "A/w8" in repr(paper_config("A", 8))


# ----------------------------------------------------------------------
# The declarative registry.
# ----------------------------------------------------------------------

def test_registry_letters_in_order():
    assert config_letters() == ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")
    assert [spec.letter for spec in config_specs()] == list("ABCDEFGHIJ")


def test_config_f_realistic_memory():
    config = paper_config("F", 8)
    assert config.mem_spec == "mdpt"
    assert not config.collapsing
    assert config.load_spec == "none"
    assert "mspec-mdpt" in MachineConfig(8, mem_spec="mdpt").name


def test_config_g_adds_collapsing():
    config = paper_config("G", 8)
    assert config.mem_spec == "mdpt"
    assert config.collapsing


def test_config_h_decoupled():
    config = paper_config("H", 8)
    assert config.dae
    assert config.mem_spec == "perfect"
    assert not config.collapsing and config.load_spec == "none"
    assert "dae" in MachineConfig(8, dae=True).name


def test_dae_excludes_mdpt_and_value_speculation():
    with pytest.raises(ConfigError):
        MachineConfig(8, dae=True, mem_spec="mdpt")
    with pytest.raises(ConfigError):
        MachineConfig(8, dae=True, value_spec=True)


def test_mdpt_geometry_validation():
    config = MachineConfig(8, mem_spec="mdpt", mdpt_entries=64,
                           mdpt_store_set=2)
    assert config.mdpt_entries == 64 and config.mdpt_store_set == 2
    with pytest.raises(ConfigError):
        MachineConfig(8, mem_spec="mdpt", mdpt_entries=100)
    with pytest.raises(ConfigError):
        MachineConfig(8, mem_spec="mdpt", mdpt_store_set=0)
    with pytest.raises(ConfigError):
        MachineConfig(8, mdpt_entries=64)   # needs mem_spec="mdpt"


def test_explicit_default_geometry_keeps_cache_key():
    explicit = paper_config("F", 8, mdpt_entries=512, mdpt_store_set=4)
    assert explicit.fingerprint() == paper_config("F", 8).fingerprint()


def test_fingerprint_includes_dae():
    a = paper_config("A", 8).fingerprint()
    h = paper_config("H", 8).fingerprint()
    assert h.get("dae") and not a.get("dae")
    assert a != h


def test_fingerprint_includes_mem_spec():
    a = paper_config("A", 8).fingerprint()
    f = paper_config("F", 8).fingerprint()
    assert a["mem_spec"] == "perfect"
    assert f["mem_spec"] == "mdpt"
    assert a != f


def test_register_rejects_bad_letters_and_knobs():
    with pytest.raises(ConfigError):
        register_config("FG", "two letters")
    with pytest.raises(ConfigError):
        register_config("1", "not a letter")
    with pytest.raises(ConfigError):
        register_config("A", "duplicate")
    with pytest.raises(ConfigError):
        register_config("X", "bad knob", issue_width=4)
    assert config_letters() == ("A", "B", "C", "D", "E", "F", "G", "H", "I", "J")


def test_register_validates_knob_values_eagerly():
    with pytest.raises(ConfigError):
        register_config("X", "broken", load_spec="magic")
    assert "X" not in config_letters()


def test_get_config_spec_unknown():
    with pytest.raises(ConfigError):
        get_config_spec("Z")


def test_new_letter_needs_only_one_registration():
    """The acceptance demonstration: registering a throwaway letter is
    the single edit needed for it to appear in the runner's sweep and
    the registry-driven figures, simulated as the letter's config."""
    from repro.core.simulator import simulate_trace
    from repro.experiments import ExperimentRunner
    from repro.experiments.figures import figure2
    register_config("X", "throwaway: A + ideal load-speculation",
                    load_spec="ideal")
    try:
        assert config_letters()[-1] == "X"
        config = paper_config("X", 4)
        assert config.load_spec == "ideal" and not config.collapsing
        assert config.name == "X/w4"
        runner = ExperimentRunner(scale=0.02, widths=(4,))
        missing = runner.missing_cells()
        assert any(letter == "X" for _name, letter, _width in missing)
        exhibit = figure2(runner)
        assert exhibit.headers[-1] == "X"
        for row in exhibit.rows:
            assert row[-1] > 0.0
        name = runner.names[0]
        expected = simulate_trace(runner.trace(name), config)
        expected.issue_cycles = None
        assert runner.result(name, "X", 4).to_payload() == \
            expected.to_payload()
    finally:
        unregister_config("X")
    assert "X" not in config_letters()
