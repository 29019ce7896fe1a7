"""Config file parsing and validation."""

import pytest

from ams.config import ASSET_ROOT, ConfigError, EngineConfig, load_config, parse_config_text


def test_defaults_are_valid():
    config = EngineConfig()
    assert config.style == "jazz"
    assert config.agent_range(1) == (60, 96)
    assert config.agent_range(2) == (36, 64)
    assert config.agent_range(3) == (48, 84)
    assert config.theme_path == ASSET_ROOT / "themes"


def test_parse_engine_and_nested_sections():
    config = parse_config_text(
        "engine.style = rock\n"
        "engine.seed = 42\n"
        "engine.explore_prob = 0.25\n"
        "graph.vertex_fade_per_s = 0.2\n"
        "xcs.population_cap = 500\n")
    assert config.style == "rock"
    assert config.seed == 42
    assert config.graph.vertex_fade_per_s == 0.2
    assert config.xcs.population_cap == 500
    # the explore probability propagates into the classifier params
    assert config.xcs.explore_prob == 0.25


def test_comments_and_blanks_ok():
    assert parse_config_text("# comment\n\nengine.seed = 1\n").seed == 1


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("engine.seed = 1\nengine.nope = 2\n")


def test_time_grid_is_not_configurable():
    # the grid is fixed at 4/4; at 3/4 percussion overran the block
    with pytest.raises(ConfigError, match="unknown config key 'engine.beats_per_measure'"):
        parse_config_text("engine.beats_per_measure = 3\n")
    assert EngineConfig.beats_per_measure == 4


def test_bad_value_reports_key():
    with pytest.raises(ConfigError, match="engine.tempo_bpm"):
        parse_config_text("engine.tempo_bpm = fast\n")


def test_missing_equals():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("engine.seed 1\n")


def test_validation_unknown_style():
    with pytest.raises(ConfigError, match="unknown style"):
        parse_config_text("engine.style = polka\n")


def test_validation_gate_above_reward_max():
    with pytest.raises(ConfigError, match="reward gate"):
        parse_config_text("engine.reward_gate = 2.0\n")


def test_style_range_factor_override():
    config = parse_config_text("style.range_factor.pop = 1.0\n")
    assert config.range_factors["pop"] == 1.0
    with pytest.raises(ConfigError, match="unknown style"):
        parse_config_text("style.range_factor.ska = 1.0\n")


def test_agent_range_override():
    config = parse_config_text("melody.range.2 = 30:55\n")
    assert config.agent_range(2) == (30, 55)
    assert config.agent_range(1) == (60, 96)


def test_relative_paths_resolved_against_config_dir(tmp_path):
    (tmp_path / "run.cfg").write_text("engine.theme_dir = themes\n")
    config = load_config(tmp_path / "run.cfg")
    assert config.theme_dir == str(tmp_path / "themes")


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent.cfg")


def test_bundled_demo_configs_parse():
    for name in ("demo.cfg", "sadness.cfg"):
        config = load_config(ASSET_ROOT / name)
        assert config.n_melody_agents >= 1
