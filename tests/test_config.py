"""Config file parsing and validation."""

import signal
from contextlib import contextmanager
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.chord_model import STYLES, ChordError
from ams.cli import build_engine
from ams.config import (
    ASSET_ROOT,
    ConfigError,
    EngineConfig,
    _KEYS,
    load_config,
    parse_config_text,
)
from ams.themes import ThemeError
from ams.xcs import XcsParams


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
    assert config.explore_prob == 0.25


# the config surface: a renamed, added or retyped field shows here
_INT, _FLOAT, _STR = "int", "_finite_float", "str"
KEY_PARSERS = {
    "engine.chord_model": _STR, "engine.chord_order": _INT,
    "engine.default_theme": _INT, "engine.explore_prob": _FLOAT,
    "engine.h_min": _FLOAT, "engine.melody_agents": _INT, "engine.osc_host": _STR,
    "engine.osc_port": _INT, "engine.reward_gate": _FLOAT, "engine.reward_max": _FLOAT,
    "engine.seed": _INT, "engine.style": _STR, "engine.tempo_bpm": _FLOAT,
    "engine.theme_dir": _STR, "engine.tick_ms": _INT, "engine.top_chord_ranks": _INT,
    "graph.co_activation_boost": _FLOAT, "graph.edge_fade_per_s": _FLOAT,
    "graph.inferred_edge_weight": _FLOAT, "graph.vertex_fade_per_s": _FLOAT,
    "xcs.accuracy_power": _FLOAT, "xcs.accuracy_scale": _FLOAT,
    "xcs.crossover_prob": _FLOAT, "xcs.deletion_threshold": _INT,
    "xcs.error_threshold": _FLOAT, "xcs.ga_threshold": _FLOAT, "xcs.init_error": _FLOAT,
    "xcs.init_fitness": _FLOAT, "xcs.init_prediction": _FLOAT,
    "xcs.learning_rate": _FLOAT, "xcs.mutation_prob": _FLOAT,
    "xcs.population_cap": _INT, "xcs.subsumption_experience": _INT,
    "xcs.wildcard_prob": _FLOAT,
}


def test_config_keys_are_the_dataclass_fields():
    assert sorted(_KEYS) == sorted(KEY_PARSERS)
    assert {key: parser.__name__ for key, parser in _KEYS.items()} == KEY_PARSERS
    assert sorted(f"xcs.{f.name}" for f in fields(XcsParams)) == sorted(
        key for key in KEY_PARSERS if key.startswith("xcs."))


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
        assert config.melody_agents >= 1


@pytest.mark.parametrize("line, message", [
    ("melody.range.x = 1:2", "line 1: bad value for melody.range.x"),
    ("melody.range.1 = 60", "line 1: bad value for melody.range.1"),
    ("melody.range.1 = 90:60", "0 <= lo <= hi <= 127"),
    ("melody.range.1 = -1:60", "0 <= lo <= hi <= 127"),
    ("melody.range.1 = 60:128", "0 <= lo <= hi <= 127"),
    ("style.range_factor.jazz = abc", "line 1: bad value for style.range_factor.jazz"),
    ("style.range_factor.jazz = nan", "not a finite number"),
    ("style.range_factor.jazz = 0", "must be positive"),
    ("engine.tempo_bpm = nan", "line 1: bad value for engine.tempo_bpm: not a finite number"),
    ("engine.tempo_bpm = inf", "not a finite number"),
    # below ~3.58 bpm the SMF tempo field overflows, and a tiny tempo
    # stretches a replay past any practical length
    ("engine.tempo_bpm = 1", "tempo must be at least 3.58 bpm"),
    ("engine.tempo_bpm = 1e-300", "tempo must be at least"),
    ("engine.tempo_bpm = 0", "tempo must be at least"),
    ("engine.explore_prob = -inf", "not a finite number"),
    ("xcs.learning_rate = 1e999", "not a finite number"),
    # out-of-range values that used to fail only at run time, or at bind()
    ("engine.top_chord_ranks = 0", "top_chord_ranks and chord_order must be >= 1"),
    ("engine.chord_order = 0", "top_chord_ranks and chord_order must be >= 1"),
    ("engine.default_theme = 99", "default_theme outside 0..63"),
    ("engine.default_theme = -1", "default_theme outside 0..63"),
    ("engine.osc_port = 70000", "osc_port outside 0..65535"),
    ("engine.osc_port = -1", "osc_port outside 0..65535"),
    # out of their domains; most used to validate, then crash or hang a replay
    ("engine.reward_max = 0\nengine.reward_gate = 0.0", "reward_max must be positive"),
    ("xcs.population_cap = 7", "population_cap must be at least 8"),
    ("xcs.population_cap = -1", "population_cap must be at least 8"),
    ("xcs.error_threshold = 0", "error_threshold must be positive"),
    ("xcs.error_threshold = -1e300", "error_threshold must be positive"),
    ("xcs.accuracy_power = -1e6", "accuracy_power must be >= 0"),
    ("engine.tempo_bpm = 1e300", "a two-measure block must last at least one tick"),
    ("engine.tempo_bpm = 16001", "a two-measure block must last at least one tick"),
    ("engine.tick_ms = 4001", "a two-measure block must last at least one tick"),
    ("engine.melody_agents = 16", "melody_agents outside 1..15"),
    # out of their domains; these used to validate
    ("engine.explore_prob = 2", r"explore_prob outside \[0, 1\]"),
    ("graph.vertex_fade_per_s = -5", "graph: vertex_fade_per_s must be >= 0"),
    ("graph.edge_fade_per_s = -0.1", "graph: edge_fade_per_s must be >= 0"),
    ("graph.inferred_edge_weight = 7", r"graph: inferred_edge_weight outside \[0, 1\]"),
    ("graph.co_activation_boost = -2", r"graph: co_activation_boost outside \[0, 1\]"),
    ("xcs.learning_rate = 5", r"xcs: learning_rate outside \(0, 1\]"),
    ("xcs.learning_rate = 0", r"xcs: learning_rate outside \(0, 1\]"),
    ("xcs.accuracy_scale = 0", r"xcs: accuracy_scale outside \(0, 1\]"),
    ("xcs.crossover_prob = -1", r"xcs: crossover_prob outside \[0, 1\]"),
    ("xcs.mutation_prob = 1.5", r"xcs: mutation_prob outside \[0, 1\]"),
    ("xcs.wildcard_prob = 3", r"xcs: wildcard_prob outside \[0, 1\]"),
    ("xcs.ga_threshold = -1", "xcs: ga_threshold must be >= 0"),
    ("xcs.deletion_threshold = -1", "xcs: deletion_threshold must be >= 0"),
    ("xcs.subsumption_experience = -1", "xcs: subsumption_experience must be >= 0"),
    ("xcs.init_prediction = -0.5", "xcs: init_prediction must be >= 0"),
    ("xcs.init_error = -0.5", "xcs: init_error must be >= 0"),
    ("xcs.init_fitness = -0.5", "xcs: init_fitness must be >= 0"),
])
def test_malformed_values_rejected_at_parse_time(line, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(line + "\n")


def test_pitch_range_bounds_inclusive_and_tempo_up_to_one_tick_per_block():
    config = parse_config_text("melody.range.1 = 0:127\nmelody.range.2 = 64:64\n"
                               "engine.tempo_bpm = 600\n")
    assert config.agent_range(1) == (0, 127)
    assert config.agent_range(2) == (64, 64)
    assert config.tempo_bpm == 600.0
    assert parse_config_text("engine.tempo_bpm = 16000\n").tempo_bpm == 16000.0
    assert parse_config_text("xcs.population_cap = 8\nxcs.accuracy_power = 0\n"
                             "engine.melody_agents = 15\n").xcs.population_cap == 8


def test_xcs_ranges_checked_on_construction_and_after_parsing():
    with pytest.raises(ValueError, match="population_cap"):
        XcsParams(population_cap=5)
    config = EngineConfig()
    config.xcs.error_threshold = 0.0
    with pytest.raises(ConfigError, match="xcs: error_threshold must be positive"):
        config.__post_init__()


_values = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "true", "", ":", "1:", ":2"]),
    st.tuples(st.integers(-200, 300), st.integers(-200, 300)).map(lambda p: f"{p[0]}:{p[1]}"),
)
_config_keys = st.one_of(
    st.sampled_from(sorted(_KEYS)),
    st.one_of(st.sampled_from(STYLES), st.text(max_size=6)).map(
        lambda s: "style.range_factor." + s),
    st.one_of(st.integers(-3, 9).map(str), st.text(max_size=4)).map(
        lambda s: "melody.range." + s),
)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once `seconds` of wall time have passed."""
    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_config_keys, _values), max_size=6))
@example([("melody.range.x", "1:2")])
@example([("melody.range.1", "60")])
@example([("style.range_factor.jazz", "abc")])
# each of these used to validate, then crash or hang the engine
@example([("engine.reward_max", "0"), ("engine.reward_gate", "0.0")])
@example([("xcs.population_cap", "0")])
@example([("xcs.population_cap", "7")])
@example([("xcs.population_cap", "-1")])
@example([("xcs.error_threshold", "0")])
@example([("xcs.error_threshold", "-1e300")])
@example([("xcs.error_threshold", "-0.01"), ("xcs.accuracy_power", "2.5")])
@example([("xcs.accuracy_power", "-1e6")])
@example([("engine.tempo_bpm", "1e300")])
@example([("engine.default_theme", "15")])
def test_arbitrary_config_lines_raise_only_config_error(lines):
    """A config either fails to parse with a ConfigError, or builds an
    engine that composes two cycles."""
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    try:
        config = parse_config_text(text)
    except ConfigError:
        return
    with time_limit(20):
        try:
            engine = build_engine(config)
        except (ThemeError, ChordError, OSError):
            # the config names a theme directory, chord model or default
            # theme the bundled assets lack: a runtime error, exit 1
            assert (config.theme_dir or config.chord_model is not None
                    or config.default_theme >= 8)
            return
        engine.run(int(engine.block_ms) + 1)
    assert engine.cycle_index == 2
