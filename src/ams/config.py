"""Engine configuration: dataclass of every tunable constant plus a flat
key-value config file format (dotted keys, unknown keys are errors)."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from .chord_model import STYLES
from .context_graph import GraphParams
from .melody import DEFAULT_H_MIN, DEFAULT_REWARD_GATE, STYLE_RANGE_FACTORS
from .render import BEATS_PER_MEASURE
from .xcs import XcsParams

ASSET_ROOT = Path(__file__).parent / "assets"


class ConfigError(ValueError):
    pass


def _default_agent_range(agent_id: int) -> tuple[int, int]:
    if agent_id == 1:
        return (60, 96)  # top voice
    if agent_id == 2:
        return (36, 64)  # bottom voice
    return (48, 84)  # inner voices


@dataclass
class EngineConfig:
    beats_per_measure: ClassVar[int] = BEATS_PER_MEASURE  # read-only: the grid is fixed
    tempo_bpm: float = 120.0
    style: str = "jazz"
    n_melody_agents: int = 3
    seed: int = 0
    tick_ms: int = 30
    reward_gate: float = DEFAULT_REWARD_GATE
    h_min: float = DEFAULT_H_MIN
    reward_max: float = 1.2
    top_chord_ranks: int = 8
    chord_order: int = 3
    default_theme: int = 0
    normalize_happiness: bool = True
    explore_prob: float = 0.1
    explore_decay: float = 1.0  # per-cycle multiplier on explore_prob
    osc_port: int = 5005
    osc_host: str = "127.0.0.1"
    theme_dir: str | None = None        # None -> bundled demo themes
    chord_model_path: str | None = None  # None -> train on bundled corpora
    graph: GraphParams = field(default_factory=GraphParams)
    xcs: XcsParams = field(default_factory=XcsParams)
    range_factors: dict[str, float] = field(
        default_factory=lambda: dict(STYLE_RANGE_FACTORS))
    agent_ranges: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.style not in STYLES:
            raise ConfigError(f"unknown style {self.style!r}")
        if self.n_melody_agents < 1:
            raise ConfigError("need at least one melody agent")
        if self.tempo_bpm <= 0:
            raise ConfigError("tempo must be positive")
        if not 0.0 <= self.reward_gate <= self.reward_max:
            raise ConfigError("reward gate outside valid range")
        if not 0.0 <= self.h_min <= 1.0:
            raise ConfigError("h_min outside [0, 1]")
        if self.tick_ms <= 0:
            raise ConfigError("tick_ms must be positive")

    def agent_range(self, agent_id: int) -> tuple[int, int]:
        return self.agent_ranges.get(agent_id, _default_agent_range(agent_id))

    @property
    def theme_path(self) -> Path:
        return Path(self.theme_dir) if self.theme_dir else ASSET_ROOT / "themes"


def _parse_bool(value: str) -> bool:
    if value.lower() in ("true", "yes", "1", "on"):
        return True
    if value.lower() in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"not a boolean: {value!r}")


# key -> (target, attribute, parser); target "" = EngineConfig itself
_KEYS: dict[str, tuple[str, str, object]] = {
    "engine.tempo_bpm": ("", "tempo_bpm", float),
    "engine.style": ("", "style", str),
    "engine.melody_agents": ("", "n_melody_agents", int),
    "engine.seed": ("", "seed", int),
    "engine.tick_ms": ("", "tick_ms", int),
    "engine.reward_gate": ("", "reward_gate", float),
    "engine.h_min": ("", "h_min", float),
    "engine.reward_max": ("", "reward_max", float),
    "engine.top_chord_ranks": ("", "top_chord_ranks", int),
    "engine.chord_order": ("", "chord_order", int),
    "engine.default_theme": ("", "default_theme", int),
    "engine.normalize_happiness": ("", "normalize_happiness", _parse_bool),
    "engine.explore_prob": ("", "explore_prob", float),
    "engine.explore_decay": ("", "explore_decay", float),
    "engine.osc_port": ("", "osc_port", int),
    "engine.osc_host": ("", "osc_host", str),
    "engine.theme_dir": ("", "theme_dir", str),
    "engine.chord_model": ("", "chord_model_path", str),
    "graph.vertex_fade_per_s": ("graph", "vertex_fade_per_s", float),
    "graph.edge_fade_per_s": ("graph", "edge_fade_per_s", float),
    "graph.inferred_edge_weight": ("graph", "inferred_edge_weight", float),
    "graph.co_activation_boost": ("graph", "co_activation_boost", float),
    "xcs.population_cap": ("xcs", "population_cap", int),
    "xcs.learning_rate": ("xcs", "learning_rate", float),
    "xcs.error_threshold": ("xcs", "error_threshold", float),
    "xcs.accuracy_power": ("xcs", "accuracy_power", float),
    "xcs.accuracy_scale": ("xcs", "accuracy_scale", float),
    "xcs.ga_threshold": ("xcs", "ga_threshold", float),
    "xcs.crossover_prob": ("xcs", "crossover_prob", float),
    "xcs.mutation_prob": ("xcs", "mutation_prob", float),
    "xcs.wildcard_prob": ("xcs", "wildcard_prob", float),
    "xcs.deletion_threshold": ("xcs", "deletion_threshold", int),
    "xcs.init_prediction": ("xcs", "init_prediction", float),
    "xcs.init_error": ("xcs", "init_error", float),
    "xcs.init_fitness": ("xcs", "init_fitness", float),
    "xcs.subsumption_experience": ("xcs", "subsumption_experience", int),
}


def parse_config_text(text: str, base_dir: Path | None = None) -> EngineConfig:
    """Parse the flat `section.key = value` format.  Unknown keys are errors
    so calibration typos surface immediately."""
    config = EngineConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = key.strip(), value.strip()
        if key.startswith("style.range_factor."):
            style = key.rsplit(".", 1)[1]
            if style not in STYLES:
                raise ConfigError(f"line {lineno}: unknown style {style!r}")
            config.range_factors[style] = float(value)
            continue
        if key.startswith("melody.range."):
            agent_id = int(key.rsplit(".", 1)[1])
            lo, _, hi = value.partition(":")
            config.agent_ranges[agent_id] = (int(lo), int(hi))
            continue
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        target, attribute, parser = _KEYS[key]
        try:
            parsed = parser(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
        if target == "":
            setattr(config, attribute, parsed)
        else:
            setattr(getattr(config, target), attribute, parsed)
    if base_dir is not None:
        for attribute in ("theme_dir", "chord_model_path"):
            value = getattr(config, attribute)
            if value is not None and not Path(value).is_absolute():
                setattr(config, attribute, str(base_dir / value))
    config.xcs.explore_prob = config.explore_prob
    config.__post_init__()
    return config


def load_config(path) -> EngineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    return parse_config_text(path.read_text(), base_dir=path.parent)
