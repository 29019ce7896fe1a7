"""Engine configuration: dataclass of every tunable constant plus a flat
key-value config file format.  A key is `<section>.<field>`, named after a
scalar field of the section's dataclass; unknown keys are errors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import ClassVar

from .chord_model import STYLES
from .context_graph import GraphError, GraphParams
from .melody import DEFAULT_H_MIN, DEFAULT_REWARD_GATE, STYLE_RANGE_FACTORS
from .osc_gateway import THEME_IDS
from .render import BEATS_PER_MEASURE, BLOCK_TICKS, MIDI_MAX, MIN_TEMPO_BPM, TICKS_PER_QUARTER
from .xcs import XcsError, XcsParams

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
    melody_agents: int = 3
    seed: int = 0
    tick_ms: int = 30
    reward_gate: float = DEFAULT_REWARD_GATE
    h_min: float = DEFAULT_H_MIN
    reward_max: float = 1.2
    top_chord_ranks: int = 8
    chord_order: int = 3
    default_theme: int = 0
    explore_prob: float = 0.1
    osc_port: int = 5005
    osc_host: str = "127.0.0.1"
    theme_dir: str | None = None        # None -> bundled demo themes
    chord_model: str | None = None  # None -> train on bundled corpora
    graph: GraphParams = field(default_factory=GraphParams)
    xcs: XcsParams = field(default_factory=XcsParams)
    range_factors: dict[str, float] = field(
        default_factory=lambda: dict(STYLE_RANGE_FACTORS))
    agent_ranges: dict[int, tuple[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.style not in STYLES:
            raise ConfigError(f"unknown style {self.style!r}")
        if not 1 <= self.melody_agents <= 15:  # a MIDI channel each, bar percussion's
            raise ConfigError("melody_agents outside 1..15")
        if self.tempo_bpm < MIN_TEMPO_BPM:
            raise ConfigError(f"tempo must be at least {MIN_TEMPO_BPM:.2f} bpm")
        if self.reward_max <= 0:
            raise ConfigError("reward_max must be positive")
        if not 0.0 <= self.reward_gate <= self.reward_max:
            raise ConfigError("reward gate outside valid range")
        if not 0.0 <= self.h_min <= 1.0:
            raise ConfigError("h_min outside [0, 1]")
        if self.tick_ms <= 0:
            raise ConfigError("tick_ms must be positive")
        if self.block_ms < self.tick_ms:
            raise ConfigError("a two-measure block must last at least one tick "
                              "(tempo_bpm at most 480000 / tick_ms)")
        if self.top_chord_ranks < 1 or self.chord_order < 1:
            raise ConfigError("top_chord_ranks and chord_order must be >= 1")
        if not 0 <= self.default_theme < THEME_IDS:
            raise ConfigError(f"default_theme outside 0..{THEME_IDS - 1}")
        if not 0 <= self.osc_port <= 65535:
            raise ConfigError("osc_port outside 0..65535")
        if not 0.0 <= self.explore_prob <= 1.0:
            raise ConfigError("explore_prob outside [0, 1]")
        for section in ("graph", "xcs"):
            try:
                getattr(self, section).__post_init__()
            except (GraphError, XcsError) as exc:
                raise ConfigError(f"{section}: {exc}") from None

    @property
    def block_ms(self) -> float:  # beats per block times ms per beat
        return BLOCK_TICKS // TICKS_PER_QUARTER * 60_000.0 / self.tempo_bpm

    def agent_range(self, agent_id: int) -> tuple[int, int]:
        return self.agent_ranges.get(agent_id, _default_agent_range(agent_id))

    @property
    def theme_path(self) -> Path:
        return Path(self.theme_dir) if self.theme_dir else ASSET_ROOT / "themes"


def _finite_float(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"not a finite number: {value!r}")
    return number


_PARSERS = {"int": int, "float": _finite_float, "str": str, "str | None": str}
_SECTIONS = {"engine": EngineConfig, "graph": GraphParams, "xcs": XcsParams}
# "<section>.<field>" -> parser, for every scalar field of a section's dataclass
_KEYS: dict[str, object] = {
    f"{section}.{f.name}": _PARSERS[f.type]
    for section, cls in _SECTIONS.items() for f in fields(cls) if f.type in _PARSERS}


def _apply(config: EngineConfig, key: str, value: str) -> None:
    """Set one `key = value` line on config; a malformed value raises
    ValueError."""
    if key.startswith("style.range_factor."):
        style = key.rsplit(".", 1)[1]
        if style not in STYLES:
            raise ConfigError(f"unknown style {style!r}")
        factor = _finite_float(value)
        if factor <= 0:
            raise ConfigError(f"range factor for {style} must be positive")
        config.range_factors[style] = factor
        return
    if key.startswith("melody.range."):
        agent_id = int(key.rsplit(".", 1)[1])
        lo, _, hi = value.partition(":")
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= MIDI_MAX:
            raise ConfigError(f"{key} needs lo:hi with 0 <= lo <= hi <= {MIDI_MAX}")
        config.agent_ranges[agent_id] = (lo, hi)
        return
    if key not in _KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    section, _, name = key.partition(".")
    target = config if section == "engine" else getattr(config, section)
    setattr(target, name, _KEYS[key](value))


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
        try:
            _apply(config, key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    if base_dir is not None:
        for attribute in ("theme_dir", "chord_model"):
            value = getattr(config, attribute)
            if value is not None and not Path(value).is_absolute():
                setattr(config, attribute, str(base_dir / value))
    config.__post_init__()
    return config


def read_text(path, error: type[Exception]) -> str:
    """An input file's UTF-8 text; other bytes raise `error` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_config(path) -> EngineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {path} not found")
    return parse_config_text(read_text(path, ConfigError), base_dir=path.parent)
