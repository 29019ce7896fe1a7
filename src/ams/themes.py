"""Themes: a directory of text theme files, one fragment per file, loaded
as a theme id -> fragment dict.

File format:

    theme_id: 3
    key: C major
    length_measures: 2
    note: 60 0 480 96
    note: 62 480 480 96
"""

from __future__ import annotations

from pathlib import Path

from .chord_model import _ROOTS
from .config import read_text
from .melody import SCALES, Key, MelodicFragment, MelodyError, Note
from .osc_gateway import THEME_IDS
from .render import MEASURE_TICKS


class ThemeError(ValueError):
    pass


def parse_theme(text: str, source: str = "<string>") -> tuple[int, MelodicFragment]:
    """Parse one theme file; any malformed field, a theme without notes, or
    a note outside the theme's measures, is a ThemeError naming `source`
    and the line."""
    fields: dict[str, tuple[int, str]] = {}  # field -> (line number, value)
    notes: list[tuple[int, Note]] = []  # (line number, note)
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ThemeError(f"{source}:{lineno}: expected 'field: value'")
        key, value = key.strip(), value.strip()
        if key == "note":
            parts = value.split()
            if len(parts) != 4:
                raise ThemeError(f"{source}:{lineno}: note needs pitch onset duration velocity")
            try:
                notes.append((lineno, Note(*(int(p) for p in parts))))
            except ValueError as exc:  # int() or a MelodyError from Note
                raise ThemeError(f"{source}:{lineno}: bad note {value!r}: {exc}") from None
        else:
            fields[key] = (lineno, value)
    for required in ("theme_id", "key", "length_measures"):
        if required not in fields:
            raise ThemeError(f"{source}: missing field {required!r}")

    def integer(name: str) -> tuple[int, int]:
        lineno, value = fields[name]
        try:
            return lineno, int(value)
        except ValueError:
            raise ThemeError(
                f"{source}:{lineno}: {name} must be an integer, got {value!r}") from None

    lineno, theme_id = integer("theme_id")
    if not 0 <= theme_id < THEME_IDS:
        raise ThemeError(f"{source}:{lineno}: theme id {theme_id} outside 0..{THEME_IDS - 1}")
    lineno, key = fields["key"]
    tonic_name, _, mode = key.partition(" ")
    if tonic_name not in _ROOTS or mode not in SCALES:
        raise ThemeError(f"{source}:{lineno}: bad key {key!r}")
    lineno, length = integer("length_measures")
    ordered = sorted((note for _, note in notes), key=lambda n: (n.onset, n.pitch))
    try:
        fragment = MelodicFragment(tuple(ordered), length, Key(_ROOTS[tonic_name], mode))
    except MelodyError as exc:  # notes are sorted, so only the length can fail
        raise ThemeError(f"{source}:{lineno}: {exc}") from None
    if not notes:
        raise ThemeError(f"{source}: theme has no notes")
    end = length * MEASURE_TICKS
    for lineno, note in notes:
        if note.onset < 0 or note.onset + note.duration > end:
            raise ThemeError(f"{source}:{lineno}: note spans ticks {note.onset}.."
                             f"{note.onset + note.duration}, outside the theme's 0..{end}")
    return theme_id, fragment


def load_themes(directory) -> dict[int, MelodicFragment]:
    """Theme id -> fragment for every `*.theme` file in `directory`."""
    directory = Path(directory)
    if not directory.is_dir():
        raise ThemeError(f"theme directory {directory} not found")
    themes: dict[int, MelodicFragment] = {}
    for path in sorted(directory.glob("*.theme")):
        theme_id, fragment = parse_theme(read_text(path, ThemeError), str(path))
        if theme_id in themes:
            raise ThemeError(f"{path}: duplicate theme id {theme_id}")
        themes[theme_id] = fragment
    return themes


def add_theme(themes: dict[int, MelodicFragment], fragment: MelodicFragment) -> int | None:
    """Store an evolved theme under the lowest free id; None if none is free."""
    for theme_id in range(THEME_IDS):
        if theme_id not in themes:
            themes[theme_id] = fragment
            return theme_id
    return None
