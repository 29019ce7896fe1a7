"""Theme library: directory of text theme files, one fragment per file.

File format (stable field order, canonical for hashing):

    theme_id: 3
    key: C major
    length_measures: 2
    note: 60 0 480 96
    note: 62 480 480 96
"""

from __future__ import annotations

from pathlib import Path

from .chord_model import PITCH_CLASS_NAMES, _ROOTS
from .melody import Key, MelodicFragment, Note
from .osc_gateway import THEME_IDS


class ThemeError(ValueError):
    pass


def serialize_theme(theme_id: int, fragment: MelodicFragment) -> str:
    lines = [
        f"theme_id: {theme_id}",
        f"key: {PITCH_CLASS_NAMES[fragment.key.tonic]} {fragment.key.mode}",
        f"length_measures: {fragment.length_measures}",
    ]
    for n in fragment.notes:
        lines.append(f"note: {n.pitch} {n.onset} {n.duration} {n.velocity}")
    return "\n".join(lines) + "\n"


def parse_theme(text: str, source: str = "<string>") -> tuple[int, MelodicFragment]:
    fields: dict[str, str] = {}
    notes: list[Note] = []
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
            pitch, onset, duration, velocity = (int(p) for p in parts)
            notes.append(Note(pitch, onset, duration, velocity))
        else:
            fields[key] = value
    for required in ("theme_id", "key", "length_measures"):
        if required not in fields:
            raise ThemeError(f"{source}: missing field {required!r}")
    theme_id = int(fields["theme_id"])
    if not 0 <= theme_id < THEME_IDS:
        raise ThemeError(f"{source}: theme id {theme_id} outside 0..{THEME_IDS - 1}")
    tonic_name, _, mode = fields["key"].partition(" ")
    if tonic_name not in _ROOTS or mode not in ("major", "minor"):
        raise ThemeError(f"{source}: bad key {fields['key']!r}")
    notes.sort(key=lambda n: (n.onset, n.pitch))
    fragment = MelodicFragment(tuple(notes), int(fields["length_measures"]),
                               Key(_ROOTS[tonic_name], mode))
    return theme_id, fragment


class ThemeLibrary:
    """In-memory theme id -> fragment map, loadable from a directory."""

    def __init__(self, themes: dict[int, MelodicFragment] | None = None):
        self.themes: dict[int, MelodicFragment] = dict(themes or {})

    @classmethod
    def load_dir(cls, directory) -> "ThemeLibrary":
        directory = Path(directory)
        if not directory.is_dir():
            raise ThemeError(f"theme directory {directory} not found")
        library = cls()
        for path in sorted(directory.glob("*.theme")):
            theme_id, fragment = parse_theme(path.read_text(), str(path))
            if theme_id in library.themes:
                raise ThemeError(f"{path}: duplicate theme id {theme_id}")
            library.themes[theme_id] = fragment
        return library

    def get(self, theme_id: int) -> MelodicFragment:
        if theme_id not in self.themes:
            raise ThemeError(f"unknown theme id {theme_id}")
        return self.themes[theme_id]

    def add(self, fragment: MelodicFragment) -> int | None:
        """Store an evolved theme under the next free id, or None if none is free."""
        for theme_id in range(THEME_IDS):
            if theme_id not in self.themes:
                self.themes[theme_id] = fragment
                return theme_id
        return None

    def __contains__(self, theme_id: int) -> bool:
        return theme_id in self.themes

    def __len__(self) -> int:
        return len(self.themes)
