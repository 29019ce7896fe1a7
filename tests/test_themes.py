"""Theme file parsing and the id-keyed theme dict."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.config import ASSET_ROOT
from ams.melody import Key, MelodicFragment, Note
from ams.render import MEASURE_TICKS
from ams.themes import ThemeError, add_theme, load_themes, parse_theme

SAMPLE = """\
theme_id: 3
key: C major
length_measures: 2
note: 60 0 480 96
note: 62 480 480 96
"""


def test_parse_basic():
    theme_id, fragment = parse_theme(SAMPLE)
    assert theme_id == 3
    assert fragment.key == Key(0, "major")
    assert fragment.length_measures == 2
    assert [n.pitch for n in fragment.notes] == [60, 62]


def test_round_trip():
    assert parse_theme(SAMPLE) == (3, MelodicFragment(
        (Note(60, 0, 480, 96), Note(62, 480, 480, 96)), 2, Key(0, "major")))


def test_comments_and_blank_lines_ignored():
    text = "# a comment\n\n" + SAMPLE
    assert parse_theme(text)[0] == 3


def test_notes_sorted_by_onset():
    text = ("theme_id: 1\nkey: D minor\nlength_measures: 1\n"
            "note: 62 480 480 96\nnote: 60 0 480 96\n")
    _, fragment = parse_theme(text)
    assert [n.onset for n in fragment.notes] == [0, 480]


def test_missing_field_raises_with_source():
    with pytest.raises(ThemeError, match="missing field 'key'"):
        parse_theme("theme_id: 1\nlength_measures: 1\n", source="bad.theme")


def test_malformed_line_reports_number():
    with pytest.raises(ThemeError, match=":2:"):
        parse_theme("theme_id: 1\nnot a field line\n")


def test_theme_id_bounds():
    with pytest.raises(ThemeError, match="outside 0..63"):
        parse_theme(SAMPLE.replace("theme_id: 3", "theme_id: 64"))


def test_bad_key_rejected():
    with pytest.raises(ThemeError, match="bad key"):
        parse_theme(SAMPLE.replace("C major", "H mixolydian"))


@pytest.mark.parametrize("old, new, line, message", [
    ("theme_id: 3", "theme_id: x", 1, "theme_id must be an integer"),
    ("length_measures: 2", "length_measures: two", 3, "length_measures must be an integer"),
    ("length_measures: 2", "length_measures: 5", 3, "outside 1..4 measures"),
    ("note: 60 0 480 96", "note: 67 zero 960 78", 4, "bad note"),
    ("note: 62 480 480 96", "note: 200 480 480 96", 5, "pitch 200 outside 0..127"),
])
def test_bad_field_names_file_and_line(old, new, line, message):
    with pytest.raises(ThemeError, match=f"^bad.theme:{line}: .*{message}"):
        parse_theme(SAMPLE.replace(old, new), source="bad.theme")


def test_note_starting_before_the_theme_rejected():
    with pytest.raises(ThemeError, match="^bad.theme:4: note spans ticks -120..120"):
        parse_theme(SAMPLE.replace("note: 60 0 480 96", "note: 60 -120 240 96"),
                    source="bad.theme")


def test_note_ending_past_the_theme_rejected():
    # length_measures: 2 is 3840 ticks; a note may end exactly there
    parse_theme(SAMPLE.replace("note: 62 480 480 96", "note: 62 3360 480 96"))
    with pytest.raises(ThemeError, match="^bad.theme:5: .*outside the theme's 0..3840"):
        parse_theme(SAMPLE.replace("note: 62 480 480 96", "note: 62 3361 480 96"),
                    source="bad.theme")


_ints = st.one_of(st.integers(-2000, 8000), st.integers()).map(str)
_theme_lines = st.one_of(
    st.text(max_size=20),
    st.tuples(st.sampled_from(["theme_id", "length_measures"]), _ints).map(": ".join),
    st.sampled_from(["key: C major", "key: A minor", "key: H major", "key: C"]),
    st.lists(_ints, min_size=3, max_size=5).map(lambda parts: "note: " + " ".join(parts)),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_theme_lines, max_size=8))
@example(["theme_id: 2", "key: C major", "length_measures: 1", "note: 60 -120 240 96"])
@example(["theme_id: 2", "key: C major", "length_measures: 1", "note: 60 1800 240 96"])
# a theme without notes parsed, then ended a replay when a theme bred from it
@example(["theme_id: 2", "key: C major", "length_measures: 1"])
def test_arbitrary_theme_text_raises_only_theme_error(lines):
    try:
        _, fragment = parse_theme("\n".join(lines))
    except ThemeError:
        return
    assert fragment.notes
    end = fragment.length_measures * MEASURE_TICKS
    assert all(0 <= n.onset and n.onset + n.duration <= end for n in fragment.notes)


def test_bundled_library_has_eight_demo_themes():
    themes = load_themes(ASSET_ROOT / "themes")
    assert sorted(themes) == list(range(8))
    for fragment in themes.values():
        assert 1 <= fragment.length_measures <= 4
        assert fragment.notes


def test_library_add_assigns_next_free_id():
    fragment = parse_theme(SAMPLE)[1]
    themes = {0: fragment, 2: fragment}
    assert add_theme(themes, fragment) == 1
    assert add_theme(themes, fragment) == 3
    assert sorted(themes) == [0, 1, 2, 3]
    full = {i: fragment for i in range(64)}
    assert add_theme(full, fragment) is None and len(full) == 64


def test_load_dir_rejects_duplicates(tmp_path):
    (tmp_path / "a.theme").write_text(SAMPLE)
    (tmp_path / "b.theme").write_text(SAMPLE)
    with pytest.raises(ThemeError, match="duplicate"):
        load_themes(tmp_path)


def test_load_dir_missing():
    with pytest.raises(ThemeError):
        load_themes("/nonexistent/theme/dir")
