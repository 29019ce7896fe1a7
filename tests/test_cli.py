"""Command line interface: trace parsing, subcommands, exit codes."""

import builtins
import hashlib
import io
import json
import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ams.chord_model import ChordSequenceModel
from ams.cli import (
    EXIT_OK,
    EXIT_RUNTIME,
    EXIT_USAGE,
    TraceError,
    load_chord_model,
    main,
    parse_trace,
    trace_feed,
)
from ams.config import ASSET_ROOT, EngineConfig
from ams.osc_gateway import (
    AFFECT_CATEGORIES,
    MESSAGE_TYPES,
    ActivateConcept,
    SetAffect,
    decode_packet,
    message_to_osc,
)
from ams.render import read_midi_bytes

TRACE = """\
{"t_ms": 0, "type": "affect", "category": "happiness", "level": 80}
{"t_ms": 0, "type": "activate", "name": "village", "kind": "environment", "level": 60}
{"t_ms": 0, "type": "theme", "concept": "village", "theme_id": 0}
{"t_ms": 2000, "type": "edge", "a": "village", "b": "well", "weight": 0.7}
"""


# -- trace parsing -----------------------------------------------------------


def test_parse_trace_types():
    events = parse_trace(TRACE)
    assert [t for t, _ in events] == [0, 0, 0, 2000]
    assert isinstance(events[0][1], SetAffect)
    assert isinstance(events[1][1], ActivateConcept)


def test_parse_trace_rejects_backwards_time():
    bad = '{"t_ms": 100, "type": "affect", "category": "threat", "level": 1}\n' \
          '{"t_ms": 50, "type": "affect", "category": "threat", "level": 1}\n'
    with pytest.raises(TraceError, match=":2: t_ms 50 goes backwards"):
        parse_trace(bad)


@pytest.mark.parametrize("t_ms", ["true", "1.9", '"2000"', "1e20", "-1",
                                  "86400001", "100000000000000000000"])
def test_parse_trace_t_ms_is_a_json_integer_at_least_zero(t_ms):
    with pytest.raises(TraceError, match=r"^t\.jsonl:2: t_ms must be an integer >= 0"):
        parse_trace('{"t_ms": 0, "type": "affect", "category": "threat", "level": 1}\n'
                    f'{{"t_ms": {t_ms}, "type": "affect", "category": "threat", "level": 1}}\n',
                    "t.jsonl")


def test_parse_trace_reports_line_of_bad_json():
    with pytest.raises(TraceError, match=":1:"):
        parse_trace("{not json}\n")


def test_parse_trace_unknown_type():
    with pytest.raises(TraceError, match="unknown event type"):
        parse_trace('{"t_ms": 0, "type": "explode"}\n')


@pytest.mark.parametrize("event", [
    '"type": "activate", "name": "sword", "kind": "weapon", "level": 50',
    '"type": "activate", "name": "sword", "level": 50, "mode": "boost"',
    '"type": "affect", "category": "threat", "level": 500',
    '"type": "theme", "concept": "sword", "theme_id": 999',
    '"type": "edge", "a": "sword", "level": 0.5',
    # a theme id string is ASCII digits, though int() reads each of these
    *('"type": "theme", "concept": "sword", "theme_id": ' + json.dumps(theme_id)
      for theme_id in (" 3", "+3", "0_3", "\u0663", "3\n", "-0")),
], ids=["kind", "mode", "level", "theme_id", "missing_field", "theme_id_space",
        "theme_id_sign", "theme_id_separator", "theme_id_arabic_indic", "theme_id_newline",
        "theme_id_minus_zero"])
def test_parse_trace_rejects_what_osc_rejects(event):
    with pytest.raises(TraceError, match=r"^t\.jsonl:2: "):
        parse_trace('{"t_ms": 0, "type": "affect", "category": "threat", "level": 1}\n'
                    f'{{"t_ms": 1, {event}}}\n', "t.jsonl")


def test_parse_trace_defaults_kind_and_mode():
    (_, msg), = parse_trace('{"t_ms": 0, "type": "activate", "name": "sword", "level": 5}\n')
    assert msg == ActivateConcept("sword", "object", 5.0, "set")


# any JSON value a trace line may carry; floats at OSC's 32-bit width so that
# an accepted value survives the wire unchanged
TRACE_VALUES = (st.none() | st.booleans() | st.integers() | st.text(max_size=8)
                | st.floats(width=32) | st.integers(0, 120)
                | st.sampled_from(("object", "environment", "weapon", "set", "add", "boost",
                                   "", "7", "99", "THREAT") + AFFECT_CATEGORIES)
                | st.lists(st.integers(), max_size=2))


# keys an event may misspell or borrow from another type's schema
STRAY_KEYS = sorted({name for kind in MESSAGE_TYPES.values() for name, _, _ in kind.fields}
                    | {"mdoe", "t", "Type", ""})


def _fields(kind: str) -> set[str]:
    return {name for name, _, _ in MESSAGE_TYPES[kind].fields}


@st.composite
def trace_events(draw):
    kind = draw(st.sampled_from(sorted(MESSAGE_TYPES)))
    event = {"t_ms": 0, "type": kind}
    for name, _, _ in MESSAGE_TYPES[kind].fields:
        if draw(st.integers(0, 9)):  # now and then leave a field out
            event[name] = draw(TRACE_VALUES)
    if not draw(st.integers(0, 9)):  # now and then add a key the type lacks
        event[draw(st.sampled_from(STRAY_KEYS).filter(
            lambda key: key not in _fields(kind)))] = draw(TRACE_VALUES)
    return event


@settings(max_examples=500, deadline=None)
@given(trace_events())
@example({"t_ms": 0, "type": "affect", "category": "happiness", "level": 30, "mdoe": "add"})
def test_trace_accepts_exactly_what_osc_accepts(event):
    if not event.keys() <= {"t_ms", "type"} | _fields(event["type"]):
        with pytest.raises(TraceError, match=r"^t\.jsonl:1: unknown \w+ field "):
            parse_trace(json.dumps(event), "t.jsonl")
        return
    try:
        (_, msg), = parse_trace(json.dumps(event))
    except TraceError:
        return
    assert decode_packet(message_to_osc(msg)) == [msg]


def test_parse_trace_empty():
    with pytest.raises(TraceError, match="empty"):
        parse_trace("# only comments\n")


def test_trace_feed_consumes_in_order():
    feed = trace_feed(parse_trace(TRACE))
    assert len(feed(0)) == 3
    assert feed(1000) == []
    assert len(feed(3000)) == 1
    assert feed(99999) == []


def test_bundled_traces_parse():
    for path in sorted((ASSET_ROOT / "traces").glob("*.jsonl")):
        events = parse_trace(path.read_text(), str(path))
        assert events


# -- subcommands -------------------------------------------------------------


def test_validate_config_ok(capsys):
    assert main(["validate-config", str(ASSET_ROOT / "demo.cfg")]) == EXIT_OK
    assert capsys.readouterr().out.startswith("ok:")


def test_validate_config_invalid(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("engine.style = polka\n")
    assert main(["validate-config", str(bad)]) == EXIT_USAGE
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["melody.range.x = 1:2", "engine.tempo_bpm = nan"])
def test_malformed_config_value_exits_usage(line, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert main(["validate-config", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("invalid: line 1: ")


def _record_server_ports(monkeypatch) -> list:
    """Replace OscServer with a stand-in that records the port it is given
    instead of binding a socket."""
    ports = []

    class Server:
        def __init__(self, queue, port, host):
            ports.append(port)
            self.port = port

        def start(self):
            pass

        def close(self):
            pass

    monkeypatch.setattr("ams.cli.OscServer", Server)
    return ports


def test_serve_port_flag_zero_overrides_the_config_port(monkeypatch):
    ports = _record_server_ports(monkeypatch)
    assert main(["serve", "--port", "0", "--duration-s", "0"]) == EXIT_OK
    assert ports == [0]


def test_serve_is_paced_by_wall_time(monkeypatch, capsys):
    _record_server_ports(monkeypatch)
    start = time.monotonic()
    assert main(["serve", "--port", "0", "--duration-s", "0.3"]) == EXIT_OK
    # the last tick starts at 270 ms; nothing sleeps after it
    assert time.monotonic() - start >= 0.27
    assert "cycle 0: " in capsys.readouterr().out


def test_serve_port_out_of_range_exits_usage_before_binding(monkeypatch, capsys):
    ports = _record_server_ports(monkeypatch)
    assert main(["serve", "--port", "70000", "--duration-s", "0"]) == EXIT_USAGE
    assert ports == []
    assert capsys.readouterr().err == "config error: osc_port outside 0..65535\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "-0.001", "x"])
def test_serve_bad_duration_exits_usage_before_binding(value, monkeypatch, capsys):
    ports = _record_server_ports(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--duration-s", value])
    assert exc.value.code == EXIT_USAGE
    assert "--duration-s" in capsys.readouterr().err
    assert ports == []


@pytest.mark.parametrize("value", ["0", "-5000", "1.5", "x", "86400001"])
def test_replay_bad_duration_exits_usage(value, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    out = tmp_path / "out.mid"
    with pytest.raises(SystemExit) as exc:
        main(["replay", str(trace), "--duration-ms", value, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "--duration-ms" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lines", [
    "engine.reward_max = 0\nengine.reward_gate = 0.0",
    "xcs.population_cap = 5",
    "xcs.population_cap = -1",
    "xcs.error_threshold = 0",
    "xcs.error_threshold = -1e300",
    "xcs.error_threshold = -0.01\nxcs.accuracy_power = 2.5",
    "xcs.accuracy_power = -1e6",
    "engine.tempo_bpm = 1e300",
])
def test_config_values_that_crashed_or_hung_a_replay_exit_usage(lines, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(lines + "\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    out = tmp_path / "out.mid"
    assert main(["validate-config", str(config)]) == EXIT_USAGE
    assert main(["replay", str(trace), "--config", str(config), "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    invalid, config_error = capsys.readouterr().err.splitlines()
    assert invalid.startswith("invalid: ") and config_error.startswith("config error: ")


def test_validate_config_missing_file(capsys):
    assert main(["validate-config", "/nonexistent.cfg"]) == EXIT_USAGE


def test_replay_writes_outputs(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    out = tmp_path / "out.mid"
    cycle_log = tmp_path / "cycles.jsonl"
    score_log = tmp_path / "score.jsonl"
    code = main(["replay", str(trace), "--config", str(ASSET_ROOT / "demo.cfg"),
                 "--duration-ms", "9000", "--out", str(out),
                 "--cycle-log", str(cycle_log), "--score-log", str(score_log)])
    assert code == EXIT_OK
    assert "replayed 4 events" in capsys.readouterr().out
    score = read_midi_bytes(out.read_bytes())
    assert any(t.notes for t in score.tracks)
    cycles = [json.loads(line) for line in cycle_log.read_text().splitlines()]
    assert [c["cycle"] for c in cycles] == list(range(len(cycles)))
    assert all(json.loads(line) for line in score_log.read_text().splitlines())


def test_replay_is_deterministic(tmp_path):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    blobs = []
    for name in ("a.mid", "b.mid"):
        out = tmp_path / name
        assert main(["replay", str(trace), "--config",
                     str(ASSET_ROOT / "demo.cfg"), "--duration-ms", "9000",
                     "--out", str(out)]) == EXIT_OK
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


# sha256 of the MIDI, cycle log and score log of `ams replay <trace>
# --config demo.cfg`; a change that alters composed output fails here
GOLDEN_REPLAYS = {
    "happiness_plateau": (
        "bcb94a801d17179584ad96215a8134709534cb94b66a1fc99ada3d3a9f105711",
        "8bdce3c3c1d92084d273e4d2d1520b0457c03fd5d1f2ec2209f2c97315b14092",
        "3bc26cc6d05ef6273d1e77de2f1453fa1c429cbb92ad4740cf3542ef059d6403",
    ),
    "mixed_session": (
        "8db12840af5c7a0437a6eb633599eb5c7a5368be3954bf3f6bedfca2d882db4e",
        "8e78d5193c7e6b74c4ae68f9423c5e0249d494b36079cb5da51b749f9041fc64",
        "b3ae506d35c1fef6b1fd8e456efcda7dae203ee807f8a248b6b004e6ffb1bd39",
    ),
    "sadness_plateau": (
        "f197756d689cffa4ec23d0414a32c8a827404b00c16c3d0ab52c918aacacde5d",
        "fe6e354d27663ed56eac423c0ed790252e7974f246454d0d17ba0eb6d58bf0ba",
        "a40170d34084b803c4ed8269973d76e308a1cc0c0580168839bf3c280347ac8e",
    ),
    "threat_ramp": (
        "76a85eee464b0fe9a7732b86993410514194b37de0da9859d1b06447983851ce",
        "1e5004981e03133dfef44f5637bf204e543ea14455741f012b597bac086faf2d",
        "f7bd7d4aad5417c03173cc82dcc2f0584b59a2fe4b5c336959ccfb24ec47f42a",
    ),
}


# the same for mixed_session with demo.cfg plus `engine.explore_prob = 0.3`,
# so the XCS exploration draw is pinned too
GOLDEN_EXPLORING_REPLAY = (
    "9f958544452b51d97b4f51f4e582d819c6b39c0d6ef3cf81a5ff73c7a8e1d1de",
    "87032b679cf2fb1b4d39ec35321edf4af393676ad457203a39e03c66a112352f",
    "fa317d5d67cb200f8282b88701819a00e0473ec614c9c3c1c58bfd52edee443a",
)


def _replay_digests(trace, config, tmp_path) -> tuple[str, str, str]:
    paths = [tmp_path / "out.mid", tmp_path / "cycles.jsonl", tmp_path / "score.jsonl"]
    assert main(["replay", str(ASSET_ROOT / "traces" / f"{trace}.jsonl"),
                 "--config", str(config), "--out", str(paths[0]),
                 "--cycle-log", str(paths[1]), "--score-log", str(paths[2])]) == EXIT_OK
    return tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in paths)


@pytest.mark.parametrize("trace", sorted(GOLDEN_REPLAYS))
def test_replay_output_matches_golden_digests(trace, tmp_path):
    assert _replay_digests(trace, ASSET_ROOT / "demo.cfg", tmp_path) == GOLDEN_REPLAYS[trace]


def test_exploring_replay_matches_golden_digests(tmp_path):
    config = tmp_path / "explore.cfg"
    config.write_text((ASSET_ROOT / "demo.cfg").read_text() + "engine.explore_prob = 0.3\n")
    assert _replay_digests("mixed_session", config, tmp_path) == GOLDEN_EXPLORING_REPLAY


def test_replay_bad_trace_exits_runtime(tmp_path, capsys):
    trace = tmp_path / "bad.jsonl"
    trace.write_text('{"t_ms": 5, "type": "affect", "category": "threat", "level": 1}\n'
                     '{"t_ms": 1, "type": "affect", "category": "threat", "level": 1}\n')
    assert main(["replay", str(trace)]) == EXIT_RUNTIME
    assert "goes backwards" in capsys.readouterr().err


def test_replay_deeply_nested_trace_line_exits_runtime(tmp_path, capsys):
    trace = tmp_path / "deep.jsonl"
    trace.write_text("[" * 200_000 + "\n")
    assert main(["replay", str(trace)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error: {trace}:1: ")


def test_replay_missing_trace_exits_runtime(capsys):
    assert main(["replay", "/nonexistent.jsonl"]) == EXIT_RUNTIME


def test_replay_bad_config_exits_usage(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    bad = tmp_path / "bad.cfg"
    bad.write_text("engine.whatever = 1\n")
    assert main(["replay", str(trace), "--config", str(bad)]) == EXIT_USAGE


def test_replay_bad_theme_file_exits_runtime(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    themes = tmp_path / "themes"
    themes.mkdir()
    (themes / "bad.theme").write_text("theme_id: x\nkey: C major\nlength_measures: 1\n")
    config = tmp_path / "themes.cfg"
    config.write_text("engine.theme_dir = themes\n")
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: {themes / 'bad.theme'}:1: theme_id must be an integer")


@pytest.mark.parametrize("note", ["60 -120 240 96", "60 1800 240 96"])
def test_replay_theme_note_outside_the_theme_exits_runtime(note, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    themes = tmp_path / "themes"
    themes.mkdir()
    (themes / "a.theme").write_text(f"theme_id: 0\nkey: C major\nlength_measures: 1\n"
                                    f"note: {note}\n")
    config = tmp_path / "themes.cfg"
    config.write_text("engine.theme_dir = themes\n")
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith(f"error: {themes / 'a.theme'}:4: note spans ticks ")


def test_replay_with_overlapping_theme_notes_writes_a_readable_smf(tmp_path):
    # a second E4 starts while the first still sounds; parse_theme accepts it
    themes = tmp_path / "themes"
    themes.mkdir()
    for path in (ASSET_ROOT / "themes").glob("*.theme"):
        (themes / path.name).write_text(path.read_text())
    with open(themes / "00_village.theme", "a") as fh:
        fh.write("note: 64 60 480 88\n")
    config = tmp_path / "overlap.cfg"
    config.write_text((ASSET_ROOT / "demo.cfg").read_text() + "engine.theme_dir = themes\n")
    out = tmp_path / "out.mid"
    assert main(["replay", str(ASSET_ROOT / "traces" / "threat_ramp.jsonl"),
                 "--config", str(config), "--out", str(out)]) == EXIT_OK
    assert any(t.notes for t in read_midi_bytes(out.read_bytes()).tracks)


def test_replay_default_theme_missing_from_the_library_exits_runtime(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    config = tmp_path / "theme15.cfg"
    config.write_text("engine.default_theme = 15\n")
    out = tmp_path / "out.mid"
    assert main(["replay", str(trace), "--config", str(config), "--out", str(out)]) == EXIT_RUNTIME
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: default_theme 15 is not in ")


@pytest.mark.parametrize("blob, message", [
    (b"AMSC\x01", "truncated model header"),
    (b"AMSC" + struct.pack(">BI", 1, 9) + b"{not json", "malformed model body"),
    (b"AMSC" + struct.pack(">BI", 1, 2) + b"{}", "malformed model body: KeyError"),
    (b"AMSC" + struct.pack(">BI", 1, 200_000) + b"[" * 200_000,
     "malformed model body: RecursionError"),
], ids=["short-header", "bad-json", "no-order", "deep-json"])
def test_replay_corrupt_chord_model_exits_runtime(blob, message, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    model = tmp_path / "chords.model"
    model.write_bytes(blob)
    config = tmp_path / "model.cfg"
    config.write_text("engine.chord_model = chords.model\n")
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_RUNTIME
    assert capsys.readouterr().err.startswith(f"error: {model}: {message}")


def test_train_chords_writes_model(tmp_path, capsys):
    out = tmp_path / "model.bin"
    assert main(["train-chords", "--order", "2", "--out", str(out)]) == EXIT_OK
    assert "trained order-2 model" in capsys.readouterr().out
    model = ChordSequenceModel.load(out)
    assert model.order == 2


def test_train_chords_defaults_to_bundled_corpora(tmp_path, capsys):
    out = tmp_path / "m.bin"
    assert main(["train-chords", "--out", str(out)]) == EXIT_OK
    trained = ChordSequenceModel.load(out)
    bundled = load_chord_model(EngineConfig())
    assert trained.counts == bundled.counts
    assert trained.vocabulary == bundled.vocabulary


def test_train_chords_order_below_one_exits_usage_before_reading_a_corpus(tmp_path, capsys):
    out = tmp_path / "m.bin"
    with pytest.raises(SystemExit) as exc:
        main(["train-chords", "jazz:/nonexistent.chords", "--order", "0", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "order must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_chords_bad_corpus_spec(tmp_path, capsys):
    assert main(["train-chords", "nostyle.chords", "--out",
                 str(tmp_path / "m.bin")]) == EXIT_RUNTIME


def _theme_dir_config(tmp_path, theme_bytes):
    themes = tmp_path / "themes"
    themes.mkdir()
    (themes / "a.theme").write_bytes(theme_bytes)
    config = tmp_path / "themes.cfg"
    config.write_text("engine.theme_dir = themes\n")
    return config


@pytest.mark.parametrize("case", ["trace", "validate-config", "config", "theme", "corpus"])
def test_non_utf8_input_file_exits_cleanly(case, tmp_path, capsys):
    """A 0xff byte in any input file is the reading module's error, naming
    the file, not a UnicodeDecodeError traceback."""
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# \xff\n")
    trace = tmp_path / "t.jsonl"
    trace.write_text(TRACE)
    argv, status, prefix = {
        "trace": (["replay", str(bad)], EXIT_RUNTIME, f"error: {bad}: not UTF-8 text"),
        "validate-config": (["validate-config", str(bad)], EXIT_USAGE,
                            f"invalid: {bad}: not UTF-8 text"),
        "config": (["replay", str(trace), "--config", str(bad)], EXIT_USAGE,
                   f"config error: {bad}: not UTF-8 text"),
        "theme": (["replay", str(trace), "--config",
                   str(_theme_dir_config(tmp_path, b"theme_id: 0\xff\n"))], EXIT_RUNTIME,
                  f"error: {tmp_path / 'themes' / 'a.theme'}: not UTF-8 text"),
        "corpus": (["train-chords", f"jazz:{bad}", "--out", str(tmp_path / "m.bin")],
                   EXIT_RUNTIME, f"error: {bad}: not UTF-8 text"),
    }[case]
    assert main(argv) == status
    assert capsys.readouterr().err.startswith(prefix)


def _model_blob(**changes) -> bytes:
    payload = {"order": 1, "vocabulary": ["c/0/maj", "c/7/maj"],
               "counts": [[[], {"c/0/maj": 2, "c/7/maj": 1}], [["c/0/maj"], {"c/7/maj": 1}]]}
    payload.update(changes)
    body = json.dumps(payload).encode("utf-8")
    return ChordSequenceModel.MAGIC + struct.pack(">BI", 1, len(body)) + body


@pytest.mark.parametrize("changes, message", [
    ({"order": "3"}, "order must be an int >= 1, got '3'"),
    ({"order": 2.5}, "order must be an int >= 1, got 2.5"),
    ({"order": 0}, "order must be an int >= 1, got 0"),
    ({"order": -2}, "order must be an int >= 1, got -2"),
    ({"order": True}, "order must be an int >= 1, got True"),
    ({"counts": [[[], {"c/0/maj": "2"}]]},
     "count of 'c/0/maj' after [] must be an int >= 1, got '2'"),
    ({"counts": [[["c/0/maj"], {"c/7/maj": -1}]]},
     "count of 'c/7/maj' after ['c/0/maj'] must be an int >= 1, got -1"),
    ({"counts": [[[], {"c/0/maj": 0}]]},
     "count of 'c/0/maj' after [] must be an int >= 1, got 0"),
], ids=["order-str", "order-float", "order-zero", "order-negative", "order-bool",
        "count-str", "count-negative", "count-zero"])
def test_replay_chord_model_with_bad_order_or_counts_exits_runtime(changes, message,
                                                                   tmp_path, capsys):
    model = tmp_path / "chords.model"
    model.write_bytes(_model_blob(**changes))
    config = tmp_path / "model.cfg"
    config.write_text("engine.chord_model = chords.model\n")
    trace = ASSET_ROOT / "traces" / "threat_ramp.jsonl"
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {model}: {message}\n"


def test_replay_chord_model_listing_a_chord_twice_exits_runtime(tmp_path, capsys):
    model = tmp_path / "chords.model"
    model.write_bytes(_model_blob(vocabulary=["c/0/maj", "c/7/maj"] * 2))
    config = tmp_path / "model.cfg"
    config.write_text("engine.chord_model = chords.model\n")
    trace = ASSET_ROOT / "traces" / "threat_ramp.jsonl"
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_RUNTIME
    assert capsys.readouterr().err == (f"error: {model}: malformed model body: "
                                       "ChordError('vocabulary lists a token twice')\n")


def test_chord_model_of_valid_order_and_counts_replays(tmp_path, capsys):
    model = tmp_path / "chords.model"
    model.write_bytes(_model_blob())
    config = tmp_path / "model.cfg"
    config.write_text("engine.chord_model = chords.model\n")
    trace = ASSET_ROOT / "traces" / "threat_ramp.jsonl"
    assert main(["replay", str(trace), "--config", str(config)]) == EXIT_OK


def test_repl_messages_obey_osc_schema(monkeypatch, capsys):
    lines = iter(["activate torch 500", "activate torch 60 weapon", "affect fear 50",
                  "theme torch 999", "edge torch", "activate torch 60 environment add",
                  "affect THREAT 40", "graph", "quit"])
    monkeypatch.setattr(builtins, "input", lambda _prompt: next(lines))
    assert main(["repl"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("error:") == 5
    assert "vertex torch kind=environment act=60.000000" in out
    assert "vertex threat kind=affect act=40.000000" in out


def test_repl_failed_save_keeps_the_session(monkeypatch, tmp_path, capsys):
    out = tmp_path / "later.mid"
    monkeypatch.setattr("sys.stdin", io.StringIO(f"save {tmp_path}\ntick 2\nsave {out}\n"))
    assert main(["repl"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "error: [Errno 21] Is a directory" in printed
    assert "t=60 ms" in printed
    assert read_midi_bytes(out.read_bytes()).tracks


def test_usage_error_for_unknown_command():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE
