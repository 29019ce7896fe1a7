"""MIDI writing and parse-back."""

import time

import pytest

from ams.render import (
    MIN_TEMPO_BPM,
    RenderError,
    Score,
    ScoreNote,
    Track,
    _vlq,
    read_midi_bytes,
    score_to_midi_bytes,
)


def sample_score() -> Score:
    melody = Track("melody-1", 0, [
        ScoreNote(60, 0, 480, 96),
        ScoreNote(64, 480, 480, 90),
        ScoreNote(67, 960, 960, 100),
    ])
    drums = Track("percussion", 9, [
        ScoreNote(36, 0, 60, 100),
        ScoreNote(38, 480, 60, 110),
    ])
    return Score(tempo_bpm=120.0, tracks=[melody, drums])


def test_header_and_format():
    blob = score_to_midi_bytes(sample_score())
    assert blob[:4] == b"MThd"
    assert blob[8:10] == b"\x00\x01"   # SMF type 1
    assert blob[12:14] == (480).to_bytes(2, "big")


def test_round_trip():
    score = sample_score()
    parsed = read_midi_bytes(score_to_midi_bytes(score))
    assert parsed.tempo_bpm == pytest.approx(120.0)
    assert len(parsed.tracks) == 2
    for original, parsed_track in zip(score.tracks, parsed.tracks):
        assert parsed_track.name == original.name
        assert parsed_track.channel == original.channel
        assert sorted(parsed_track.notes, key=lambda n: (n.onset, n.pitch)) == \
            sorted(original.notes, key=lambda n: (n.onset, n.pitch))


def test_slowest_configurable_tempo_round_trips():
    score = Score(tempo_bpm=MIN_TEMPO_BPM, tracks=sample_score().tracks)
    assert read_midi_bytes(score_to_midi_bytes(score)).tempo_bpm == pytest.approx(MIN_TEMPO_BPM)


def test_bytes_are_deterministic():
    assert score_to_midi_bytes(sample_score()) == score_to_midi_bytes(sample_score())


def test_note_off_before_on_at_same_tick():
    track = Track("t", 0, [ScoreNote(60, 0, 480, 96), ScoreNote(60, 480, 480, 96)])
    parsed = read_midi_bytes(score_to_midi_bytes(Score(120.0, [track])))
    assert len(parsed.tracks[0].notes) == 2


def test_track_add_cuts_a_sounding_note_of_the_same_pitch():
    track = Track("t", 0)
    for note in (ScoreNote(64, 0, 480, 88), ScoreNote(60, 30, 480, 90),
                 ScoreNote(64, 60, 480, 70), ScoreNote(64, 540, 60, 80)):
        track.add(note)
    # the second 64 ends exactly where the third starts: no cut
    assert track.notes == [ScoreNote(64, 0, 60, 88), ScoreNote(60, 30, 480, 90),
                           ScoreNote(64, 60, 480, 70), ScoreNote(64, 540, 60, 80)]
    parsed = read_midi_bytes(score_to_midi_bytes(Score(120.0, [track])))
    assert parsed.tracks[0].notes == sorted(track.notes, key=lambda n: (n.onset, n.pitch))


def test_track_add_keeps_one_note_per_pitch_and_onset():
    track = Track("t", 9)
    track.add(ScoreNote(36, 3830, 60, 100))
    track.add(ScoreNote(36, 3840, 60, 90))   # a kick across a block boundary
    track.add(ScoreNote(36, 3840, 60, 110))  # the later note of an onset stays
    assert track.notes == [ScoreNote(36, 3830, 10, 100), ScoreNote(36, 3840, 60, 110)]
    read_midi_bytes(score_to_midi_bytes(Score(120.0, [track])))


def test_vlq_encoding():
    assert _vlq(0) == b"\x00"
    assert _vlq(127) == b"\x7f"
    assert _vlq(128) == b"\x81\x00"
    assert _vlq(0x3FFF) == b"\xff\x7f"
    with pytest.raises(RenderError):
        _vlq(-1)


def test_zero_duration_rejected():
    track = Track("t", 0, [ScoreNote(60, 0, 0, 96)])
    with pytest.raises(RenderError):
        score_to_midi_bytes(Score(120.0, [track]))


def test_parse_back_detects_unmatched_note_on():
    import struct
    body = b"\x00\x90\x3c\x40" + b"\x00\xff\x2f\x00"  # note-on, no note-off
    blob = (b"MThd" + struct.pack(">IHHH", 6, 1, 1, 480)
            + b"MTrk" + struct.pack(">I", len(body)) + body)
    with pytest.raises(RenderError):
        read_midi_bytes(blob)


def test_a_long_track_encodes_in_linear_time():
    # a day of `session` replay writes about 330k percussion notes; a track
    # body grown by bytes concatenation costs time quadratic in its notes
    notes = [ScoreNote(36 + i % 12, 60 * i, 30, 100) for i in range(100_000)]
    start = time.perf_counter()
    blob = score_to_midi_bytes(Score(120.0, [Track("percussion", 9, notes)]))
    assert time.perf_counter() - start < 5.0
    assert len(read_midi_bytes(blob).tracks[0].notes) == 100_000
