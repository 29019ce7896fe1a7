"""Score rendering: deterministic Standard MIDI File output and a parse-back
reader for round-trip checks."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

# The time grid, fixed at 4/4: every module takes these from here.
TICKS_PER_QUARTER = 480  # SMF division
BEATS_PER_MEASURE = 4
MEASURE_TICKS = BEATS_PER_MEASURE * TICKS_PER_QUARTER
TICKS_PER_CELL = TICKS_PER_QUARTER // 4  # sixteenth-note cells
BLOCK_MEASURES = 2  # one composition cycle and one percussion phrase
BLOCK_TICKS = BLOCK_MEASURES * MEASURE_TICKS
MIDI_MAX = 127  # the largest 7-bit MIDI data value: pitch and velocity

PERCUSSION_CHANNEL = 9  # MIDI channel 10, zero-based
# the slowest tempo an SMF set-tempo event holds: 24-bit microseconds per quarter
MIN_TEMPO_BPM = 60_000_000 / 0xFFFFFF


class RenderError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreNote:
    pitch: int
    onset: int  # absolute ticks
    duration: int
    velocity: int


@dataclass
class Track:
    name: str
    channel: int
    notes: list[ScoreNote] = field(default_factory=list)
    # pitch -> index in notes of the last note added at that pitch
    _last: dict[int, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add(self, note: ScoreNote) -> None:
        """Append a note, a pitch's notes in onset order.  The note of its
        pitch still sounding at its onset is cut short there, or replaced if
        it starts there too: an SMF sounds one note per pitch and channel."""
        index = self._last.get(note.pitch)
        if index is not None:
            prior = self.notes[index]
            if prior.onset == note.onset:
                self.notes[index] = note
                return
            if prior.onset + prior.duration > note.onset:
                self.notes[index] = replace(prior, duration=note.onset - prior.onset)
        self._last[note.pitch] = len(self.notes)
        self.notes.append(note)


@dataclass
class Score:
    tempo_bpm: float
    tracks: list[Track] = field(default_factory=list)


# ---------------------------------------------------------------------------
# SMF writing


def _vlq(value: int) -> bytes:
    if value < 0:
        raise RenderError("negative delta time")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _chunk(tag: bytes, body: bytes) -> bytes:
    return tag + struct.pack(">I", len(body)) + body


def _meta_track(tempo_bpm: float) -> bytes:
    usec_per_quarter = int(round(60_000_000 / tempo_bpm))
    body = b"\x00\xff\x51\x03" + struct.pack(">I", usec_per_quarter)[1:]
    body += b"\x00\xff\x2f\x00"
    return _chunk(b"MTrk", body)


def _note_track(track: Track) -> bytes:
    events: list[tuple[int, int, int, int]] = []  # (tick, order, pitch, velocity)
    for note in track.notes:
        if note.duration <= 0:
            raise RenderError(f"non-positive duration on {note}")
        events.append((note.onset + note.duration, 0, note.pitch, 0))  # off first
        events.append((note.onset, 1, note.pitch, note.velocity))
    events.sort()
    body = bytearray()
    if track.name:
        name = track.name.encode("ascii", "replace")
        body += b"\x00\xff\x03" + bytes([len(name)]) + name
    cursor = 0
    for tick, order, pitch, velocity in events:
        body += _vlq(tick - cursor)
        cursor = tick
        status = (0x90 if order == 1 else 0x80) | (track.channel & 0x0F)
        body += bytes([status, pitch & 0x7F, velocity & 0x7F])
    body += b"\x00\xff\x2f\x00"
    return _chunk(b"MTrk", body)


def score_to_midi_bytes(score: Score) -> bytes:
    """Serialize as SMF type 1, TICKS_PER_QUARTER division, tempo track first."""
    chunks = [_meta_track(score.tempo_bpm)]
    chunks.extend(_note_track(t) for t in score.tracks)
    header = struct.pack(">HHH", 1, len(chunks), TICKS_PER_QUARTER)
    return _chunk(b"MThd", header) + b"".join(chunks)


def write_midi(score: Score, path) -> None:
    with open(path, "wb") as fh:
        fh.write(score_to_midi_bytes(score))


# ---------------------------------------------------------------------------
# SMF parse-back (independent of the writer's event bookkeeping)


def read_midi_bytes(blob: bytes) -> Score:
    """Parse an SMF back into a Score; raises on unmatched note-ons."""
    if blob[:4] != b"MThd":
        raise RenderError("not an SMF file")
    (header_len,) = struct.unpack_from(">I", blob, 4)
    fmt, ntracks, division = struct.unpack_from(">HHH", blob, 8)
    offset = 8 + header_len
    tempo_bpm = 120.0
    tracks: list[Track] = []
    for index in range(ntracks):
        if blob[offset : offset + 4] != b"MTrk":
            raise RenderError(f"track {index}: missing MTrk header")
        (length,) = struct.unpack_from(">I", blob, offset + 4)
        body = blob[offset + 8 : offset + 8 + length]
        offset += 8 + length
        tick = 0
        pos = 0
        open_notes: dict[tuple[int, int], tuple[int, int]] = {}
        track = Track(name="", channel=0)
        running_status = 0
        while pos < len(body):
            delta = 0
            while True:
                byte = body[pos]
                pos += 1
                delta = (delta << 7) | (byte & 0x7F)
                if not byte & 0x80:
                    break
            tick += delta
            status = body[pos]
            if status & 0x80:
                pos += 1
                running_status = status
            else:
                status = running_status
            if status == 0xFF:
                meta = body[pos]
                length_byte = body[pos + 1]
                data = body[pos + 2 : pos + 2 + length_byte]
                pos += 2 + length_byte
                if meta == 0x51:
                    usec = int.from_bytes(data, "big")
                    tempo_bpm = 60_000_000 / usec
                elif meta == 0x03:
                    track.name = data.decode("ascii", "replace")
                elif meta == 0x2F:
                    break
            elif status & 0xF0 in (0x90, 0x80):
                pitch, velocity = body[pos], body[pos + 1]
                pos += 2
                channel = status & 0x0F
                track.channel = channel
                key = (channel, pitch)
                if status & 0xF0 == 0x90 and velocity > 0:
                    open_notes[key] = (tick, velocity)
                else:
                    if key not in open_notes:
                        raise RenderError(f"note-off without note-on for pitch {pitch}")
                    onset, vel = open_notes.pop(key)
                    track.notes.append(ScoreNote(pitch, onset, tick - onset, vel))
            else:
                raise RenderError(f"unsupported MIDI status 0x{status:02x}")
        if open_notes:
            raise RenderError("unmatched note-on at end of track")
        track.notes.sort(key=lambda n: (n.onset, n.pitch))
        if index > 0 or track.notes:
            tracks.append(track)
    return Score(tempo_bpm=tempo_bpm, tracks=tracks)
