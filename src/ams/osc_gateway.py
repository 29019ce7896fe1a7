"""OSC 1.0 ingestion: wire codec, typed game messages, receive queue and UDP server.

Address schema:
    /ams/activate  (s name, s kind, f level, s mode)
    /ams/affect    (s category, f level, s mode)
    /ams/edge      (s a, s b, f weight)
    /ams/theme     (s concept, s theme_id; an i theme_id is also accepted)

Numerics are big-endian per OSC; strings are NUL-terminated and padded to
4-byte boundaries.  Unknown addresses are skipped with a warning, out-of-range
values reject the single message, structural damage aborts the whole packet.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

AFFECT_CATEGORIES = ("happiness", "excitement", "anger", "sadness", "tenderness", "threat")
MAX_LEVEL = 100.0  # activation levels lie in [0, MAX_LEVEL]

THEME_IDS = 64  # theme ids 0..63: the classifier context encodes one in 6 bits

QUEUE_CAPACITY = 65536
MAX_BUNDLE_DEPTH = 16


class OscDecodeError(ValueError):
    """Structurally broken datagram (truncation, bad padding, bad type tags)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True)
class ActivateConcept:
    name: str
    kind: str  # "object" | "environment"
    level: float  # 0..MAX_LEVEL
    mode: str  # "set" | "add"


@dataclass(frozen=True)
class SetAffect:
    category: str
    level: float
    mode: str


@dataclass(frozen=True)
class SetEdge:
    a: str
    b: str
    weight: float  # 0..1


@dataclass(frozen=True)
class AssignTheme:
    concept: str
    theme_id: int


GameMessage = ActivateConcept | SetAffect | SetEdge | AssignTheme


# ---------------------------------------------------------------------------
# wire format


def _read_string(data: bytes, offset: int, limit: int) -> tuple[str, int]:
    end = data.find(b"\x00", offset, limit)
    if end < 0:
        raise OscDecodeError("unterminated OSC string", offset)
    raw = data[offset:end]
    new_offset = offset + ((end - offset) // 4 + 1) * 4
    if new_offset > limit:
        raise OscDecodeError("string padding runs past end of datagram", end)
    try:
        return raw.decode("utf-8"), new_offset
    except UnicodeDecodeError:
        raise OscDecodeError("non-UTF8 OSC string", offset) from None


def _pad_string(s: str) -> bytes:
    raw = s.encode("utf-8") + b"\x00"
    return raw + b"\x00" * (-len(raw) % 4)


def _parse_message(data: bytes, start: int, end: int) -> tuple[str, list]:
    """Parse the OSC message in data[start:end] into (address, args)."""
    address, offset = _read_string(data, start, end)
    tags, offset = _read_string(data, offset, end)
    if not tags.startswith(","):
        raise OscDecodeError("type tag string must start with ','", offset)
    args = []
    for tag in tags[1:]:
        if tag == "s":
            value, offset = _read_string(data, offset, end)
        elif tag == "f":
            if offset + 4 > end:
                raise OscDecodeError("truncated float argument", offset)
            (value,) = struct.unpack_from(">f", data, offset)
            offset += 4
        elif tag == "i":
            if offset + 4 > end:
                raise OscDecodeError("truncated int argument", offset)
            (value,) = struct.unpack_from(">i", data, offset)
            offset += 4
        else:
            raise OscDecodeError(f"unsupported type tag {tag!r}", offset)
        args.append(value)
    return address, args


def encode_bundle(elements: list[bytes]) -> bytes:
    out = _pad_string("#bundle") + struct.pack(">Q", 1)  # timetag 1: immediately
    for element in elements:
        out += struct.pack(">i", len(element)) + element
    return out


# ---------------------------------------------------------------------------
# schema: each message type is declared once, in MESSAGE_TYPES.  The OSC
# codec, trace files and REPL commands all build messages through it, so a
# value is accepted from one source exactly when it is from the others.


def _name(value) -> str:
    if not isinstance(value, str) or not value or "\x00" in value:
        raise ValueError(f"expected a non-empty string without NUL, got {value!r}")
    value.encode("utf-8")  # a lone surrogate raises UnicodeEncodeError, a ValueError
    return value


def _number(hi: float):
    def check(value) -> float:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= hi:
            raise ValueError(f"expected a number in [0, {hi:g}], got {value!r}")
        return float(value)
    return check


def _one_of(*choices: str):
    def check(value) -> str:
        if value not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {value!r}")
        return value
    return check


def _category(value) -> str:
    return _one_of(*AFFECT_CATEGORIES)(value.lower() if isinstance(value, str) else value)


def _theme_id(value) -> int:
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)  # any other string is rejected below as not an integer
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < THEME_IDS:
        raise ValueError(f"expected an integer in [0, {THEME_IDS - 1}], got {value!r}")
    return value


@dataclass(frozen=True)
class MessageType:
    """One game message type.  `fields` holds (name, OSC type tag, check)
    in wire order, the order of the message class's fields; each check
    returns the validated value or raises ValueError.  Trace lines and REPL
    commands may omit the fields in `defaults`."""

    name: str  # trace "type" and REPL command
    address: str
    cls: type
    fields: tuple[tuple[str, str, Callable], ...]
    defaults: dict[str, str] = field(default_factory=dict)

    def build(self, args: list) -> GameMessage:
        """Validate field values given in wire order."""
        if len(args) != len(self.fields):
            raise ValueError(f"expected ({', '.join(name for name, _, _ in self.fields)})")
        values = []
        for (name, _tag, check), value in zip(self.fields, args):
            try:
                values.append(check(value))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
        return self.cls(*values)

    def from_fields(self, values: dict) -> GameMessage:
        """Validate named field values, as a trace line or REPL command gives them."""
        for name, _, _ in self.fields:
            if name not in values and name not in self.defaults:
                raise ValueError(f"{self.name} needs field {name!r}")
        return self.build([values.get(name, self.defaults.get(name))
                           for name, _, _ in self.fields])


_MODE = ("mode", "s", _one_of("set", "add"))
MESSAGE_TYPES = {t.name: t for t in (
    MessageType("activate", "/ams/activate", ActivateConcept,
                (("name", "s", _name), ("kind", "s", _one_of("object", "environment")),
                 ("level", "f", _number(MAX_LEVEL)), _MODE),
                {"kind": "object", "mode": "set"}),
    MessageType("affect", "/ams/affect", SetAffect,
                (("category", "s", _category), ("level", "f", _number(MAX_LEVEL)), _MODE),
                {"mode": "set"}),
    MessageType("edge", "/ams/edge", SetEdge,
                (("a", "s", _name), ("b", "s", _name), ("weight", "f", _number(1.0)))),
    MessageType("theme", "/ams/theme", AssignTheme,
                (("concept", "s", _name), ("theme_id", "s", _theme_id))),
)}
_BY_ADDRESS = {t.address: t for t in MESSAGE_TYPES.values()}
_BY_CLASS = {t.cls: t for t in MESSAGE_TYPES.values()}


def message_to_osc(msg: GameMessage) -> bytes:
    """Encode a typed GameMessage back to its wire form, each field with the
    type tag its schema declares."""
    kind = _BY_CLASS.get(type(msg))
    if kind is None:
        raise TypeError(f"not a GameMessage: {msg!r}")
    tags = ","
    body = b""
    for name, tag, _ in kind.fields:
        value = getattr(msg, name)
        tags += tag
        body += struct.pack(">f", float(value)) if tag == "f" else _pad_string(str(value))
    return _pad_string(kind.address) + _pad_string(tags) + body


def decode_packet(data: bytes) -> list[GameMessage]:
    """Decode one UDP datagram (message or bundle) into GameMessages.

    Per-message schema violations are logged and skipped; structural damage,
    including bundles nested deeper than MAX_BUNDLE_DEPTH, raises
    OscDecodeError.
    """
    messages: list[GameMessage] = []
    _decode_element(data, 0, len(data), 0, messages)
    return messages


def _decode_element(data: bytes, start: int, end: int, depth: int,
                    out: list[GameMessage]) -> None:
    """Decode the element data[start:end] into out, without copying it."""
    if start == end:
        return
    if data.startswith(b"#bundle\x00", start, end):
        if depth == MAX_BUNDLE_DEPTH:
            raise OscDecodeError(f"bundles nested deeper than {MAX_BUNDLE_DEPTH}", start)
        offset = start + 16  # "#bundle\0" + 64-bit timetag
        if offset > end:
            raise OscDecodeError("truncated bundle header", end)
        while offset < end:
            if offset + 4 > end:
                raise OscDecodeError("truncated bundle element size", offset)
            (size,) = struct.unpack_from(">i", data, offset)
            offset += 4
            if size < 0 or offset + size > end:
                raise OscDecodeError("bundle element overruns datagram", offset)
            _decode_element(data, offset, offset + size, depth + 1, out)
            offset += size
        return

    address, args = _parse_message(data, start, end)
    kind = _BY_ADDRESS.get(address)
    if kind is None:
        log.warning("skipping message with unknown OSC address %r", address)
        return
    try:
        out.append(kind.build(args))
    except ValueError as exc:
        log.warning("rejecting %s message: %s", address, exc)


# ---------------------------------------------------------------------------
# receive queue and server


class MessageQueue:
    """Bounded FIFO between the OSC receiver and the engine thread.

    One producer, one consumer.  Overflow drops the oldest messages and
    counts them.
    """

    def __init__(self, capacity: int = QUEUE_CAPACITY):
        self.capacity = capacity
        self._items: deque[GameMessage] = deque()
        self._lock = threading.Lock()
        self.dropped = 0

    def put(self, msg: GameMessage) -> None:
        with self._lock:
            if len(self._items) >= self.capacity:
                self._items.popleft()
                self.dropped += 1
            self._items.append(msg)

    def put_many(self, msgs: list[GameMessage]) -> None:
        for msg in msgs:
            self.put(msg)

    def drain(self) -> list[GameMessage]:
        """Atomically remove and return all queued messages in arrival order.
        An empty queue returns at once: only the consumer removes items, so
        a message that arrives during the check waits for the next drain."""
        if not self._items:
            return []
        with self._lock:
            items = list(self._items)
            self._items.clear()
        return items

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class OscServer:
    """UDP receiver decoding datagrams into a MessageQueue on its own thread."""

    def __init__(self, queue: MessageQueue, port: int, host: str):
        self.queue = queue
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind((host, port))
        self._sock.settimeout(0.1)
        self.port = self._sock.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="ams-osc", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, _addr = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            try:
                self.queue.put_many(decode_packet(data))
            except OscDecodeError as exc:
                log.warning("dropping malformed datagram: %s", exc)
            except Exception:  # the receiver must outlive any one datagram
                log.exception("dropping datagram that failed to decode")

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)
        self._sock.close()
