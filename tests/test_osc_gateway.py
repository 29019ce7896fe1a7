"""Codec and queue tests for the UDP game-message gateway."""

import socket
import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ams.osc_gateway
from ams.osc_gateway import (
    ActivateConcept,
    AssignTheme,
    MessageQueue,
    OscDecodeError,
    OscServer,
    SetAffect,
    SetEdge,
    decode_packet,
    encode_bundle,
    message_to_osc,
)

MESSAGES = [
    ActivateConcept("wolf", "object", 80.0, "set"),
    ActivateConcept("cave", "environment", 12.5, "add"),
    SetAffect("threat", 66.0, "set"),
    SetEdge("wolf", "threat", 0.75),
    AssignTheme("wolf", 3),
]


@pytest.mark.parametrize("msg", MESSAGES)
def test_round_trip_single(msg):
    assert decode_packet(message_to_osc(msg)) == [msg]


def test_round_trip_bundle():
    packet = encode_bundle([message_to_osc(m) for m in MESSAGES])
    assert decode_packet(packet) == MESSAGES


def test_nested_bundle():
    inner = encode_bundle([message_to_osc(m) for m in MESSAGES[:2]])
    outer = encode_bundle([inner, message_to_osc(MESSAGES[2])])
    assert decode_packet(outer) == MESSAGES[:3]


def test_strings_are_nul_padded():
    packet = message_to_osc(SetAffect("threat", 1.0, "set"))
    assert packet.startswith(b"/ams/affect\x00")
    assert len(packet) % 4 == 0


def test_float_is_big_endian():
    packet = message_to_osc(SetEdge("a", "b", 0.5))
    assert struct.pack(">f", 0.5) in packet


def test_unknown_address_is_skipped():
    packet = message_to_osc(SetAffect("threat", 1.0, "set"))
    bad = packet.replace(b"/ams/affect", b"/ams/bogus!")
    assert decode_packet(bad) == []


def test_bad_affect_category_is_skipped(caplog):
    packet = message_to_osc(SetAffect("threat", 1.0, "set"))
    bad = packet.replace(b"threat\x00\x00", b"abcdef\x00\x00")
    assert decode_packet(bad) == []


def test_out_of_range_level_is_skipped():
    packet = message_to_osc(SetAffect("threat", 1.0, "set"))
    bad = packet.replace(struct.pack(">f", 1.0), struct.pack(">f", 250.0))
    assert decode_packet(bad) == []


# strings int() reads as a number; a theme id string is ASCII digits only
LOOSE_THEME_IDS = [" 3", "+3", "0_3", "\u0663", "3\n", "-0"]


@pytest.mark.parametrize("theme_id", LOOSE_THEME_IDS)
def test_theme_id_string_of_other_than_ascii_digits_is_skipped(theme_id):
    packet = message_to_osc(AssignTheme("wolf", 3))
    assert packet.endswith(ams.osc_gateway._pad_string("3"))
    bad = packet[:-4] + ams.osc_gateway._pad_string(theme_id)
    assert decode_packet(bad) == []


def test_structural_garbage_raises_with_offset():
    with pytest.raises(OscDecodeError) as err:
        decode_packet(b"/ams/edge\x00\x00\x00no-comma\x00\x00\x00\x00")
    assert err.value.offset >= 0


def test_truncated_arguments_raise():
    packet = message_to_osc(SetEdge("a", "b", 0.5))
    with pytest.raises(OscDecodeError):
        decode_packet(packet[:-2])


def _nested_bundles() -> bytes:
    """A 65,000-byte datagram: one message inside 3,248 nested bundles."""
    packet = message_to_osc(SetAffect("tenderness", 1.0, "set"))
    for _ in range(3248):
        packet = encode_bundle([packet])
    assert len(packet) == 65000
    return packet


def test_deep_bundle_nesting_is_rejected():
    with pytest.raises(OscDecodeError, match="nested deeper"):
        decode_packet(_nested_bundles())


def test_structural_error_offset_is_absolute():
    packet = message_to_osc(SetEdge("a", "b", 0.5))
    bundle = encode_bundle([packet[:-2]])
    with pytest.raises(OscDecodeError) as err:
        decode_packet(bundle)
    assert err.value.offset == 20 + len(packet) - 4


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_decoder_never_crashes(blob):
    try:
        decode_packet(blob)
    except OscDecodeError:
        pass


@settings(max_examples=100, deadline=None)
@given(st.lists(
    st.sampled_from(MESSAGES) | st.builds(
        SetAffect,
        st.sampled_from(["happiness", "excitement", "anger",
                         "sadness", "tenderness", "threat"]),
        st.floats(min_value=0, max_value=100, allow_nan=False, width=32),
        st.sampled_from(["set", "add"])),
    min_size=1, max_size=8))
def test_bundle_round_trip_property(msgs):
    packet = encode_bundle([message_to_osc(m) for m in msgs])
    assert decode_packet(packet) == msgs


def test_queue_drops_oldest():
    q = MessageQueue(capacity=3)
    for i in range(5):
        q.put(AssignTheme("x", i))
    assert q.dropped == 2
    assert [m.theme_id for m in q.drain()] == [2, 3, 4]
    assert len(q) == 0


def _send_and_receive(datagrams: list[bytes]) -> list:
    """Send datagrams to a live server; return what it queued within 2 s."""
    q = MessageQueue()
    server = OscServer(q, port=0, host="127.0.0.1")
    server.start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for datagram in datagrams:
            sock.sendto(datagram, ("127.0.0.1", server.port))
        sock.close()
        deadline = time.time() + 2.0
        while len(q) == 0 and time.time() < deadline:
            time.sleep(0.01)
        return q.drain()
    finally:
        server.close()


def test_server_receives_datagrams():
    assert _send_and_receive([message_to_osc(MESSAGES[0])]) == [MESSAGES[0]]


def test_server_survives_hostile_datagram():
    assert _send_and_receive([_nested_bundles(), message_to_osc(MESSAGES[0])]) == [MESSAGES[0]]


def test_server_survives_decoder_failure(monkeypatch):
    decode = ams.osc_gateway.decode_packet
    calls = []

    def failing_once(data):
        calls.append(data)
        if len(calls) == 1:
            raise RuntimeError("decoder bug")
        return decode(data)

    monkeypatch.setattr(ams.osc_gateway, "decode_packet", failing_once)
    packet = message_to_osc(MESSAGES[0])
    assert _send_and_receive([packet, packet]) == [MESSAGES[0]]
