import zlib

import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.errors import VersionError, WireFormatError
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.wire import decode_packet, decode_packet_stream, encode_packet

from conftest import random_packet


def make_packet(seq=0):
    readings = [
        ReadingSeries(
            "dining/A0/light",
            SensorKind.LIGHT,
            60_000 + 1_000 * np.arange(5),
            150.25 + np.arange(5.0),
        ),
        ReadingSeries(
            "door/B0/motion",
            SensorKind.MOTION,
            60_000 + 500 + 1_000 * np.arange(3),
            np.arange(3) % 2.0,
        ),
    ]
    frames = [
        FrameBlock(
            "bedroom/C0/thermal",
            4,
            np.array([60_000, 60_250, 60_500], dtype=np.int64),
            np.arange(48, dtype=np.int16).reshape(3, 4, 4) + 2700,
        )
    ]
    return HubPacket("hub0", seq, 60_000, 120_000, readings, frames)


def test_round_trip_identity():
    packet = make_packet()
    assert decode_packet(encode_packet(packet)) == packet


def test_empty_packet_round_trip_minimal():
    packet = HubPacket("h", 3, 0, 60_000)
    blob = encode_packet(packet)
    assert decode_packet(blob) == packet
    assert len(blob) < 50


def test_version_byte_checked():
    blob = bytearray(encode_packet(make_packet()))
    blob[0] = 0x02
    with pytest.raises(VersionError):
        decode_packet(bytes(blob))


def test_truncation_reports_offset():
    blob = encode_packet(make_packet())
    with pytest.raises(WireFormatError) as err:
        decode_packet(blob[: len(blob) // 2])
    assert err.value.offset >= 0


def test_garbled_crc_detected():
    blob = bytearray(encode_packet(make_packet()))
    blob[20] ^= 0xFF
    with pytest.raises(WireFormatError):
        decode_packet(bytes(blob))


def test_trailing_bytes_rejected():
    blob = encode_packet(make_packet())
    with pytest.raises(WireFormatError):
        decode_packet(blob + b"x")


def test_stream_is_self_delimiting():
    packets = [make_packet(seq) for seq in range(4)]
    blob = b"".join(encode_packet(p) for p in packets)
    assert decode_packet_stream(blob) == packets


def test_randomized_round_trip_property():
    rng = np.random.default_rng(1234)
    for i in range(500):
        packet = random_packet(rng, seq=i)
        assert decode_packet(encode_packet(packet)) == packet


def test_timestamp_outside_window_rejected():
    with pytest.raises(ValueError):
        HubPacket(
            "h",
            0,
            60_000,
            120_000,
            [ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([10]), np.array([1.0]))],
        )
    with pytest.raises(ValueError):
        HubPacket("h", 0, 0, 61_000)  # not one minute


def test_series_of_unequal_columns_rejected():
    with pytest.raises(ValueError):
        ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([60_000, 60_500]), np.array([1.0]))
    # a series edited after construction is checked again by the packet
    series = ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([60_000]), np.array([1.0]))
    series.values = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        HubPacket("h", 0, 60_000, 120_000, [series])


def _reseal(blob: bytearray) -> bytes:
    """Recompute the crc of a hand-edited body so only the edit is wrong."""
    blob[-4:] = zlib.crc32(bytes(blob[5:-4])).to_bytes(4, "little")
    return bytes(blob)


def _first_group_offset(hub_id: str) -> int:
    # version + body length, hub id, sequence + window, reading group count
    return 5 + 2 + len(hub_id.encode()) + 24 + 2


def test_motion_value_byte_two_is_a_wire_format_error():
    motion = ReadingSeries(
        "a/B0/motion", SensorKind.MOTION, np.array([60_000, 61_000]), np.array([0.0, 1.0])
    )
    blob = bytearray(encode_packet(HubPacket("hub0", 0, 60_000, 120_000, [motion])))
    group = _first_group_offset("hub0")
    values = group + 2 + len("a/B0/motion") + 5 + 2 * 8
    assert blob[values : values + 2] == b"\x00\x01"
    blob[values + 1] = 2
    with pytest.raises(WireFormatError) as err:
        decode_packet(_reseal(blob))
    assert err.value.offset == group


@pytest.mark.parametrize("code", [4, 5])
def test_thermal_kind_in_reading_group_is_a_wire_format_error(code):
    light = ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([60_000]), np.array([1.0]))
    blob = bytearray(encode_packet(HubPacket("hub0", 0, 60_000, 120_000, [light])))
    group = _first_group_offset("hub0")
    kind_at = group + 2 + len("a/A0/light")
    assert blob[kind_at] == 1
    blob[kind_at] = code
    with pytest.raises(WireFormatError) as err:
        decode_packet(_reseal(blob))
    assert err.value.offset == group


def test_every_frame_timestamp_checked_against_window():
    ts = np.array([60_000, 60_250, 60_500], dtype=np.int64)
    pixels = np.zeros((3, 4, 4), dtype=np.int16)
    bad = FrameBlock("a/C0/thermal", 4, np.array([60_000, 500_000, 60_500]), pixels)
    with pytest.raises(ValueError):
        HubPacket("hub0", 0, 60_000, 120_000, frames=[bad])
    good = FrameBlock("a/C0/thermal", 4, ts, pixels)
    blob = bytearray(encode_packet(HubPacket("hub0", 0, 60_000, 120_000, frames=[good])))
    # no reading groups, then the frame group count, sensor id and group meta
    middle = _first_group_offset("hub0") + 2 + 2 + len("a/C0/thermal") + 5 + 8
    assert int.from_bytes(blob[middle : middle + 8], "little") == 60_250
    blob[middle : middle + 8] = (500_000).to_bytes(8, "little")
    with pytest.raises(WireFormatError) as err:
        decode_packet(_reseal(blob))
    assert err.value.offset == 5
