"""Binary wire format for hub packets (version 0x01).

Layout, all little-endian::

    u8  version (0x01)
    u32 body length in bytes
    body:
        u16 hub id length, utf-8 hub id
        u64 sequence number
        i64 window start (ms), i64 window end (ms)
        u16 reading group count, then per group:
            u16 sensor id length, utf-8 sensor id
            u8  sensor kind code
            u32 sample count n
            n x i64 timestamps
            n x u8 values        (motion)  -- or --  n x i32 centi-units
        u16 frame group count, then per group:
            u16 sensor id length, utf-8 sensor id
            u8  resolution (4 or 32)
            u32 frame count n
            n x i64 timestamps
            n * resolution^2 x i16 centi-degrees C
    u32 crc32 of body

Temperatures ride as int16 centi-degrees and scalar values as int32
centi-units, so decoding reproduces the original values exactly.  A reading
group is one `ReadingSeries` and a frame group one `FrameBlock`; each column
is written with one `tobytes` and read with one `frombuffer`.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..core import FrameBlock, ReadingSeries, SensorKind
from ..errors import VersionError, WireFormatError
from .packets import HubPacket

WIRE_VERSION = 0x01

_KIND_CODES = {
    SensorKind.TEMP_HUMIDITY: 0,
    SensorKind.LIGHT: 1,
    SensorKind.NOISE: 2,
    SensorKind.MOTION: 3,
    SensorKind.THERMAL4: 4,
    SensorKind.THERMAL32: 5,
}
# reading groups carry scalar kinds only; thermal samples travel as frame groups
_READING_KINDS = {code: k for k, code in _KIND_CODES.items() if not k.is_thermal}

_HEAD = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PACKET_META = struct.Struct("<QqqH")  # sequence, window, reading group count
_GROUP_META = struct.Struct("<BI")
_I32_MIN, _I32_MAX = float(np.iinfo(np.int32).min), float(np.iinfo(np.int32).max)


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _centi_values(series: ReadingSeries) -> np.ndarray:
    """Scalar values as int32 centi-units; NaN and values past int32 are refused."""
    centi = np.rint(series.values * 100.0)
    if not (centi.min() >= _I32_MIN and centi.max() <= _I32_MAX):
        raise ValueError(
            f"readings of {series.sensor_id} do not fit int32 centi-units on the wire"
        )
    return centi.astype("<i4")


def encode_packet(packet: HubPacket) -> bytes:
    parts = [
        _str_bytes(packet.hub_id),
        _PACKET_META.pack(
            packet.sequence_number, packet.window_start, packet.window_end, len(packet.readings)
        ),
    ]
    # one group per sensor: the packet keeps one series per sensor id
    for series in packet.readings:
        parts.append(_str_bytes(series.sensor_id))
        parts.append(_GROUP_META.pack(_KIND_CODES[series.kind], len(series)))
        parts.append(series.timestamps.astype("<i8", copy=False).tobytes())
        if series.kind is SensorKind.MOTION:
            parts.append(series.values.astype(np.uint8).tobytes())
        else:
            parts.append(_centi_values(series).tobytes())

    parts.append(_U16.pack(len(packet.frames)))
    for block in packet.frames:
        parts.append(_str_bytes(block.sensor_id))
        parts.append(_GROUP_META.pack(block.resolution, len(block)))
        parts.append(block.timestamps.astype("<i8", copy=False).tobytes())
        parts.append(block.pixels_centi.astype("<i2", copy=False).tobytes())

    body = b"".join(parts)
    return _HEAD.pack(WIRE_VERSION, len(body)) + body + _U32.pack(zlib.crc32(body))


def _need(pos: int, n: int, end: int) -> int:
    """The offset n bytes past pos; WireFormatError if the data ends first."""
    if pos + n > end:
        raise WireFormatError(f"truncated: wanted {n} bytes, have {end - pos}", pos)
    return pos + n


def _string(data: bytes, pos: int, end: int) -> tuple[str, int]:
    at = _need(pos, 2, end)
    (n,) = _U16.unpack_from(data, pos)
    stop = _need(at, n, end)
    try:
        return data[at:stop].decode("utf-8"), stop
    except UnicodeDecodeError as exc:
        raise WireFormatError(f"bad utf-8 string: {exc}", at)


def _decode_body(data: bytes, start: int, end: int) -> HubPacket:
    """Decode the body at data[start:end]: one frombuffer per column, each
    copied once by its conversion to the in-memory dtype."""
    hub_id, pos = _string(data, start, end)
    at, pos = pos, _need(pos, _PACKET_META.size, end)
    seq, w0, w1, n_groups = _PACKET_META.unpack_from(data, at)

    readings: list[ReadingSeries] = []
    for _ in range(n_groups):
        group_at = pos
        sensor_id, pos = _string(data, pos, end)
        ts_at = _need(pos, _GROUP_META.size, end)
        kind_code, n = _GROUP_META.unpack_from(data, pos)
        kind = _READING_KINDS.get(kind_code)
        if kind is None:
            raise WireFormatError(
                f"reading group of {sensor_id} has bad sensor kind code {kind_code}",
                group_at,
            )
        value_size = 1 if kind is SensorKind.MOTION else 4
        pos = _need(ts_at, n * (8 + value_size), end)
        ts = np.frombuffer(data, "<i8", n, ts_at).astype(np.int64)
        if kind is SensorKind.MOTION:
            raw = np.frombuffer(data, "u1", n, ts_at + 8 * n)
            if np.count_nonzero(raw > 1):
                raise WireFormatError(
                    f"motion value must be 0 or 1, got {int(raw.max())}", group_at
                )
            values = raw.astype(np.float64)
        else:
            values = np.frombuffer(data, "<i4", n, ts_at + 8 * n) / 100.0
        readings.append(ReadingSeries(sensor_id, kind, ts, values))

    at, pos = pos, _need(pos, 2, end)
    (n_groups,) = _U16.unpack_from(data, at)
    frames: list[FrameBlock] = []
    for _ in range(n_groups):
        sensor_id, pos = _string(data, pos, end)
        ts_at = _need(pos, _GROUP_META.size, end)
        resolution, n = _GROUP_META.unpack_from(data, pos)
        if resolution not in (4, 32):
            raise WireFormatError(f"bad thermal resolution {resolution}", pos)
        pos = _need(ts_at, n * (8 + 2 * resolution * resolution), end)
        ts = np.frombuffer(data, "<i8", n, ts_at).astype(np.int64)
        px = np.frombuffer(data, "<i2", n * resolution * resolution, ts_at + 8 * n)
        px = px.astype(np.int16).reshape(n, resolution, resolution)
        frames.append(FrameBlock(sensor_id, resolution, ts, px))

    if pos != end:
        raise WireFormatError(f"{end - pos} unconsumed bytes after packet body", pos)
    try:
        return HubPacket(hub_id, seq, w0, w1, readings, frames)
    except ValueError as exc:
        raise WireFormatError(f"invalid packet contents: {exc}", start)


def _decode_at(data: bytes, offset: int) -> tuple[HubPacket, int]:
    if len(data) - offset < _HEAD.size:
        raise WireFormatError("truncated packet header", offset)
    version, body_len = _HEAD.unpack_from(data, offset)
    if version != WIRE_VERSION:
        raise VersionError(
            f"unsupported wire version 0x{version:02x} at offset {offset}"
        )
    body_start = offset + _HEAD.size
    body_end = body_start + body_len
    if body_end + 4 > len(data):
        raise WireFormatError("truncated packet body", len(data))
    (crc,) = _U32.unpack_from(data, body_end)
    if crc != zlib.crc32(memoryview(data)[body_start:body_end]):
        raise WireFormatError("crc mismatch", body_end)
    return _decode_body(data, body_start, body_end), body_end + 4


def decode_packet(data: bytes) -> HubPacket:
    packet, end = _decode_at(data, 0)
    if end != len(data):
        raise WireFormatError(f"{len(data) - end} trailing bytes after packet", end)
    return packet


def decode_packet_stream(data: bytes) -> list[HubPacket]:
    """Decode a concatenation of packets; the format is self-delimiting."""
    packets = []
    offset = 0
    while offset < len(data):
        packet, offset = _decode_at(data, offset)
        packets.append(packet)
    return packets
