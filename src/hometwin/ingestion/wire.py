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
group is one `ReadingSeries` and a frame group one `FrameBlock`.  Encode
brings the scalar values of a whole packet to centi-units at once.

The encoder writes a `HubPacket` in canonical form (see its docstring): the
window is one minute and holds every sample; reading groups are non-empty,
in strictly increasing sensor id order, each sorted by timestamp, with
motion values 0 or 1; frame groups are in sensor id order.  Decode walks
the group headers once, reads the timestamps and values of the whole packet
with one `frombuffer` per column (and each block's pixels with one), and
proves that form with a few whole-packet checks; such a body becomes a
packet as read, with nothing canonicalized or checked again.  A body that is
well formed but not canonical (for example one edited by hand and its CRC
re-sealed) goes through the `HubPacket` constructor as before: it is
silently brought into canonical form, or refused with WireFormatError at
the body's offset when the constructor cannot.  A motion value above 1 is
refused at its group's offset.

The pixels are most of a packet's bytes, and each is copied once.
`decode_packet` copies each block's pixels out on their own, writable, so
that a store which copies one sensor's frames in frees them.
`decode_packet_stream` checks and reads every packet first, then writes
each thermal sensor's pixels for the whole stream into one read-only int16
array, of which its blocks are consecutive slices: a store's first read of
the sensor takes them as its column with no copy (see `store`).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..core import MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind
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
_MOTION = SensorKind.MOTION

_HEAD = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PACKET_META = struct.Struct("<QqqH")  # sequence, window, reading group count
_GROUP_META = struct.Struct("<BI")
_I32_MIN, _I32_MAX = float(np.iinfo(np.int32).min), float(np.iinfo(np.int32).max)


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def _centi_column(scalars: list[ReadingSeries]) -> bytes:
    """The values of the scalar series, one after another, as int32
    centi-units; NaN and values past int32 are refused."""
    values = scalars[0].values if len(scalars) == 1 else np.concatenate([s.values for s in scalars])
    centi = np.rint(values * 100.0)
    # NaN fails both tests; the initial 0 lets an empty column through
    if not (np.min(centi, initial=0) >= _I32_MIN and np.max(centi, initial=0) <= _I32_MAX):
        row = int(np.argmin((centi >= _I32_MIN) & (centi <= _I32_MAX)))
        for series in scalars:
            if row < len(series.values):
                raise ValueError(
                    f"readings of {series.sensor_id} do not fit int32 centi-units"
                )
            row -= len(series.values)
    return centi.astype("<i4").tobytes()


def encode_packet(packet: HubPacket) -> bytes:
    """The packet's wire bytes."""
    readings = packet.readings
    scalars = [s for s in readings if s.kind is not _MOTION]
    centi = _centi_column(scalars) if scalars else b""
    parts = [
        _str_bytes(packet.hub_id),
        _PACKET_META.pack(
            packet.sequence_number, packet.window_start, packet.window_end, len(readings)
        ),
    ]
    # one group per sensor: the packet keeps one series per sensor id
    at = 0
    for series in readings:
        n = len(series.timestamps)
        parts.append(_str_bytes(series.sensor_id))
        parts.append(_GROUP_META.pack(_KIND_CODES[series.kind], n))
        parts.append(series.timestamps.astype("<i8", copy=False).tobytes())
        if series.kind is _MOTION:
            parts.append(series.values.astype(np.uint8).tobytes())
        else:
            parts.append(centi[at : at + 4 * n])
            at += 4 * n

    parts.append(_U16.pack(len(packet.frames)))
    for block in packet.frames:
        parts.append(_str_bytes(block.sensor_id))
        parts.append(_GROUP_META.pack(block.resolution, len(block)))
        parts.append(block.timestamps.astype("<i8", copy=False).tobytes())
        parts.append(block.pixels_centi.astype("<i2", copy=False).tobytes())

    body = b"".join(parts)
    return b"".join((_HEAD.pack(WIRE_VERSION, len(body)), body, _U32.pack(zlib.crc32(body))))


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


def _check_motion(motion: list[tuple[int, memoryview]]) -> None:
    """WireFormatError at the first (group offset, value bytes) whose
    values are not all 0 or 1."""
    for group_at, raw in motion:
        values = np.frombuffer(raw, "u1")
        if np.count_nonzero(values > 1):
            raise WireFormatError(
                f"motion value must be 0 or 1, got {int(values.max())}", group_at
            )


def _column(parts: list, dtype: str) -> np.ndarray:
    """The byte slices joined into one fresh, writable array."""
    return np.frombuffer(bytearray().join(parts), dtype)


class _Walk:
    """What one pass over a body's group headers finds: (sensor id, kind,
    sample count) per reading group and (sensor id, resolution, frame count)
    per frame group; each column's byte slices; the rows before each reading
    group after the first (`seams`); and whether the headers are canonical.
    Malformed bytes raise WireFormatError in the order a reader meets them."""

    __slots__ = (
        "hub_id", "seq", "w0", "w1", "groups", "blocks", "ts_parts", "scalar_parts",
        "motion", "motion_bytes", "pixel_parts", "seams", "rows", "canonical",
    )  # fmt: skip

    def __init__(self, data: bytes, start: int, end: int):
        self.hub_id, pos = _string(data, start, end)
        at, pos = pos, _need(pos, _PACKET_META.size, end)
        self.seq, self.w0, self.w1, n_groups = _PACKET_META.unpack_from(data, at)
        self.groups: list[tuple[str, SensorKind, int]] = []
        self.blocks: list[tuple[str, int, int]] = []
        self.ts_parts: list[memoryview] = []
        self.scalar_parts: list[memoryview] = []
        self.motion: list[tuple[int, memoryview]] = []  # (group offset, values)
        self.pixel_parts: list[memoryview] = []
        self.seams: list[int] = []
        self.rows = 0
        self.canonical = self.w1 - self.w0 == MS_PER_MINUTE
        view = memoryview(data)
        try:
            pos = self._reading_groups(data, view, pos, end, n_groups)
            pos = self._frame_groups(data, view, pos, end)
        except WireFormatError:
            _check_motion(self.motion)  # a bad motion group comes first in the body
            raise
        self.motion_bytes = None  # every motion value, read and checked at once
        if self.motion:
            self.motion_bytes = _column([raw for _, raw in self.motion], "u1")
            if np.count_nonzero(self.motion_bytes > 1):
                _check_motion(self.motion)
        if pos != end:
            raise WireFormatError(f"{end - pos} unconsumed bytes after packet body", pos)

    def _reading_groups(self, data, view, pos: int, end: int, n_groups: int) -> int:
        last_id = None
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
            values_at = ts_at + 8 * n
            if kind is _MOTION:
                pos = _need(ts_at, 9 * n, end)
                self.motion.append((group_at, view[values_at:pos]))
            else:
                pos = _need(ts_at, 12 * n, end)
                self.scalar_parts.append(view[values_at:pos])
            self.ts_parts.append(view[ts_at:values_at])
            self.groups.append((sensor_id, kind, n))
            if not n or (last_id is not None and last_id >= sensor_id):
                self.canonical = False
            last_id = sensor_id
            if self.rows:
                self.seams.append(self.rows - 1)
            self.rows += n
        return pos

    def _frame_groups(self, data, view, pos: int, end: int) -> int:
        at, pos = pos, _need(pos, 2, end)
        (n_groups,) = _U16.unpack_from(data, at)
        last_id = None
        for _ in range(n_groups):
            sensor_id, pos = _string(data, pos, end)
            ts_at = _need(pos, _GROUP_META.size, end)
            resolution, n = _GROUP_META.unpack_from(data, pos)
            if resolution not in (4, 32):
                raise WireFormatError(f"bad thermal resolution {resolution}", pos)
            pixels_at = ts_at + 8 * n
            pos = _need(ts_at, n * (8 + 2 * resolution * resolution), end)
            self.ts_parts.append(view[ts_at:pixels_at])
            self.pixel_parts.append(view[pixels_at:pos])
            self.blocks.append((sensor_id, resolution, n))
            if last_id is not None and last_id > sensor_id:
                self.canonical = False
            last_id = sensor_id
        return pos


def _read_columns(walk: _Walk) -> tuple[tuple, bool]:
    """The packet's (timestamps, scalar values, motion values), each read
    with one frombuffer, and whether the body is in canonical form: each
    reading group sorted apart from the seams between groups, and every
    sample inside the window."""
    timestamps = _column(walk.ts_parts, "<i8")
    canonical, rows = walk.canonical, walk.rows
    if canonical and rows > 1:
        backwards = timestamps[1:rows] < timestamps[: rows - 1]
        steps = np.count_nonzero(backwards)
        canonical = not steps or steps == np.count_nonzero(backwards[walk.seams])
    if canonical and len(timestamps):
        first, last = np.minimum.reduce(timestamps), np.maximum.reduce(timestamps)
        canonical = walk.w0 <= first and last < walk.w1
    # a packet often lacks the scalar values; they are not read then
    scalars = _column(walk.scalar_parts, "<i4") / 100.0 if walk.scalar_parts else None
    motion = None if walk.motion_bytes is None else walk.motion_bytes.astype(np.float64)
    return (timestamps, scalars, motion), canonical


def _build(walk: _Walk, columns: tuple, pixels: list[np.ndarray]) -> tuple:
    """The packet's fields.  Each series is a view of the columns; each
    block's pixels are the matching entry of `pixels`."""
    timestamps, scalars, motion = columns
    readings = []
    row = scalar_row = motion_row = 0
    for sensor_id, kind, n in walk.groups:
        if kind is _MOTION:
            values, motion_row = motion[motion_row : motion_row + n], motion_row + n
        else:
            values, scalar_row = scalars[scalar_row : scalar_row + n], scalar_row + n
        readings.append(ReadingSeries(sensor_id, kind, timestamps[row : row + n], values))
        row += n
    frames = []
    for (sensor_id, resolution, n), px in zip(walk.blocks, pixels):
        frames.append(FrameBlock(sensor_id, resolution, timestamps[row : row + n], px))
        row += n
    return walk.hub_id, walk.seq, walk.w0, walk.w1, readings, frames


def _own_pixels(walk: _Walk) -> list[np.ndarray]:
    """Each block's pixels copied out on their own, writable."""
    return [
        np.frombuffer(raw, "<i2").reshape(n, resolution, resolution).copy()
        for (_, resolution, n), raw in zip(walk.blocks, walk.pixel_parts)
    ]


def _read_at(data: bytes, offset: int) -> tuple[_Walk, tuple, bool, int, int]:
    """Check the packet at `offset` and read its body: one walk over the
    group headers, one frombuffer per column for the whole packet, and a
    fixed number of array checks that prove canonical form.  Returns the
    walk, the columns, whether the body is canonical, and the offsets of
    the body and of the next packet."""
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
    walk = _Walk(data, body_start, body_end)
    columns, canonical = _read_columns(walk)
    return walk, columns, canonical, body_start, body_end + 4


def _packet(walk: _Walk, columns: tuple, canonical: bool, pixels: list, start: int) -> HubPacket:
    """A canonical body's packet as read; any other goes through the
    `HubPacket` constructor, which canonicalizes it or refuses it at the
    body's offset."""
    fields = _build(walk, columns, pixels)
    if canonical:
        return HubPacket.trusted(*fields)
    try:
        return HubPacket(*fields)
    except ValueError as exc:
        raise WireFormatError(f"invalid packet contents: {exc}", start)


def decode_packet(data: bytes) -> HubPacket:
    walk, columns, canonical, start, end = _read_at(data, 0)
    packet = _packet(walk, columns, canonical, _own_pixels(walk), start)
    if end != len(data):
        raise WireFormatError(f"{len(data) - end} trailing bytes after packet", end)
    return packet


def _lay_out(walks: list[_Walk]) -> list[list[np.ndarray]]:
    """Each block's pixels as a slice of one read-only int16 stack per
    (sensor id, resolution), the stack's blocks back to back in stream
    order."""
    rows: dict[tuple[str, int], int] = {}
    spans = []  # per walk, per block: (stack key, first row, end row)
    for walk in walks:
        spans.append([])
        for sensor_id, resolution, n in walk.blocks:
            key = sensor_id, resolution
            lo = rows.get(key, 0)
            rows[key] = lo + n
            spans[-1].append((key, lo, lo + n))
    stacks = {key: np.empty((n, key[1], key[1]), "<i2") for key, n in rows.items()}
    for walk, blocks in zip(walks, spans):
        for (key, lo, hi), raw in zip(blocks, walk.pixel_parts):
            stacks[key][lo:hi] = np.frombuffer(raw, "<i2").reshape(hi - lo, key[1], key[1])
    for stack in stacks.values():
        stack.flags.writeable = False
    return [[stacks[key][lo:hi] for key, lo, hi in blocks] for blocks in spans]


def decode_packet_stream(data: bytes) -> list[HubPacket]:
    """Decode a concatenation of packets; the format is self-delimiting.

    The first pass checks and reads every packet in stream order, so a
    malformed stream raises where the packet-by-packet decoder would; a
    non-canonical body becomes its packet at once, with pixels of its own.
    The second pass lays out the pixels of every canonical block (see
    `_lay_out`) and cannot fail."""
    packets: list = []  # a packet, or the (walk, columns) of a canonical body
    offset = 0
    while offset < len(data):
        walk, columns, canonical, start, offset = _read_at(data, offset)
        if canonical:
            packets.append((walk, columns))
        else:
            packets.append(_packet(walk, columns, False, _own_pixels(walk), start))
    pixels = iter(_lay_out([item[0] for item in packets if isinstance(item, tuple)]))
    return [
        HubPacket.trusted(*_build(*item, next(pixels))) if isinstance(item, tuple) else item
        for item in packets
    ]
