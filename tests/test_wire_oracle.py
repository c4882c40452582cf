"""Differential tests: the one-pass packet decoder and the one-buffer
encoder against the former ones.

The oracle below is the decoder the package used before decode proved
canonical form for the whole packet: `_decode_body` read each group into its
own arrays, and the `HubPacket` constructor then merged, sorted and checked
the readings group by group (`_canonical_readings`), sorted the frame blocks
and checked every sample against the window.  Both are kept here as they
were, with the former encoder, which joined one bytes object per column.
For every input, both decoders must give equal packets, or raise the same
error type at the same offset, and both encoders the same bytes.  Inputs
include bodies edited by hand and re-sealed with a fresh CRC, which are
well formed but not in canonical form, and bodies cut at every offset.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from hometwin.core import MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind
from hometwin.errors import HometwinError, VersionError, WireFormatError
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.wire import decode_packet, decode_packet_stream, encode_packet
from hometwin.simulate.scripts import mixed_day, outing_day

from conftest import random_packet

# -- the former decoder ----------------------------------------------------------

_HEAD = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PACKET_META = struct.Struct("<QqqH")
_GROUP_META = struct.Struct("<BI")
_KIND_CODES = {
    SensorKind.TEMP_HUMIDITY: 0,
    SensorKind.LIGHT: 1,
    SensorKind.NOISE: 2,
    SensorKind.MOTION: 3,
    SensorKind.THERMAL4: 4,
    SensorKind.THERMAL32: 5,
}
_READING_KINDS = {code: k for k, code in _KIND_CODES.items() if not k.is_thermal}


def oracle_canonical_readings(readings: list[ReadingSeries]) -> list[ReadingSeries]:
    parts: dict[str, list[ReadingSeries]] = {}
    for series in readings:
        if len(series):
            parts.setdefault(series.sensor_id, []).append(series)
    out = []
    for sensor_id in sorted(parts):
        group = parts[sensor_id]
        kind = group[0].kind
        if kind.is_thermal:
            raise ValueError("thermal samples are FrameBlock, not ReadingSeries")
        if len(group) == 1:
            ts, values = group[0].timestamps, group[0].values
        elif any(s.kind is not kind for s in group):
            raise ValueError(f"readings for {sensor_id} mix sensor kinds")
        else:
            ts = np.concatenate([s.timestamps for s in group])
            values = np.concatenate([s.values for s in group])
        ts = np.asarray(ts, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if len(ts) > 1 and np.count_nonzero(ts[1:] < ts[:-1]):
            order = np.argsort(ts, kind="stable")
            ts, values = ts[order], values[order]
        if kind is SensorKind.MOTION:
            bad = (values != 0.0) & (values != 1.0)
            if np.count_nonzero(bad):
                raise ValueError(f"motion value must be 0 or 1, got {values[bad][0]}")
        out.append(ReadingSeries(sensor_id, kind, ts, values))
    return out


def oracle_packet(hub_id, seq, w0, w1, readings, frames) -> HubPacket:
    """The former `HubPacket.__post_init__`."""
    if w1 - w0 != MS_PER_MINUTE:
        raise ValueError(f"packet window must span exactly one minute, got [{w0}, {w1})")
    readings = oracle_canonical_readings(readings)
    frames = sorted(frames, key=lambda b: b.sensor_id)
    bounds = [(s.sensor_id, s.timestamps[0], s.timestamps[-1]) for s in readings]
    bounds += [(b.sensor_id, b.timestamps.min(), b.timestamps.max()) for b in frames if len(b)]
    for sensor_id, first, last in bounds:
        if not (w0 <= first and last < w1):
            raise ValueError(f"samples of {sensor_id} outside window [{w0}, {w1})")
    return HubPacket.trusted(hub_id, seq, w0, w1, readings, frames)


def _need(pos: int, n: int, end: int) -> int:
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


def oracle_decode_body(data: bytes, start: int, end: int) -> HubPacket:
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
        return oracle_packet(hub_id, seq, w0, w1, readings, frames)
    except ValueError as exc:
        raise WireFormatError(f"invalid packet contents: {exc}", start)


def oracle_decode(data: bytes) -> HubPacket:
    """`decode_packet` with the former body decoder; the header and CRC
    checks are unchanged."""
    if len(data) < _HEAD.size:
        raise WireFormatError("truncated packet header", 0)
    version, body_len = _HEAD.unpack_from(data, 0)
    if version != 0x01:
        raise VersionError(f"unsupported wire version 0x{version:02x} at offset 0")
    body_end = _HEAD.size + body_len
    if body_end + 4 > len(data):
        raise WireFormatError("truncated packet body", len(data))
    (crc,) = _U32.unpack_from(data, body_end)
    if crc != zlib.crc32(data[_HEAD.size : body_end]):
        raise WireFormatError("crc mismatch", body_end)
    packet = oracle_decode_body(data, _HEAD.size, body_end)
    if body_end + 4 != len(data):
        trailing = len(data) - body_end - 4
        raise WireFormatError(f"{trailing} trailing bytes after packet", body_end + 4)
    return packet


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def oracle_encode(packet: HubPacket) -> bytes:
    parts = [
        _str_bytes(packet.hub_id),
        _PACKET_META.pack(
            packet.sequence_number, packet.window_start, packet.window_end, len(packet.readings)
        ),
    ]
    for series in packet.readings:
        parts.append(_str_bytes(series.sensor_id))
        parts.append(_GROUP_META.pack(_KIND_CODES[series.kind], len(series)))
        parts.append(series.timestamps.astype("<i8", copy=False).tobytes())
        if series.kind is SensorKind.MOTION:
            parts.append(series.values.astype(np.uint8).tobytes())
        else:
            centi = np.rint(series.values * 100.0)
            if not (centi.min() >= -(2.0**31) and centi.max() <= 2.0**31 - 1):
                raise ValueError(f"readings of {series.sensor_id} do not fit int32 centi-units")
            parts.append(centi.astype("<i4").tobytes())
    parts.append(_U16.pack(len(packet.frames)))
    for block in packet.frames:
        parts.append(_str_bytes(block.sensor_id))
        parts.append(_GROUP_META.pack(block.resolution, len(block)))
        parts.append(block.timestamps.astype("<i8", copy=False).tobytes())
        parts.append(block.pixels_centi.astype("<i2", copy=False).tobytes())
    body = b"".join(parts)
    return _HEAD.pack(0x01, len(body)) + body + _U32.pack(zlib.crc32(body))


# -- comparison ----------------------------------------------------------------


def _outcome(decode, blob: bytes):
    try:
        return decode(blob)
    except HometwinError as exc:
        return type(exc), getattr(exc, "offset", None)


def assert_same_outcome(blob: bytes) -> HubPacket | tuple:
    """Both decoders give equal packets, or the same error at the same offset."""
    want = _outcome(oracle_decode, blob)
    got = _outcome(decode_packet, blob)
    if not isinstance(want, HubPacket):
        assert got == want
        return want
    assert isinstance(got, HubPacket), got
    assert got == want
    assert got.item_count == want.item_count
    for s in got.readings:
        assert s.timestamps.dtype == np.int64 and s.values.dtype == np.float64
        assert s.timestamps.shape == s.values.shape == (len(s),)
    for b in got.frames:
        assert b.timestamps.dtype == np.int64 and b.pixels_centi.dtype == np.int16
        assert b.pixels_centi.shape == (len(b), b.resolution, b.resolution)
    return got


def assert_refused_at(blob: bytes, offset: int) -> None:
    outcome = assert_same_outcome(blob)
    assert outcome == (WireFormatError, offset)


# -- hand-written bodies ---------------------------------------------------------


def body_of(hub_id, seq, w0, w1, readings=(), frames=()) -> bytes:
    """A packet body written group by group exactly as given, with no
    canonical ordering: readings are (sensor id, kind code, timestamps, value
    column as it goes on the wire), frames (sensor id, resolution,
    timestamps, int16 pixels)."""
    raw_hub = hub_id.encode("utf-8")
    body = _U16.pack(len(raw_hub)) + raw_hub + _PACKET_META.pack(seq, w0, w1, len(readings))
    for sensor_id, code, ts, values in readings:
        raw = sensor_id.encode("utf-8")
        body += _U16.pack(len(raw)) + raw + _GROUP_META.pack(code, len(ts))
        body += np.asarray(ts, dtype="<i8").tobytes() + values.tobytes()
    body += _U16.pack(len(frames))
    for sensor_id, resolution, ts, px in frames:
        raw = sensor_id.encode("utf-8")
        body += _U16.pack(len(raw)) + raw + _GROUP_META.pack(resolution, len(ts))
        body += np.asarray(ts, dtype="<i8").tobytes() + np.asarray(px, dtype="<i2").tobytes()
    return body


def sealed(body: bytes) -> bytes:
    """The body framed as a packet with a fresh CRC."""
    return _HEAD.pack(0x01, len(body)) + body + _U32.pack(zlib.crc32(body))


W0 = 60 * MS_PER_MINUTE
W1 = W0 + MS_PER_MINUTE
BODY_AT = _HEAD.size


def light(sensor_id, ts, centi=None):
    centi = np.arange(len(ts)) * 7 + 100 if centi is None else centi
    return (sensor_id, 1, np.asarray(ts), np.asarray(centi, dtype="<i4"))


def motion(sensor_id, ts, values=None):
    values = np.arange(len(ts)) % 2 if values is None else values
    return (sensor_id, 3, np.asarray(ts), np.asarray(values, dtype="u1"))


def thermal(sensor_id, ts, resolution=4, level=2800):
    ts = np.asarray(ts)
    px = level + np.arange(len(ts) * resolution * resolution).reshape(-1, resolution, resolution)
    return (sensor_id, resolution, ts, px)


def packet_blob(readings=(), frames=(), w0=W0, w1=W1) -> bytes:
    return sealed(body_of("hub7", 42, w0, w1, readings, frames))


def _group_offset(readings, index: int) -> int:
    """Offset of reading group `index` in a packet_blob."""
    return len(packet_blob(readings[:index])) - 4 - 2


CANONICAL = {
    "plain": (
        [light("a/A0/light", [W0, W0 + 10]), motion("b/B0/motion", [W0 + 5, W0 + 6])],
        [thermal("c/C0/thermal", [W0, W0 + 250])],
    ),
    "backward step at every seam": (
        [light("a/A0/light", [W1 - 3, W1 - 2, W1 - 1]), light("b/A0/light", [W0, W0 + 1]),
         motion("c/B0/motion", [W0])],
        [],
    ),
    "equal timestamps across groups": (
        [light("a/A0/light", [W0 + 5, W0 + 5]), light("b/A0/light", [W0 + 5])],
        [thermal("c/C0/thermal", [W0 + 5]), thermal("c/C0/thermal", [W0 + 5])],
    ),
    "samples on both window edges": (
        [light("a/A0/light", [W0, W1 - 1])],
        [thermal("c/C0/thermal", [W1 - 1, W0])],
    ),
    "frame groups unsorted inside and empty": (
        [],
        [thermal("c/C0/thermal", [W0 + 900, W0 + 100]), thermal("d/C0/thermal", []),
         thermal("e/D0/thermal", [W0 + 7], resolution=32)],
    ),
    "zero groups": ([], []),
}

NON_CANONICAL = {
    "reading groups out of id order": (
        [light("b/A0/light", [W0 + 1]), light("a/A0/light", [W0 + 2])], []),
    "one sensor twice, same kind": (
        [light("a/A0/light", [W0 + 20, W0 + 40]), light("a/A0/light", [W0 + 10, W0 + 40])], []),
    "one sensor twice, equal timestamps": (
        [motion("a/B0/motion", [W0 + 9], [1]), motion("a/B0/motion", [W0 + 9], [0])], []),
    "empty reading group": (
        [light("a/A0/light", []), light("b/A0/light", [W0 + 3])], []),
    "only an empty reading group": ([light("a/A0/light", [])], []),
    "unsorted timestamps in a group": (
        [light("a/A0/light", [W0 + 30, W0 + 10, W0 + 20]), motion("b/B0/motion", [W0])], []),
    "unsorted in the first group only, sorted across the seam": (
        [light("a/A0/light", [W0 + 2, W0 + 1]), light("b/A0/light", [W0 + 3])], []),
    "frame groups out of order": (
        [], [thermal("d/C0/thermal", [W0 + 1]), thermal("c/C0/thermal", [W0 + 2], level=3000),
             thermal("d/C0/thermal", [W0 + 3], level=3100)]),
}

REFUSED_AT_START = {
    "one sensor twice, mixed kinds": (
        [light("a/A0/light", [W0 + 1]), ("a/A0/light", 2, np.array([W0 + 2]),
                                         np.array([5], dtype="<i4"))], []),
    "reading past the window end": ([light("a/A0/light", [W0, W1])], []),
    "reading before the window start": ([light("a/A0/light", [W0 - 1, W0])], []),
    "frame past the window end": ([], [thermal("c/C0/thermal", [W0, W1])]),
    "frame before the window start": ([], [thermal("c/C0/thermal", [W0 + 4, W0 - 1])]),
    "late reading in a group out of id order": (
        [light("b/A0/light", [W0]), light("a/A0/light", [W1 + 5])], []),
}


def _refuse_constructor(monkeypatch) -> None:
    """Decode must build a canonical body's packet without the checking
    constructor: from here on, any `HubPacket(...)` call fails the test."""

    def refuse(self):
        raise AssertionError("a canonical body went through the HubPacket constructor")

    monkeypatch.setattr(HubPacket, "__post_init__", refuse)


@pytest.fixture
def built_as_read(monkeypatch):
    _refuse_constructor(monkeypatch)


@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_bodies_decode_as_read(name, built_as_read):
    readings, frames = CANONICAL[name]
    packet = assert_same_outcome(packet_blob(readings, frames))
    assert isinstance(packet, HubPacket)
    assert [s.sensor_id for s in packet.readings] == [r[0] for r in readings]
    assert encode_packet(packet) == packet_blob(readings, frames)


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_non_canonical_bodies_are_canonicalized_as_before(name):
    readings, frames = NON_CANONICAL[name]
    blob = packet_blob(readings, frames)
    packet = assert_same_outcome(blob)
    assert isinstance(packet, HubPacket)
    assert encode_packet(packet) != blob  # the decoded packet is in canonical form
    assert decode_packet(encode_packet(packet)) == packet


@pytest.mark.parametrize("name", sorted(REFUSED_AT_START))
def test_bodies_the_packet_refuses_are_refused_at_the_body_start(name):
    readings, frames = REFUSED_AT_START[name]
    assert_refused_at(packet_blob(readings, frames), BODY_AT)


@pytest.mark.parametrize("w1", [W1 - 1, W1 + 1, W0, W0 - MS_PER_MINUTE])
def test_window_that_is_not_one_minute_is_refused(w1):
    readings = [light("a/A0/light", [W0])]
    assert_refused_at(packet_blob(readings, w1=w1), BODY_AT)
    assert_refused_at(packet_blob(w1=w1), BODY_AT)


@pytest.mark.parametrize("bad_group", [0, 1, 2])
def test_motion_value_two_is_refused_at_its_group(bad_group):
    readings = [motion("a/B0/motion", [W0, W0 + 1]), light("b/A0/light", [W0]),
                motion("c/B0/motion", [W0 + 2, W0 + 3])]
    readings[bad_group] = (
        motion(readings[bad_group][0], readings[bad_group][2], [0, 2])
        if readings[bad_group][1] == 3
        else ("b/A0/light", 3, np.array([W0]), np.array([2], dtype="u1"))
    )
    assert_refused_at(packet_blob(readings), _group_offset(readings, bad_group))


def test_motion_error_comes_before_later_faults():
    """A bad motion group is reported before anything that follows it: a
    bad kind code, a bad resolution, a truncated group or trailing bytes."""
    bad = motion("a/B0/motion", [W0, W0 + 1], [2, 0])
    at = _group_offset([bad], 0)
    later = [
        (bad, ("b/A0/light", 9, np.array([W0]), np.array([1], dtype="<i4"))),
        (bad, ("b/A0/light", 4, np.array([W0]), np.array([1], dtype="<i4"))),
    ]
    for readings in later:
        assert_refused_at(packet_blob(list(readings)), at)
    body = body_of("hub7", 42, W0, W1, [bad], [thermal("c/C0/thermal", [W0])])
    assert_refused_at(sealed(body + b"\x00"), at)  # unconsumed bytes
    assert_refused_at(sealed(body[:-3]), at)  # a truncated frame group
    wrong_resolution = body_of("hub7", 42, W0, W1, [bad], [thermal("c/C0/thermal", [W0], 5)])
    assert_refused_at(sealed(wrong_resolution), at)
    # and a good motion group before a fault leaves the fault's own offset
    good = motion("a/B0/motion", [W0, W0 + 1])
    outcome = assert_same_outcome(packet_blob([good, later[0][1]]))
    assert outcome == (WireFormatError, _group_offset([good, later[0][1]], 1))


def test_body_cut_at_every_offset():
    readings = [light("a/A0/light", [W0, W0 + 1]), motion("b/B0/motion", [W0 + 2])]
    body = body_of("hub7", 42, W0, W1, readings, [thermal("c/C0/thermal", [W0, W0 + 3])])
    blob = sealed(body)
    assert isinstance(assert_same_outcome(blob), HubPacket)
    for cut in range(len(body)):
        assert_same_outcome(sealed(body[:cut]))  # re-sealed: the body parser sees the cut
    for cut in range(len(blob)):
        assert_same_outcome(blob[:cut])  # not re-sealed: the frame checks see it


def test_random_body_edits_resealed():
    """Random byte edits of hand-written and random packets' bodies, each
    re-sealed, so that only the edit is wrong."""
    rng = np.random.default_rng(77)
    blobs = [packet_blob(*case) for case in CANONICAL.values()]
    blobs += [encode_packet(random_packet(rng, seq=i)) for i in range(20)]
    for _ in range(1500):
        body = bytearray(blobs[int(rng.integers(len(blobs)))][BODY_AT:-4])
        for _ in range(int(rng.integers(1, 4))):
            at = int(rng.integers(len(body)))
            body[at] = int(rng.integers(256)) if rng.random() < 0.7 else body[at] ^ 1
        assert_same_outcome(sealed(bytes(body)))


# -- packets the package makes -------------------------------------------------


def test_random_packets_decode_alike(monkeypatch):
    rng = np.random.default_rng(2024)
    packets = [random_packet(rng, seq=i) for i in range(600)]
    _refuse_constructor(monkeypatch)
    for packet in packets:
        blob = encode_packet(packet)
        assert blob == oracle_encode(packet)
        assert assert_same_outcome(blob) == packet


def _workload_packets(script_of, lo_min: int, hi_min: int) -> list[bytes]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from hbench import inputs
    finally:
        sys.path.pop(0)
    layout, script = script_of()
    packets, _, _ = inputs.home_wire(layout, inputs.window(script, lo_min, hi_min), 3)
    return packets


@pytest.mark.parametrize(
    "script_of, window",
    [(lambda: outing_day(3000), (0, 36)), (mixed_day, (100, 140))],
    ids=["fleet", "day"],
)
def test_workload_packets_decode_alike(script_of, window, monkeypatch):
    packets = _workload_packets(script_of, *window)
    _refuse_constructor(monkeypatch)
    for blob in packets:
        assert encode_packet(assert_same_outcome(blob)) == blob
    assert decode_packet_stream(b"".join(packets)) == [oracle_decode(b) for b in packets]


@pytest.mark.parametrize("edit", ["nan", "above int32", "below int32"])
def test_values_off_the_wire_grid_are_refused_by_both_encoders(edit):
    value = {"nan": np.nan, "above int32": 2.0**31 / 100.0, "below int32": -(2.0**31 + 1) / 100.0}
    good = ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([W0]), np.array([1.0]))
    bad = ReadingSeries("b/A0/light", SensorKind.LIGHT, np.array([W0, W0 + 1]),
                        np.array([2.0, value[edit]]))
    packet = HubPacket("hub7", 1, W0, W1, [good, bad])
    for encode in (encode_packet, oracle_encode):
        with pytest.raises(ValueError, match="b/A0/light"):
            encode(packet)
    lowest = np.array([-(2.0**31) / 100.0])  # the int32 minimum is on the grid
    edge = ReadingSeries("b/A0/light", SensorKind.LIGHT, np.array([W0]), lowest)
    packet = HubPacket("hub7", 1, W0, W1, [good, edge])
    assert encode_packet(packet) == oracle_encode(packet)
