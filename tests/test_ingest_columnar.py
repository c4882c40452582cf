"""Differential tests: columnar ingestion against the former per-record path.

The oracle below is the per-record ingestion the package used before packets
carried `ReadingSeries`: one frozen record per sample with its own checks, the
packet's stable (sensor id, timestamp) sort, the redirector's per-minute
bucketing, the encoder that regrouped records per sensor, and the decoder that
built one record per sample.  The columnar path must give the same wire bytes,
the same decoded packets and the same rejections.
"""

from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from hometwin.core import MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind, floor_minute
from hometwin.errors import WireFormatError
from hometwin.ingestion.packets import HubPacket, Redirector
from hometwin.ingestion.store import RecordStore
from hometwin.ingestion.wire import decode_packet, encode_packet
from hometwin.simulate.engine import simulate
from hometwin.simulate.scripts import mixed_day, outing_day

from conftest import random_packet

# -- the per-record oracle -----------------------------------------------------

_KIND_CODES = {
    SensorKind.TEMP_HUMIDITY: 0,
    SensorKind.LIGHT: 1,
    SensorKind.NOISE: 2,
    SensorKind.MOTION: 3,
    SensorKind.THERMAL4: 4,
    SensorKind.THERMAL32: 5,
}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_HEAD = struct.Struct("<BI")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_PACKET_META = struct.Struct("<Qqq")
_GROUP_META = struct.Struct("<BI")


@dataclass(frozen=True, slots=True)
class Record:
    sensor_id: str
    timestamp: int
    kind: SensorKind
    value: float

    def __post_init__(self):
        if self.kind.is_thermal:
            raise ValueError("thermal samples are ThermalFrame, not SensorReading")
        if self.kind is SensorKind.MOTION and self.value not in (0.0, 1.0):
            raise ValueError(f"motion value must be 0 or 1, got {self.value}")


def records_of(readings: list[ReadingSeries]) -> list[Record]:
    return [
        Record(s.sensor_id, int(t), s.kind, float(v))
        for s in readings
        for t, v in zip(s.timestamps, s.values)
    ]


@dataclass
class OraclePacket:
    hub_id: str
    sequence_number: int
    window_start: int
    window_end: int
    records: list[Record]
    frames: list[FrameBlock]

    def __post_init__(self):
        if self.window_end - self.window_start != MS_PER_MINUTE:
            raise ValueError("packet window must span exactly one minute")
        self.records = sorted(self.records, key=lambda r: (r.sensor_id, r.timestamp))
        self.frames = sorted(self.frames, key=lambda b: b.sensor_id)
        for r in self.records:
            if not (self.window_start <= r.timestamp < self.window_end):
                raise ValueError(f"reading at {r.timestamp} outside window")


def _put_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    buf += _U16.pack(len(raw))
    buf += raw


def oracle_encode(packet: OraclePacket) -> bytes:
    body = bytearray()
    _put_str(body, packet.hub_id)
    body += _PACKET_META.pack(packet.sequence_number, packet.window_start, packet.window_end)
    groups: list[tuple[str, SensorKind, list[Record]]] = []
    for r in packet.records:
        if groups and groups[-1][0] == r.sensor_id:
            groups[-1][2].append(r)
        else:
            groups.append((r.sensor_id, r.kind, [r]))
    body += _U16.pack(len(groups))
    for sensor_id, kind, items in groups:
        _put_str(body, sensor_id)
        body += _GROUP_META.pack(_KIND_CODES[kind], len(items))
        body += np.array([r.timestamp for r in items], dtype="<i8").tobytes()
        if kind is SensorKind.MOTION:
            body += np.array([int(r.value) for r in items], dtype=np.uint8).tobytes()
        else:
            body += np.array([round(r.value * 100.0) for r in items], dtype="<i4").tobytes()
    body += _U16.pack(len(packet.frames))
    for block in packet.frames:
        _put_str(body, block.sensor_id)
        body += _GROUP_META.pack(block.resolution, len(block))
        body += block.timestamps.astype("<i8").tobytes()
        body += block.pixels_centi.astype("<i2").tobytes()
    return _HEAD.pack(0x01, len(body)) + bytes(body) + _U32.pack(zlib.crc32(body))


def oracle_decode(data: bytes) -> OraclePacket:
    """The former `_decode_body`, on one whole packet (CRC already trusted)."""
    body = data[_HEAD.size : -4]
    pos = 0

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(body):
            raise WireFormatError("truncated packet", _HEAD.size + pos)
        out = body[pos : pos + n]
        pos += n
        return out

    def string() -> str:
        (n,) = _U16.unpack(take(2))
        return take(n).decode("utf-8")

    def array(dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(take(np.dtype(dtype).itemsize * count), dtype=dtype).copy()

    hub_id = string()
    seq, w0, w1 = _PACKET_META.unpack(take(_PACKET_META.size))
    records = []
    for _ in range(_U16.unpack(take(2))[0]):
        sensor_id = string()
        kind_code, n = _GROUP_META.unpack(take(_GROUP_META.size))
        kind = _CODE_KINDS[kind_code]
        ts = array("<i8", n)
        if kind is SensorKind.MOTION:
            values = array("u1", n).astype(np.float64)
        else:
            values = array("<i4", n).astype(np.float64) / 100.0
        records.extend(Record(sensor_id, int(t), kind, float(v)) for t, v in zip(ts, values))
    frames = []
    for _ in range(_U16.unpack(take(2))[0]):
        sensor_id = string()
        res, n = _GROUP_META.unpack(take(_GROUP_META.size))
        ts = array("<i8", n)
        px = array("<i2", n * res * res)
        frames.append(FrameBlock(sensor_id, res, ts, px.reshape(n, res, res)))
    assert pos == len(body)
    return OraclePacket(hub_id, seq, w0, w1, records, frames)


class OracleRedirector:
    """The former per-record redirector: readings bucketed by minute one by one."""

    def __init__(self, hub_id: str, window_start: int):
        self.hub_id = hub_id
        self.window_start = window_start
        self.sequence_number = 0
        self.records: list[Record] = []
        self.frames: list[FrameBlock] = []

    def flush(self, boundary: int) -> list[OraclePacket]:
        buckets: dict[int, list[Record]] = {}
        remainder = []
        for r in self.records:
            if r.timestamp >= boundary:
                remainder.append(r)
            else:
                buckets.setdefault(r.timestamp // MS_PER_MINUTE, []).append(r)
        packets = []
        for start in range(self.window_start, boundary, MS_PER_MINUTE):
            end = start + MS_PER_MINUTE
            frames = [s for b in self.frames if len(s := b.slice(start, end))]
            packets.append(
                OraclePacket(
                    self.hub_id,
                    self.sequence_number,
                    start,
                    end,
                    buckets.get(start // MS_PER_MINUTE, []),
                    frames,
                )
            )
            self.sequence_number += 1
        self.records = remainder
        self.frames = [s for b in self.frames if len(s := b.slice(boundary, 2**62))]
        self.window_start = boundary
        return packets


# -- comparison helpers --------------------------------------------------------


def oracle_of(packet_args: tuple, readings: list[ReadingSeries], frames=()) -> OraclePacket:
    return OraclePacket(*packet_args, records_of(readings), list(frames))


def assert_same(packet: HubPacket, oracle: OraclePacket) -> None:
    """Same contents, same bytes, and both decoders agree on those bytes."""
    assert records_of(packet.readings) == oracle.records
    assert packet.frames == oracle.frames
    blob = encode_packet(packet)
    assert blob == oracle_encode(oracle)
    decoded = decode_packet(blob)
    assert decoded == packet
    back = oracle_decode(blob)
    assert records_of(decoded.readings) == back.records
    assert decoded.frames == back.frames
    assert (decoded.hub_id, decoded.sequence_number, decoded.window_start) == (
        back.hub_id,
        back.sequence_number,
        back.window_start,
    )
    # one series per sensor, by id, each sorted by timestamp
    ids = [s.sensor_id for s in packet.readings]
    assert ids == sorted(set(ids))
    for s in packet.readings:
        assert len(s) and np.all(np.diff(s.timestamps) >= 0)
        assert s.timestamps.dtype == np.int64 and s.values.dtype == np.float64


def series(sensor_id, kind, timestamps, values) -> ReadingSeries:
    return ReadingSeries(
        sensor_id, kind, np.asarray(timestamps, dtype=np.int64), np.asarray(values, dtype=np.float64)
    )


ARGS = ("hub0", 5, 60_000, 120_000)


# -- random packets ------------------------------------------------------------


def test_random_packets_match_oracle():
    rng = np.random.default_rng(31)
    for seq in range(2000):
        packet = random_packet(rng, seq=seq)
        args = (packet.hub_id, seq, packet.window_start, packet.window_end)
        assert_same(packet, oracle_of(args, packet.readings, packet.frames))


def test_random_packets_split_and_shuffled_match_oracle():
    """Each series cut in two and the pieces handed over in a random order."""
    rng = np.random.default_rng(32)
    for seq in range(300):
        base = random_packet(rng, seq=seq)
        pieces = []
        for s in base.readings:
            cut = int(rng.integers(0, len(s) + 1))
            pieces += [s[:cut], s[cut:]]
        pieces = [pieces[i] for i in rng.permutation(len(pieces))]
        args = (base.hub_id, seq, base.window_start, base.window_end)
        packet = HubPacket(*args, pieces, base.frames)
        assert_same(packet, oracle_of(args, pieces, base.frames))
        assert packet == base


# -- scenario packets through both redirectors ---------------------------------


def _redirect_both(bundle, hub_id="hub0"):
    window_start = floor_minute(bundle.start)
    oracle = OracleRedirector(hub_id, window_start)
    oracle.records = records_of(bundle.readings)
    oracle.frames = list(bundle.frames)
    want = oracle.flush(floor_minute(bundle.end - 1) + MS_PER_MINUTE)
    return bundle.to_packets(hub_id), want


def _mixed_day_window(lo_min: int, hi_min: int):
    """mixed_day between two minute offsets, clipped as the benchmark clips it."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        from hbench.inputs import window
    finally:
        sys.path.pop(0)
    layout, script = mixed_day()
    return layout, window(script, lo_min, hi_min)


@pytest.mark.parametrize("scenario", ["outing_day", "mixed_day_window"])
def test_scenario_packets_match_oracle(scenario):
    if scenario == "outing_day":
        layout, script = outing_day(3)
    else:
        layout, script = _mixed_day_window(100, 140)  # 19:40-20:20
    bundle = simulate(layout, script, 3)
    got, want = _redirect_both(bundle)
    assert len(got) == len(want) == script.duration_min
    for packet, oracle in zip(got, want):
        assert (packet.sequence_number, packet.window_start) == (
            oracle.sequence_number,
            oracle.window_start,
        )
        assert_same(packet, oracle)
    # the store holds the same records either way
    store = RecordStore()
    assert sum(store.append(decode_packet(encode_packet(p))) for p in got) == sum(
        len(o.records) + sum(len(b) for b in o.frames) for o in want
    )


def test_redirector_split_matches_oracle_on_unsorted_and_repeated_series():
    rng = np.random.default_rng(33)
    handed = [
        # out of order within the series, with repeated timestamps
        series("b/A0/light", SensorKind.LIGHT, [150_000, 30_000, 30_000, 119_999, 60_000],
               [5.0, 1.0, 2.0, 4.0, 3.0]),
        # a second series for the same sensor, sharing timestamps with the first
        series("b/A0/light", SensorKind.LIGHT, [30_000, 60_000, 90_000], [7.0, 8.0, 9.0]),
        series("a/B0/motion", SensorKind.MOTION, np.sort(rng.integers(0, 180_000, 50)),
               rng.integers(0, 2, 50)),
        series("c/A0/noise", SensorKind.NOISE, [], []),
    ]
    redirector = Redirector("hub0", 0)
    oracle = OracleRedirector("hub0", 0)
    for s in handed:
        redirector.add_series(s)
    oracle.records = records_of(handed)
    for boundary in (60_000, 120_000, 180_000):
        for packet, want in zip(redirector.flush(boundary), oracle.flush(boundary), strict=True):
            assert_same(packet, want)


# -- adversarial packets -------------------------------------------------------


def test_equal_timestamps_across_series_keep_stable_order():
    first = series("a/A0/light", SensorKind.LIGHT, [61_000, 62_000], [1.0, 2.0])
    second = series("a/A0/light", SensorKind.LIGHT, [61_000, 60_500], [3.0, 4.0])
    packet = HubPacket(*ARGS, [first, second])
    assert packet.readings[0].values.tolist() == [4.0, 1.0, 3.0, 2.0]
    assert_same(packet, oracle_of(ARGS, [first, second]))
    flipped = HubPacket(*ARGS, [second, first])
    assert flipped.readings[0].values.tolist() == [4.0, 3.0, 1.0, 2.0]
    assert_same(flipped, oracle_of(ARGS, [second, first]))


def test_series_handed_over_out_of_order():
    handed = [
        series("z/A0/noise", SensorKind.NOISE, [119_000, 60_000], [2.5, 1.5]),
        series("m/B0/motion", SensorKind.MOTION, [90_000, 70_000, 80_000], [1.0, 0.0, 1.0]),
        series("a/A0/temperature", SensorKind.TEMP_HUMIDITY, [100_000], [21.37]),
    ]
    packet = HubPacket(*ARGS, handed)
    assert [s.sensor_id for s in packet.readings] == [
        "a/A0/temperature",
        "m/B0/motion",
        "z/A0/noise",
    ]
    assert_same(packet, oracle_of(ARGS, handed))


def test_two_series_for_one_sensor_merge():
    handed = [
        series("a/A0/light", SensorKind.LIGHT, [70_000, 90_000], [1.0, 3.0]),
        series("b/A0/light", SensorKind.LIGHT, [65_000], [9.0]),
        series("a/A0/light", SensorKind.LIGHT, [80_000, 100_000], [2.0, 4.0]),
    ]
    packet = HubPacket(*ARGS, handed)
    assert len(packet.readings) == 2
    assert packet.readings[0].values.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert_same(packet, oracle_of(ARGS, handed))


def test_series_of_one_sensor_with_two_kinds_rejected():
    with pytest.raises(ValueError):
        HubPacket(
            *ARGS,
            [
                series("a/A0/light", SensorKind.LIGHT, [70_000], [1.0]),
                series("a/A0/light", SensorKind.NOISE, [80_000], [1.0]),
            ],
        )


def test_empty_series_and_empty_packet():
    empty = series("a/A0/light", SensorKind.LIGHT, [], [])
    packet = HubPacket(*ARGS, [empty])
    assert packet.readings == [] and packet.item_count == 0
    assert_same(packet, oracle_of(ARGS, [empty]))
    assert_same(HubPacket(*ARGS), oracle_of(ARGS, []))


CENTI_MAX = 21474836.47  # 2**31 - 1 centi-units
CENTI_MIN = -21474836.48  # -2**31 centi-units


@pytest.mark.parametrize("value", [CENTI_MAX, CENTI_MIN, 0.01, -0.01, -0.0])
def test_values_at_the_int32_limits_encode_alike(value):
    handed = [series("a/A0/light", SensorKind.LIGHT, [60_000, 61_000], [value, 1.0])]
    packet = HubPacket(*ARGS, handed)
    assert_same(packet, oracle_of(ARGS, handed))


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, 21474836.48, -21474836.49, 3e7, -3e7]
)
def test_values_past_the_int32_limits_rejected_by_both(value):
    handed = [series("a/A0/light", SensorKind.LIGHT, [60_000, 61_000], [1.0, value])]
    packet = HubPacket(*ARGS, handed)
    with pytest.raises((ValueError, OverflowError)):
        oracle_encode(oracle_of(ARGS, handed))
    with pytest.raises(ValueError):
        encode_packet(packet)


def test_record_checks_moved_to_the_packet():
    for kind, value in ((SensorKind.MOTION, 0.5), (SensorKind.MOTION, np.nan),
                        (SensorKind.THERMAL4, 1.0), (SensorKind.THERMAL32, 1.0)):
        handed = [series("a/A0/x", kind, [60_000], [value])]
        with pytest.raises(ValueError):
            records_of(handed)
        with pytest.raises(ValueError):
            HubPacket(*ARGS, handed)
