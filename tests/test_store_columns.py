"""The record store's columns against the store they replaced.

`OracleStore` is the earlier store: it keeps every appended chunk in append
order, and a read of a dirty sensor concatenates the sensor's chunks and
stably sorts them by timestamp.  The columnar store must answer every query
and write every snapshot byte exactly as it does, for any order of packets
and any interleaving of reads.
"""

import struct
import zlib

import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore
from hometwin.ingestion.wire import _GROUP_META, _str_bytes

from conftest import random_packet

_KINDS = list(SensorKind)
_U32 = struct.Struct("<I")
ALL_TIME = (0, 10**15)


class OracleStore:
    def __init__(self):
        self._seen: dict[str, set[int]] = {}
        self._readings: dict[str, tuple[SensorKind, list, list]] = {}
        self._frames: dict[str, tuple[int, list, list]] = {}
        self._dirty: set[str] = set()

    def append(self, packet: HubPacket) -> int:
        seqs = self._seen.setdefault(packet.hub_id, set())
        if packet.sequence_number in seqs:
            return 0
        seqs.add(packet.sequence_number)
        count = 0
        for series in packet.readings:
            _, ts_chunks, val_chunks = self._readings.setdefault(
                series.sensor_id, (series.kind, [], [])
            )
            ts_chunks.append(series.timestamps)
            val_chunks.append(series.values)
            self._dirty.add(series.sensor_id)
            count += len(series)
        for block in packet.frames:
            if not len(block):
                continue
            _, ts_chunks, px_chunks = self._frames.setdefault(
                block.sensor_id, (block.resolution, [], [])
            )
            ts_chunks.append(np.asarray(block.timestamps, dtype=np.int64))
            px_chunks.append(np.asarray(block.pixels_centi, dtype=np.int16))
            self._dirty.add(block.sensor_id)
            count += len(block)
        return count

    def _consolidate(self, sensor_id: str) -> None:
        if sensor_id not in self._dirty:
            return
        for columns in (self._readings, self._frames):
            if sensor_id in columns:
                meta, ts_chunks, data_chunks = columns[sensor_id]
                ts = np.concatenate(ts_chunks)
                data = np.concatenate(data_chunks)
                order = np.argsort(ts, kind="stable")
                columns[sensor_id] = (meta, [ts[order]], [data[order]])
        self._dirty.discard(sensor_id)

    def query_readings(self, sensor_id: str, t0: int, t1: int) -> ReadingSeries:
        self._consolidate(sensor_id)
        kind, (ts,), (vals,) = self._readings[sensor_id]
        lo, hi = np.searchsorted(ts, (t0, t1), side="left")
        return ReadingSeries(sensor_id, kind, ts[lo:hi], vals[lo:hi])

    def query_frames(self, sensor_id: str, t0: int, t1: int) -> FrameBlock:
        self._consolidate(sensor_id)
        res, (ts,), (px,) = self._frames[sensor_id]
        lo, hi = np.searchsorted(ts, (t0, t1), side="left")
        return FrameBlock(sensor_id, res, ts[lo:hi], px[lo:hi])

    def record_count(self) -> int:
        chunks = [c for _, c, _ in self._readings.values()] + [
            c for _, c, _ in self._frames.values()
        ]
        return sum(len(ts) for group in chunks for ts in group)

    def snapshot(self) -> bytes:
        body = bytearray()
        body += _U32.pack(len(self._seen))
        for hub_id in sorted(self._seen):
            seqs = sorted(self._seen[hub_id])
            body += _str_bytes(hub_id) + _U32.pack(len(seqs))
            body += np.array(seqs, dtype="<u8").tobytes()
        body += _U32.pack(len(self._readings))
        for sid in sorted(self._readings):
            self._consolidate(sid)
            kind, (ts,), (vals,) = self._readings[sid]
            body += _str_bytes(sid) + _GROUP_META.pack(_KINDS.index(kind), len(ts))
            body += ts.astype("<i8").tobytes()
            body += np.round(vals * 100.0).astype("<i4").tobytes()
        body += _U32.pack(len(self._frames))
        for sid in sorted(self._frames):
            self._consolidate(sid)
            res, (ts,), (px,) = self._frames[sid]
            body += _str_bytes(sid) + _GROUP_META.pack(res, len(ts))
            body += ts.astype("<i8").tobytes() + px.astype("<i2").tobytes()
        return b"HTSTORE1" + bytes([1]) + _U32.pack(zlib.crc32(body)) + bytes(body)


def assert_same_reads(store: RecordStore, oracle: OracleStore, rng, ranges: int = 3) -> None:
    """Whole-history and random-range queries of every sensor agree, dtypes
    included; ranges start and end on, or next to, stored timestamps."""
    assert store.sensor_ids() == sorted(set(oracle._readings) | set(oracle._frames))
    assert store.record_count() == oracle.record_count()
    for columns, query in ((oracle._readings, "query_readings"), (oracle._frames, "query_frames")):
        for sid in columns:
            everything = getattr(oracle, query)(sid, *ALL_TIME)
            bounds = [ALL_TIME]
            for _ in range(ranges):
                ends = rng.choice(everything.timestamps, 2) + rng.integers(-1, 2, size=2)
                bounds.append(tuple(sorted(int(t) for t in ends)))
            for t0, t1 in bounds:
                got, want = getattr(store, query)(sid, t0, t1), getattr(oracle, query)(sid, t0, t1)
                assert got == want
                assert [a.dtype for a in vars(got).values() if isinstance(a, np.ndarray)] == [
                    a.dtype for a in vars(want).values() if isinstance(a, np.ndarray)
                ]


def replay(packets: list[HubPacket], seed: int, tmp_path) -> None:
    """Append the packets to both stores with reads, snapshots and a reload
    at random points, comparing everything each time."""
    rng = np.random.default_rng(seed)
    store, oracle = RecordStore(), OracleStore()
    reload_at = int(rng.integers(0, len(packets)))
    for i, packet in enumerate(packets):
        assert store.append(packet) == oracle.append(packet)
        if rng.random() < 0.3:
            assert_same_reads(store, oracle, rng, ranges=1)
        if i == reload_at:
            path = tmp_path / "store.bin"
            store.save(path)
            assert path.read_bytes() == oracle.snapshot()
            store = RecordStore.load(path)
    assert_same_reads(store, oracle, rng)
    store.save(tmp_path / "final.bin")
    assert (tmp_path / "final.bin").read_bytes() == oracle.snapshot()


def tied_packet(rng, seq: int, minute: int, hub_id: str = "hub0") -> HubPacket:
    """A packet whose timestamps come from a few values per minute, so they
    tie within and across packets; its frame block may be unsorted or empty
    and its pixels carry the sequence number, so a wrong tie order shows."""
    start = minute * 60_000
    n = int(rng.integers(0, 6))
    frame_ts = start + 250 * rng.integers(0, 4, size=n).astype(np.int64)
    if rng.random() < 0.5:
        frame_ts = np.sort(frame_ts)
    pixels = np.full((n, 4, 4), seq, dtype=np.int16) + np.arange(n, dtype=np.int16)[:, None, None]
    frames = [FrameBlock("a/C0/thermal", 4, frame_ts, pixels)]
    k = int(rng.integers(1, 4))
    light_ts = start + 1000 * rng.integers(0, 3, size=k).astype(np.int64)
    readings = [ReadingSeries("a/A0/light", SensorKind.LIGHT, light_ts, seq + np.arange(k) / 100.0)]
    return HubPacket(hub_id, seq, start, start + 60_000, readings, frames)


@pytest.mark.parametrize("seed", range(6))
def test_random_packet_streams_match_oracle(seed, tmp_path):
    rng = np.random.default_rng(100 + seed)
    packets = [random_packet(rng, seq=i, hub_id=f"hub{i % 2}") for i in range(60)]
    packets += [packets[i] for i in rng.integers(0, 60, size=8)]  # retransmits
    replay(packets, seed, tmp_path)


@pytest.mark.parametrize("seed", range(6))
def test_in_order_stream_with_ties_matches_oracle(seed, tmp_path):
    # minutes never go back, yet later packets of a minute tie with earlier
    # ones, and some frame blocks are unsorted inside their packet
    rng = np.random.default_rng(200 + seed)
    minutes = np.cumsum(rng.integers(0, 2, size=80))
    packets = [tied_packet(rng, seq, int(m)) for seq, m in enumerate(minutes)]
    replay(packets, seed, tmp_path)


@pytest.mark.parametrize("seed", range(6))
def test_late_and_shuffled_packets_match_oracle(seed, tmp_path):
    rng = np.random.default_rng(300 + seed)
    minutes = np.cumsum(rng.integers(0, 2, size=80))
    packets = [tied_packet(rng, seq, int(m)) for seq, m in enumerate(minutes)]
    late = rng.choice(len(packets), size=10, replace=False)
    order = [i for i in range(len(packets)) if i not in late] + list(late)
    if seed % 2:
        order = list(rng.permutation(len(packets)))
    stream = [packets[i] for i in order]
    stream += [packets[i] for i in rng.integers(0, len(packets), size=5)]  # duplicates
    replay(stream, seed, tmp_path)


def minute_block(minute: int, n: int = 240, fill: int = 2800) -> HubPacket:
    start = minute * 60_000
    ts = start + np.arange(n, dtype=np.int64) * (60_000 // n)
    pixels = np.full((n, 4, 4), fill, dtype=np.int16)
    block = FrameBlock("a/C0/thermal", 4, ts, pixels)
    return HubPacket("hub0", minute, start, start + 60_000, [], [block])


def test_query_results_are_read_only():
    store = RecordStore()
    store.append(minute_block(0))
    store.append(tied_packet(np.random.default_rng(0), 1, 1))
    frames = store.query_frames("a/C0/thermal", *ALL_TIME)
    series = store.query_readings("a/A0/light", *ALL_TIME)
    for array in (frames.timestamps, frames.pixels_centi, series.timestamps, series.values):
        with pytest.raises(ValueError):
            array[0] = 0
    assert store.query_frames("a/C0/thermal", *ALL_TIME) == frames


def test_earlier_results_never_change():
    store = RecordStore()
    for minute in range(3):
        store.append(minute_block(minute, fill=minute))
    results, copies = [], []

    def read():
        block = store.query_frames("a/C0/thermal", *ALL_TIME)
        results.append(block)
        copies.append(block[np.arange(len(block))])  # a fancy index copies
        assert results == copies

    read()  # the first fold: exactly three minutes
    store.append(minute_block(3, fill=3))
    read()  # in order, outgrows the buffers
    store.append(minute_block(4, n=60, fill=4))
    read()  # in order, into spare capacity past the committed rows
    assert np.shares_memory(results[-2].pixels_centi, results[-1].pixels_centi)
    store.append(minute_block(9, fill=9))
    store.append(minute_block(6, fill=6))
    read()  # out of order: merged into fresh arrays
    assert len(results[-1]) == 6 * 240 + 60


def test_in_order_reads_do_not_sort_history(monkeypatch):
    store = RecordStore()
    store.append(minute_block(0))
    earlier = store.query_frames("a/C0/thermal", *ALL_TIME)

    def no_sort(*args, **kwargs):
        raise AssertionError("an in-order read sorted the history")

    monkeypatch.setattr(np, "argsort", no_sort)
    column = store._frames["a/C0/thermal"]
    shared = 0
    for minute in range(1, 20):
        buffer = column.data
        store.append(minute_block(minute, n=int(80 + 10 * minute), fill=minute))
        later = store.query_frames("a/C0/thermal", *ALL_TIME)
        assert later[: len(earlier)] == earlier
        if column.data is buffer:  # no growth: the committed rows are the same memory
            assert np.shares_memory(earlier.pixels_centi, later.pixels_centi)
            shared += 1
        earlier = later
    assert shared >= 9
