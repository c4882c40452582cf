"""The record store's columns against the store they replaced.

`OracleStore` is the earlier store: it keeps every appended chunk in append
order, and a read of a dirty sensor concatenates the sensor's chunks and
stably sorts them by timestamp.  The columnar store must answer every query
and write every snapshot byte exactly as it does, for any order of packets
and any interleaving of reads, whether the packets come as built or
through the wire's stream decoder.
"""

import struct
import zlib

import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.errors import DimensionError
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore, _Column
from hometwin.ingestion.wire import _GROUP_META, _str_bytes, decode_packet_stream, encode_packet

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


# -- packets through the stream decoder -----------------------------------------
#
# `decode_packet_stream` lays out each thermal sensor's pixels for the whole
# stream in one read-only array, and a column's first fold adopts the span
# its chunks cover when they sit back to back in append order.  Every stream
# below goes through the wire first; the columns must still answer and save
# exactly as the oracle does.


def through_stream(packets: list) -> list[HubPacket]:
    """The packets (or wire blobs) as the stream decoder gives them back."""
    blobs = [p if isinstance(p, bytes) else encode_packet(p) for p in packets]
    return decode_packet_stream(b"".join(blobs))


def adopted(store: RecordStore, packet: HubPacket) -> bool:
    """Whether the column of the packet's first frame sensor is the decoded
    stream's pixel memory rather than a copy of it."""
    block = packet.frames[0]
    return np.shares_memory(store._frames[block.sensor_id].data, block.pixels_centi)


def first_read(packets: list[HubPacket]) -> RecordStore:
    store = RecordStore()
    for packet in packets:
        store.append(packet)
    store.query_frames(packets[0].frames[0].sensor_id, *ALL_TIME)
    return store


def test_decoded_stream_blocks_are_read_only():
    packets = through_stream([minute_block(m, fill=m) for m in range(3)])
    for packet in packets:
        with pytest.raises(ValueError):
            packet.frames[0].pixels_centi[0, 0, 0] = 1
    # a column that adopts them is read-only too: a query's view cannot
    # be made writable again
    block = first_read(packets).query_frames("a/C0/thermal", *ALL_TIME)
    with pytest.raises(ValueError):
        block.pixels_centi.flags.writeable = True


@pytest.mark.parametrize("seed", range(4))
def test_in_order_stream_adopts_and_matches_oracle(seed, tmp_path):
    rng = np.random.default_rng(400 + seed)
    packets = through_stream([minute_block(m, n=int(rng.integers(1, 240)), fill=m)
                              for m in range(20)])
    assert adopted(first_read(packets), packets[0])
    replay(packets, seed, tmp_path)


@pytest.mark.parametrize("seed", range(4))
def test_stream_with_a_retransmit_mid_stream_matches_oracle(seed, tmp_path):
    # the dropped duplicate leaves a gap in the stream's pixels: the fold copies
    rng = np.random.default_rng(410 + seed)
    packets = [minute_block(m, fill=m) for m in range(12)]
    packets.insert(int(rng.integers(2, 10)), packets[int(rng.integers(0, 2))])
    decoded = through_stream(packets)
    assert not adopted(first_read(decoded), decoded[0])
    replay(decoded, seed, tmp_path)


@pytest.mark.parametrize("seed", range(6))
def test_late_and_shuffled_stream_adopts_then_merges(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(420 + seed)
    minutes = np.cumsum(rng.integers(0, 2, size=60))
    packets = [tied_packet(rng, seq, int(m)) for seq, m in enumerate(minutes)]
    packets = [packets[i] for i in rng.permutation(len(packets)) if len(packets[i].frames[0])]
    decoded = through_stream(packets)
    merged_from = []
    merge = _Column._merge

    def watched(column, n, total):
        merged_from.append(column.data.flags.writeable)
        merge(column, n, total)

    monkeypatch.setattr(_Column, "_merge", watched)
    store = first_read(decoded)
    # the adopted span is out of order: it is merged into fresh arrays, in
    # append order for equal timestamps, and the span is never written
    assert merged_from == [False] and store._frames["a/C0/thermal"].data.flags.writeable
    assert not adopted(store, decoded[0])
    replay(decoded, seed, tmp_path)


def test_equal_timestamps_across_packets_in_order_adopt(tmp_path):
    # each packet's first frame ties with the previous packet's last one, and
    # the packets' pixels carry their sequence number, so a wrong order shows
    packets = []
    for seq in range(24):
        start = (seq // 4) * 60_000
        ts = start + 250 * (seq % 4) * 4 + 250 * np.arange(5, dtype=np.int64)
        pixels = np.full((5, 4, 4), seq, dtype=np.int16)
        block = FrameBlock("a/C0/thermal", 4, ts, pixels)
        packets.append(HubPacket("hub0", seq, start, start + 60_000, [], [block]))
    decoded = through_stream(packets)
    assert adopted(first_read(decoded), decoded[0])
    replay(decoded, 430, tmp_path)


def test_non_canonical_packet_mid_stream_matches_oracle(tmp_path):
    # a body whose frame groups are out of sensor id order is sorted by the
    # packet constructor and keeps pixels of its own: the sensor's fold copies
    from test_wire_oracle import body_of, sealed

    ts = 5 * 60_000 + np.arange(4, dtype=np.int64)
    px = np.full((4, 4, 4), 77, dtype=np.int16)
    body = body_of("hub0", 5, 5 * 60_000, 6 * 60_000, [],
                   [("b/C0/thermal", 4, ts, px), ("a/C0/thermal", 4, ts, px + 1)])
    packets = [minute_block(m, fill=m) for m in range(10)]
    decoded = through_stream(packets[:5] + [sealed(body)] + packets[6:])
    assert decoded[5].frames[0].pixels_centi.flags.writeable
    assert not adopted(first_read(decoded), decoded[0])
    replay(decoded, 440, tmp_path)


def test_two_blocks_of_one_sensor_in_one_packet_adopt(tmp_path):
    packets = []
    for m in range(8):
        start = m * 60_000
        ts = start + 500 * np.arange(120, dtype=np.int64)
        pixels = np.full((120, 4, 4), m, dtype=np.int16)
        pixels += np.arange(120, dtype=np.int16)[:, None, None]
        block = FrameBlock("a/C0/thermal", 4, ts, pixels)
        packets.append(HubPacket("hub0", m, start, start + 60_000, [], [block[:70], block[70:]]))
    decoded = through_stream(packets)
    assert len(decoded[0].frames) == 2
    store = first_read(decoded)
    assert adopted(store, decoded[0]) and not store._frames["a/C0/thermal"].data.flags.writeable
    replay(decoded, 450, tmp_path)


def test_stream_sensor_that_changes_resolution_is_refused():
    wide = minute_block(3)
    block = FrameBlock("a/C0/thermal", 32, wide.frames[0].timestamps[:2],
                       np.zeros((2, 32, 32), dtype=np.int16))
    wide = HubPacket("hub0", 3, wide.window_start, wide.window_end, [], [block])
    decoded = through_stream([minute_block(m) for m in range(3)] + [wide, minute_block(4)])
    store, oracle = RecordStore(), OracleStore()
    for packet in decoded[:3]:
        assert store.append(packet) == oracle.append(packet)
    with pytest.raises(DimensionError):
        store.append(decoded[3])
    assert store.append(decoded[4]) == oracle.append(decoded[4])
    assert_same_reads(store, oracle, np.random.default_rng(460))
    # the refused packet left the stream's 4x4 pixels back to back
    assert adopted(store, decoded[0])


def test_stream_into_a_store_that_holds_the_sensor(tmp_path):
    # the column already has committed rows, so the stream's chunks are copied
    # past them, and the stream's own pixels are never written
    early = [minute_block(m, fill=m) for m in range(3)]
    decoded = through_stream([minute_block(m, fill=m) for m in range(3, 9)])
    store, oracle = RecordStore(), OracleStore()
    for packet in early:
        assert store.append(packet) == oracle.append(packet)
    assert_same_reads(store, oracle, np.random.default_rng(470))
    for packet in decoded:
        assert store.append(packet) == oracle.append(packet)
    assert_same_reads(store, oracle, np.random.default_rng(471))
    assert not adopted(store, decoded[0])
    store.save(tmp_path / "store.bin")
    assert (tmp_path / "store.bin").read_bytes() == oracle.snapshot()


def test_view_taken_before_a_growing_fold_never_changes():
    decoded = through_stream([minute_block(m, fill=m) for m in range(4)])
    store = first_read(decoded)
    assert adopted(store, decoded[0])
    before = store.query_frames("a/C0/thermal", *ALL_TIME)
    copy = before[np.arange(len(before))]
    for packet in through_stream([minute_block(4, fill=4), minute_block(2, n=30, fill=9)]):
        store.append(packet)
        after = store.query_frames("a/C0/thermal", *ALL_TIME)
        assert before == copy and len(after) > len(before)
        # the grown column is fresh memory, not the adopted span
        assert not np.shares_memory(after.pixels_centi, decoded[0].frames[0].pixels_centi)
