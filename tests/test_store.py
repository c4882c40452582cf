import struct
import zlib

import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.errors import DimensionError, RangeError, UnknownSensorError, WireFormatError
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore

from conftest import random_packet, store_contents


def minute_packet(seq, n_frames=240, hub="hub0"):
    start = seq * 60_000
    ts = start + np.arange(n_frames, dtype=np.int64) * (60_000 // max(n_frames, 1))
    frames = [
        FrameBlock("bed/C0/thermal", 4, ts, np.full((n_frames, 4, 4), 2800, dtype=np.int16))
    ]
    readings = [
        ReadingSeries(
            "bed/C0/motion", SensorKind.MOTION, start + 1000 * np.arange(60), np.zeros(60)
        )
    ]
    return HubPacket(hub, seq, start, start + 60_000, readings, frames)


def test_append_and_query_counts():
    store = RecordStore()
    added = store.append(minute_packet(0))
    assert added == 300  # 60 motion readings + 240 frames
    frames = store.query_frames("bed/C0/thermal", 0, 60_000)
    assert len(frames) == 240


def test_duplicate_append_adds_zero():
    store = RecordStore()
    packet = minute_packet(0)
    assert store.append(packet) > 0
    assert store.append(packet) == 0
    assert len(store.query_frames("bed/C0/thermal", 0, 60_000)) == 240


def test_query_empty_range():
    store = RecordStore()
    store.append(minute_packet(0))
    assert len(store.query_frames("bed/C0/thermal", 10, 10)) == 0
    assert len(store.query_readings("nope", 0, 100)) == 0


def test_range_error():
    store = RecordStore()
    with pytest.raises(RangeError):
        store.query_readings("x", 100, 50)


def test_order_independence_and_dedup_under_permutation():
    rng = np.random.default_rng(7)
    packets = [minute_packet(seq) for seq in range(6)]
    with_dups = packets + packets[:3]

    stores = []
    for perm_seed in range(4):
        order = np.random.default_rng(perm_seed).permutation(len(with_dups))
        store = RecordStore()
        for i in order:
            store.append(with_dups[i])
        stores.append(store)

    reference = stores[0].query_frames("bed/C0/thermal", 0, 10**9)
    for store in stores[1:]:
        assert store.query_frames("bed/C0/thermal", 0, 10**9) == reference
        assert store.query_readings("bed/C0/motion", 0, 10**9) == stores[0].query_readings(
            "bed/C0/motion", 0, 10**9
        )
    assert len(reference) == 6 * 240


def test_query_returns_sorted_half_open():
    store = RecordStore()
    for seq in (2, 0, 1):
        store.append(minute_packet(seq))
    series = store.query_readings("bed/C0/motion", 59_000, 61_000)
    assert series.timestamps.tolist() == [59_000, 60_000]
    assert np.all(np.diff(store.query_frames("bed/C0/thermal", 0, 10**9).timestamps) > 0)


def test_gap_detection():
    store = RecordStore()
    for seq in (0, 1, 4, 7):
        store.append(minute_packet(seq))
    assert store.gaps() == [("hub0", 2, 3), ("hub0", 5, 6)]


class SeenOracle:
    """The former sequence bookkeeping: a set per hub, sorted whole for
    every gaps() call and every snapshot."""

    def __init__(self):
        self.seen: dict[str, set[int]] = {}

    def add(self, hub_id: str, seq: int) -> bool:
        seqs = self.seen.setdefault(hub_id, set())
        new = seq not in seqs
        seqs.add(seq)
        return new

    def gaps(self) -> list[tuple[str, int, int]]:
        out = []
        for hub_id in sorted(self.seen):
            seqs = sorted(self.seen[hub_id])
            for prev, cur in zip(seqs, seqs[1:]):
                if cur > prev + 1:
                    out.append((hub_id, prev + 1, cur - 1))
        return out

    def snapshot_prefix(self) -> bytes:
        """The snapshot body's sequence section."""
        body = struct.pack("<I", len(self.seen))
        for hub_id in sorted(self.seen):
            raw = hub_id.encode("utf-8")
            seqs = sorted(self.seen[hub_id])
            body += struct.pack("<H", len(raw)) + raw + struct.pack("<I", len(seqs))
            body += np.array(seqs, dtype="<u8").tobytes()
        return body


@pytest.mark.parametrize("seed", range(6))
def test_gaps_match_the_sorted_set_oracle(tmp_path, seed):
    rng = np.random.default_rng(seed)
    store, oracle = RecordStore(), SeenOracle()
    hubs = [f"hub{h}" for h in range(int(rng.integers(1, 5)))]
    top = 2**64 - 1
    for i in range(400):
        hub = hubs[int(rng.integers(len(hubs)))]
        if rng.random() < 0.05:  # the ends of the u64 range
            seq = [0, 1, top - 1, top][int(rng.integers(4))]
        else:  # clustered, so runs join up, split and repeat
            seq = int(rng.integers(0, 60 if seed % 2 else 400))
        empty = HubPacket(hub, seq, 0, 60_000)
        got = store.append(empty)
        assert got == 0
        oracle.add(hub, seq)
        if i % 7 == 0 or i == 399:
            assert store.gaps() == oracle.gaps()
            path = tmp_path / "store.bin"
            store.save(path)
            prefix = oracle.snapshot_prefix()
            assert path.read_bytes()[13 : 13 + len(prefix)] == prefix
            loaded = RecordStore.load(path)
            assert loaded.gaps() == oracle.gaps()
            loaded.save(tmp_path / "again.bin")
            assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_duplicate_check_follows_the_sequence_runs():
    store = RecordStore()
    for seq in (5, 3, 4, 9, 7, 8, 1):  # runs join from the left, right and both sides
        assert store.append(minute_packet(seq)) > 0
    assert store.gaps() == [("hub0", 2, 2), ("hub0", 6, 6)]
    for seq in (1, 3, 4, 5, 7, 8, 9):
        assert store.append(minute_packet(seq)) == 0
    for seq in (2, 6):
        assert store.append(minute_packet(seq)) > 0
    assert store.gaps() == []


def _refused_packet(case: str) -> HubPacket:
    """Minute 1 of hub0, giving a sensor of minute_packet another resolution
    or kind: the block, or the last of two, is 32x32; motion becomes light."""
    start = 60_000
    ts = start + 250 * np.arange(4, dtype=np.int64)
    small = FrameBlock("bed/C0/thermal", 4, ts, np.full((4, 4, 4), 2800, dtype=np.int16))
    big = FrameBlock("bed/C0/thermal", 32, ts, np.full((4, 32, 32), 2800, dtype=np.int16))
    light = ReadingSeries("bed/C0/motion", SensorKind.LIGHT, ts, np.full(4, 1.5))
    frames = {"resolution": [big], "resolution in packet": [small, big], "kind": [small]}[case]
    readings = [light] if case == "kind" else []
    return HubPacket("hub0", 1, start, start + 60_000, readings, frames)


@pytest.mark.parametrize(
    "case, error",
    [
        ("resolution", DimensionError),
        ("resolution in packet", DimensionError),
        ("kind", UnknownSensorError),
    ],
)
def test_sensor_changing_resolution_or_kind_is_refused(tmp_path, case, error):
    store, untouched = RecordStore(), RecordStore()
    for s in (store, untouched):
        s.append(minute_packet(0))
        s.query_frames("bed/C0/thermal", 0, 60_000)
    with pytest.raises(error):
        store.append(_refused_packet(case))
    # nothing of the packet was kept: not its sequence number, not a chunk
    assert store.record_count() == untouched.record_count() == 300
    assert store_contents(store) == store_contents(untouched)
    store.save(tmp_path / "a.bin")
    untouched.save(tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    assert store.append(minute_packet(1)) == 300  # sequence 1 is still free


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    store = RecordStore()
    packets = [random_packet(rng, seq=i) for i in range(20)]
    for packet in packets:
        store.append(packet)
    path = tmp_path / "store.bin"
    store.save(path)
    loaded = RecordStore.load(path)
    assert loaded.sensor_ids() == store.sensor_ids()
    assert store_contents(loaded) == store_contents(store)
    assert loaded.gaps() == store.gaps()


def test_failed_save_leaves_previous_snapshot_whole(tmp_path, monkeypatch):
    import hometwin.files as files_module  # the store saves through write_atomic

    rng = np.random.default_rng(12)
    before = RecordStore()
    for seq in range(5):
        before.append(random_packet(rng, seq=seq))
    path = tmp_path / "store.bin"
    before.save(path)
    after = RecordStore()
    for seq in range(40):
        after.append(random_packet(rng, seq=seq))

    class FailingFile:
        """Writes the first half of what it is given, then the disk fills."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(data) > 64:
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    monkeypatch.setattr(
        files_module, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False
    )
    with pytest.raises(OSError):
        after.save(path)
    monkeypatch.undo()

    loaded = RecordStore.load(path)
    assert loaded.sensor_ids() == before.sensor_ids()
    assert store_contents(loaded) == store_contents(before)
    assert loaded.gaps() == before.gaps()
    assert [p.name for p in tmp_path.iterdir()] == ["store.bin"]


def _snapshot_blob(tmp_path, light_ts=(60_000,), frame_ts=(60_000,)) -> bytearray:
    """A snapshot with one hub, one light series and one 4x4 frame series."""
    light = ReadingSeries(
        "a/A0/light", SensorKind.LIGHT, np.array(light_ts), np.full(len(light_ts), 1.5)
    )
    frames = FrameBlock(
        "a/C0/thermal",
        4,
        np.array(frame_ts),
        np.full((len(frame_ts), 4, 4), 2800, dtype=np.int16),
    )
    store = RecordStore()
    store.append(HubPacket("hub0", 0, 60_000, 120_000, [light], [frames]))
    path = tmp_path / "store.bin"
    store.save(path)
    return bytearray(path.read_bytes())


def _load_resealed(tmp_path, blob: bytearray) -> RecordStore:
    """Load a hand-edited snapshot with its crc recomputed, so only the edit is wrong."""
    blob[9:13] = zlib.crc32(bytes(blob[13:])).to_bytes(4, "little")
    path = tmp_path / "edited.bin"
    path.write_bytes(bytes(blob))
    return RecordStore.load(path)


def test_snapshot_blob_loads_as_built(tmp_path):
    store = _load_resealed(tmp_path, _snapshot_blob(tmp_path))
    assert store.sensor_ids() == ["a/A0/light", "a/C0/thermal"]
    assert store.query_readings("a/A0/light", 0, 10**6).kind is SensorKind.LIGHT


@pytest.mark.parametrize("index", [4, 5, 6, 255])
def test_snapshot_bad_reading_kind_index_reports_offset(tmp_path, index):
    blob = _snapshot_blob(tmp_path)
    kind_at = blob.index(b"a/A0/light") + len("a/A0/light")
    assert blob[kind_at] == 1  # SensorKind.LIGHT
    blob[kind_at] = index
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob)
    assert err.value.offset == kind_at


def test_snapshot_non_utf8_sensor_id_reports_offset(tmp_path):
    blob = _snapshot_blob(tmp_path)
    id_at = blob.index(b"a/A0/light")
    blob[id_at] = 0xFF
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob)
    assert err.value.offset == id_at


def test_snapshot_trailing_bytes_report_offset(tmp_path):
    blob = _snapshot_blob(tmp_path)
    size = len(blob)
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob + b"\x00")
    assert err.value.offset == size


@pytest.mark.parametrize("resolution", [0, 8, 16])
def test_snapshot_bad_resolution_reports_offset(tmp_path, resolution):
    blob = _snapshot_blob(tmp_path)
    res_at = blob.index(b"a/C0/thermal") + len("a/C0/thermal")
    assert blob[res_at] == 4
    blob[res_at] = resolution
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob)
    assert err.value.offset == res_at


def test_snapshot_truncation_reports_offset(tmp_path):
    blob = _snapshot_blob(tmp_path)
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob[:-3])
    assert 13 <= err.value.offset < len(blob) - 3


@pytest.mark.parametrize("section", ["reading", "frame"])
def test_snapshot_series_out_of_order_reports_offset(tmp_path, section):
    # queries binary-search each series, so a series edited out of order
    # would answer range queries with wrong rows
    light_ts, frame_ts = [61_000, 62_000, 65_000], [61_250, 62_250, 65_250]
    blob = _snapshot_blob(tmp_path, light_ts, frame_ts)
    ts = light_ts if section == "reading" else frame_ts
    ts_at = blob.index(np.array(ts, dtype="<i8").tobytes())
    blob[ts_at : ts_at + 24] = np.array([ts[2], ts[0], ts[1]], dtype="<i8").tobytes()
    with pytest.raises(WireFormatError) as err:
        _load_resealed(tmp_path, blob)
    assert err.value.offset == ts_at + 8  # the first timestamp below its predecessor


def test_snapshot_equal_timestamps_load(tmp_path):
    blob = _snapshot_blob(tmp_path, [61_000, 61_000, 65_000], [61_250, 65_250, 65_250])
    store = _load_resealed(tmp_path, blob)
    assert store.query_readings("a/A0/light", 61_000, 61_001).timestamps.tolist() == [61_000] * 2
    assert store.query_frames("a/C0/thermal", 65_250, 65_251).timestamps.tolist() == [65_250] * 2


def test_reads_of_a_short_history_rarely_regrow(monkeypatch):
    # a dashboard read after every 5th packet: growth sized from the rows
    # held stays ahead of the folds, where 1.5x the old capacity did not
    import hometwin.ingestion.store as store_module

    regrow = store_module._regrow
    grown = []
    monkeypatch.setattr(
        store_module, "_regrow", lambda column, n, capacity: grown.append(capacity) or regrow(column, n, capacity)
    )
    store = RecordStore()
    for seq in range(36):
        p = minute_packet(seq)
        store.append(HubPacket(p.hub_id, seq, p.window_start, p.window_end, [], p.frames))
        if seq % 5 == 4:
            ts = store.query_frames("bed/C0/thermal", 0, 10**9).timestamps
            assert len(ts) == 240 * (seq + 1) and np.all(np.diff(ts) > 0)
            if seq == 4:  # the first fold reserves exactly what it holds
                assert len(store._frames["bed/C0/thermal"].ts) == 1200
    assert len(grown) <= 3
