"""Append-only record store with time-range queries and dedup by packet id.

One writer, many readers: appends are serialized by the caller; queries
consolidate lazily and always see every fully appended packet.  Missing
sequence numbers are tracked as gaps, not errors.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

from ..core import FrameBlock, ReadingSeries, SensorKind
from ..errors import RangeError, VersionError, WireFormatError
from ..files import write_atomic
from .packets import HubPacket
from .wire import _GROUP_META, _need, _str_bytes, _string

_MAGIC = b"HTSTORE1"
_VERSION = 1
_KINDS = list(SensorKind)  # a reading series stores its kind as an index here
_U32 = struct.Struct("<I")


class RecordStore:
    def __init__(self):
        self._seen: dict[str, set[int]] = {}
        # sensor_id -> (kind, [ts chunks], [value chunks]) for scalar readings
        self._readings: dict[str, tuple[SensorKind, list[np.ndarray], list[np.ndarray]]] = {}
        # sensor_id -> (resolution, [ts chunks], [pixel chunks])
        self._frames: dict[str, tuple[int, list[np.ndarray], list[np.ndarray]]] = {}
        self._dirty: set[str] = set()

    # -- writes ----------------------------------------------------------

    def append(self, packet: HubPacket) -> int:
        """Materialize a packet; duplicates (same hub id + sequence) add 0.

        The store keeps the packet's arrays without copying them, so the
        caller must not mutate them after the append.  Decoded packets own
        fresh arrays, and a copy here would double the bytes an ingest
        moves."""
        seqs = self._seen.setdefault(packet.hub_id, set())
        if packet.sequence_number in seqs:
            return 0
        seqs.add(packet.sequence_number)

        count = 0
        for series in packet.readings:
            kind, ts_chunks, val_chunks = self._readings.setdefault(
                series.sensor_id, (series.kind, [], [])
            )
            ts_chunks.append(series.timestamps)
            val_chunks.append(series.values)
            self._dirty.add(series.sensor_id)
            count += len(series)

        for block in packet.frames:
            if not len(block):
                continue
            res, ts_chunks, px_chunks = self._frames.setdefault(
                block.sensor_id, (block.resolution, [], [])
            )
            ts_chunks.append(np.asarray(block.timestamps, dtype=np.int64))
            px_chunks.append(np.asarray(block.pixels_centi, dtype=np.int16))
            self._dirty.add(block.sensor_id)
            count += len(block)
        return count

    # -- reads -----------------------------------------------------------

    def _consolidate(self, sensor_id: str) -> None:
        if sensor_id not in self._dirty:
            return
        if sensor_id in self._readings:
            kind, ts_chunks, val_chunks = self._readings[sensor_id]
            ts = np.concatenate(ts_chunks)
            vals = np.concatenate(val_chunks)
            order = np.argsort(ts, kind="stable")
            self._readings[sensor_id] = (kind, [ts[order]], [vals[order]])
        if sensor_id in self._frames:
            res, ts_chunks, px_chunks = self._frames[sensor_id]
            ts = np.concatenate(ts_chunks)
            px = np.concatenate(px_chunks)
            order = np.argsort(ts, kind="stable")
            self._frames[sensor_id] = (res, [ts[order]], [px[order]])
        self._dirty.discard(sensor_id)

    @staticmethod
    def _check_range(t0: int, t1: int) -> None:
        if t0 > t1:
            raise RangeError(f"query range has t0 {t0} > t1 {t1}")

    def query_readings(self, sensor_id: str, t0: int, t1: int) -> ReadingSeries:
        """Readings with t0 <= t < t1, sorted by timestamp."""
        self._check_range(t0, t1)
        if sensor_id not in self._readings:
            return ReadingSeries(
                sensor_id,
                SensorKind.MOTION,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
        self._consolidate(sensor_id)
        kind, (ts,), (vals,) = self._readings[sensor_id]
        lo = int(np.searchsorted(ts, t0, side="left"))
        hi = int(np.searchsorted(ts, t1, side="left"))
        return ReadingSeries(sensor_id, kind, ts[lo:hi], vals[lo:hi])

    def query_frames(self, sensor_id: str, t0: int, t1: int) -> FrameBlock:
        """Frames with t0 <= t < t1, sorted by timestamp."""
        self._check_range(t0, t1)
        if sensor_id not in self._frames:
            return FrameBlock(
                sensor_id, 4, np.empty(0, dtype=np.int64), np.empty((0, 4, 4), dtype=np.int16)
            )
        self._consolidate(sensor_id)
        res, (ts,), (px,) = self._frames[sensor_id]
        lo = int(np.searchsorted(ts, t0, side="left"))
        hi = int(np.searchsorted(ts, t1, side="left"))
        return FrameBlock(sensor_id, res, ts[lo:hi], px[lo:hi])

    def sensor_ids(self) -> list[str]:
        return sorted(set(self._readings) | set(self._frames))

    def record_count(self) -> int:
        total = 0
        for sid in set(self._readings) | set(self._frames):
            self._consolidate(sid)
        for _, ts_chunks, _ in self._readings.values():
            total += sum(len(c) for c in ts_chunks)
        for _, ts_chunks, _ in self._frames.values():
            total += sum(len(c) for c in ts_chunks)
        return total

    def gaps(self) -> list[tuple[str, int, int]]:
        """Missing sequence ranges per hub as (hub_id, first_missing, last_missing)."""
        out = []
        for hub_id in sorted(self._seen):
            seqs = sorted(self._seen[hub_id])
            for prev, cur in zip(seqs, seqs[1:]):
                if cur > prev + 1:
                    out.append((hub_id, prev + 1, cur - 1))
        return out

    # -- snapshot persistence ---------------------------------------------

    def save(self, path: str | Path) -> None:
        body = bytearray()
        body += _U32.pack(len(self._seen))
        for hub_id in sorted(self._seen):
            body += _str_bytes(hub_id)
            seqs = sorted(self._seen[hub_id])
            body += _U32.pack(len(seqs))
            body += np.array(seqs, dtype="<u8").tobytes()

        reading_ids = sorted(self._readings)
        body += _U32.pack(len(reading_ids))
        for sid in reading_ids:
            self._consolidate(sid)
            kind, (ts,), (vals,) = self._readings[sid]
            body += _str_bytes(sid)
            body += _GROUP_META.pack(_KINDS.index(kind), len(ts))
            body += ts.astype("<i8").tobytes()
            body += np.round(vals * 100.0).astype("<i4").tobytes()

        frame_ids = sorted(self._frames)
        body += _U32.pack(len(frame_ids))
        for sid in frame_ids:
            self._consolidate(sid)
            res, (ts,), (px,) = self._frames[sid]
            body += _str_bytes(sid)
            body += _GROUP_META.pack(res, len(ts))
            body += ts.astype("<i8").tobytes()
            body += px.astype("<i2").tobytes()

        header = _MAGIC + bytes([_VERSION]) + _U32.pack(zlib.crc32(body))
        write_atomic(path, header, body)

    @classmethod
    def load(cls, path: str | Path) -> "RecordStore":
        """Read a snapshot; malformed bytes raise WireFormatError with the
        absolute offset of the fault."""
        data = Path(path).read_bytes()
        end = len(data)
        if data[: len(_MAGIC)] != _MAGIC:
            raise WireFormatError("bad store snapshot magic", 0)
        pos = _need(len(_MAGIC), 5, end)
        if data[len(_MAGIC)] != _VERSION:
            raise VersionError(f"unsupported store snapshot version {data[len(_MAGIC)]}")
        (crc,) = _U32.unpack_from(data, len(_MAGIC) + 1)
        if zlib.crc32(memoryview(data)[pos:]) != crc:
            raise WireFormatError("store snapshot crc mismatch", len(_MAGIC) + 1)

        def count(pos: int) -> tuple[int, int]:
            at = _need(pos, 4, end)
            (n,) = _U32.unpack_from(data, pos)
            return n, at

        def group(pos: int) -> tuple[str, int, int, int, int]:
            """A sensor id and its (code, sample count) header, with the code's
            offset and the offset just past the header."""
            sid, pos = _string(data, pos, end)
            at = _need(pos, _GROUP_META.size, end)
            code, n = _GROUP_META.unpack_from(data, pos)
            return sid, code, n, pos, at

        def timestamps(sid: str, n: int, at: int) -> np.ndarray:
            """A series' timestamps; queries binary-search them, so a series
            out of order is malformed at its first backward step."""
            ts = np.frombuffer(data, "<i8", n, at).astype(np.int64)
            back = np.flatnonzero(np.diff(ts) < 0)
            if len(back):
                row = int(back[0]) + 1
                raise WireFormatError(
                    f"series {sid} timestamps go backwards at row {row}", at + 8 * row
                )
            return ts

        store = cls()
        n_hubs, pos = count(pos)
        for _ in range(n_hubs):
            hub_id, pos = _string(data, pos, end)
            n_seqs, pos = count(pos)
            at, pos = pos, _need(pos, 8 * n_seqs, end)
            store._seen[hub_id] = set(np.frombuffer(data, "<u8", n_seqs, at).tolist())

        n_series, pos = count(pos)
        for _ in range(n_series):
            sid, kind_idx, n, kind_at, at = group(pos)
            if kind_idx >= len(_KINDS) or _KINDS[kind_idx].is_thermal:
                raise WireFormatError(
                    f"reading series {sid} has bad sensor kind index {kind_idx}", kind_at
                )
            pos = _need(at, 12 * n, end)
            ts = timestamps(sid, n, at)
            vals = np.frombuffer(data, "<i4", n, at + 8 * n).astype(np.float64) / 100.0
            store._readings[sid] = (_KINDS[kind_idx], [ts], [vals])

        n_series, pos = count(pos)
        for _ in range(n_series):
            sid, res, n, res_at, at = group(pos)
            if res not in (4, 32):
                raise WireFormatError(f"frame series {sid} has bad resolution {res}", res_at)
            pos = _need(at, (8 + 2 * res * res) * n, end)
            ts = timestamps(sid, n, at)
            px = np.frombuffer(data, "<i2", n * res * res, at + 8 * n).astype(np.int16)
            store._frames[sid] = (res, [ts], [px.reshape(n, res, res)])

        if pos != end:
            raise WireFormatError(f"{end - pos} trailing bytes after store snapshot", pos)
        return store
