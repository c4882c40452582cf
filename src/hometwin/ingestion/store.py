"""Append-only record store with time-range queries and dedup by packet id.

One writer, many readers: appends are serialized by the caller, and a query
sees every fully appended packet.  Each sensor is one column of sorted
timestamp and value (or pixel) buffers with spare capacity.  An append only
lists the packet's arrays; the next read of the sensor folds them in.  Rows
that extend the column in time order are copied past its end with no sort;
anything else is merged from its insertion point on by a stable sort into
fresh arrays, so equal timestamps keep their append order.  A query is two
binary searches and returns read-only views, and nothing it returned changes
afterwards.  Missing sequence numbers are tracked as gaps, not errors.

A column's first fold copies no data when its pending chunks are
C-contiguous slices that sit back to back, in append order, in one
read-only array, as the pixels of `decode_packet_stream` and of the
simulator do: the column adopts that span as its data (timestamps are still
copied) and holds exactly its rows, so the next fold that adds rows regrows
into fresh arrays.  A writable chunk, or a gap such as a dropped duplicate
leaves, takes the copy.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_right
from pathlib import Path

import numpy as np

from ..core import FrameBlock, ReadingSeries, SensorKind
from ..errors import DimensionError, RangeError, UnknownSensorError, VersionError, WireFormatError
from ..files import write_atomic
from .packets import HubPacket
from .wire import _GROUP_META, _centi_column, _need, _str_bytes, _string

_MAGIC = b"HTSTORE1"
_VERSION = 1
_KINDS = list(SensorKind)  # a reading series stores its kind as an index here
_U32 = struct.Struct("<I")
_GROWTH = 1.5  # capacity per row held when a fold outgrows a column's buffers


def _regrow(column: _Column, n: int, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh timestamp and data buffers of `capacity` rows that start with
    the column's first n rows."""
    ts = np.empty(capacity, dtype=column.ts.dtype)
    data = np.empty((capacity,) + column.data.shape[1:], dtype=column.data.dtype)
    ts[:n], data[:n] = column.ts[:n], column.data[:n]
    return ts, data


class _Column:
    """One sensor's records: the sorted committed rows `ts[:n]`, `data[:n]`,
    and the (timestamps, data) chunks appended since the last read.  `meta`
    is the sensor kind of a reading column, the resolution of a frame column.

    Committed rows are never written again: a fold writes only past `n` or
    into fresh arrays, so views handed out earlier stay as they were."""

    __slots__ = ("meta", "ts", "data", "n", "pending")

    def __init__(self, meta, ts: np.ndarray, data: np.ndarray):
        self.meta = meta
        self.ts, self.data, self.n = ts, data, len(ts)
        self.pending: list[tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        return self.n + sum(len(ts) for ts, _ in self.pending)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row, sorted by timestamp, once the pending chunks are in."""
        if self.pending:
            self._fold()
        return self.ts[: self.n], self.data[: self.n]

    def window(self, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the rows with t0 <= t < t1."""
        ts, data = self.rows()
        lo = int(np.searchsorted(ts, t0, side="left"))
        hi = int(np.searchsorted(ts, t1, side="left"))
        ts, data = ts[lo:hi], data[lo:hi]
        ts.flags.writeable = data.flags.writeable = False
        return ts, data

    def _fold(self) -> None:
        """Copy the pending chunks past the committed rows, growing the
        buffers if they are full, and merge if that broke the time order.
        The first fold of a column whose chunks lie back to back in one
        read-only array takes that span as its data instead (`_adopted`)."""
        chunks, self.pending = self.pending, []
        n = end = self.n
        total = n + sum(len(ts) for ts, _ in chunks)
        span = None if n else _adopted([data for _, data in chunks])
        if span is not None:  # capacity is the row count: the next fold regrows
            self.ts, self.data = np.concatenate([ts for ts, _ in chunks]), span
            chunks = []
        elif total > len(self.ts) and not n:  # the first fold reserves exactly
            self.ts = np.empty(total, self.ts.dtype)
            self.data = np.empty((total,) + self.data.shape[1:], self.data.dtype)
        elif total > len(self.ts):  # later growth is sized from the rows held
            self.ts, self.data = _regrow(self, n, int(total * _GROWTH))
        for ts, data in chunks:
            self.ts[end : end + len(ts)] = ts
            self.data[end : end + len(ts)] = data
            end += len(ts)
        joined = self.ts[max(n - 1, 0) : total]
        if np.count_nonzero(joined[1:] < joined[:-1]):
            self._merge(n, total)
        self.n = total

    def _merge(self, n: int, total: int) -> None:
        """Sort the new rows `n:total`, which are in append order, into the
        committed ones.  Rows at or before the earliest new timestamp stay;
        the rest are stably sorted into fresh arrays, so equal timestamps
        keep their append order and no committed row is overwritten."""
        at = int(np.searchsorted(self.ts[:n], self.ts[n:total].min(), side="right"))
        order = np.argsort(self.ts[at:total], kind="stable")
        ts, data = _regrow(self, at, len(self.ts))
        ts[at:total] = self.ts[at:total][order]
        data[at:total] = self.data[at:total][order]
        self.ts, self.data = ts, data


def _adopted(chunks: list[np.ndarray]) -> np.ndarray | None:
    """The chunks as one view, if they are C-contiguous slices that sit back
    to back, in order, in one read-only array; None otherwise."""
    first, base = chunks[0], chunks[0].base
    if not (isinstance(base, np.ndarray) and not base.flags.writeable
            and base.flags.c_contiguous and base.dtype == first.dtype
            and base.shape[1:] == first.shape[1:]):
        return None
    stride, at = base.strides[0], base.__array_interface__["data"][0]
    lo, misaligned = divmod(first.__array_interface__["data"][0] - at, stride)
    hi = lo
    for chunk in chunks:
        if (misaligned or chunk.base is not base or not chunk.flags.c_contiguous
                or chunk.__array_interface__["data"][0] != at + hi * stride):
            return None
        hi += len(chunk)
    return base[lo:hi]


def _add(columns: dict[str, _Column], sensor_id: str, meta, ts: np.ndarray, data: np.ndarray):
    """List a chunk on its sensor's column, made empty on the sensor's first chunk."""
    column = columns.get(sensor_id)
    if column is None:
        column = columns[sensor_id] = _Column(
            meta, np.empty(0, ts.dtype), np.empty((0,) + data.shape[1:], data.dtype)
        )
    column.pending.append((ts, data))


class _Sequences:
    """One hub's seen sequence numbers as sorted runs of consecutive numbers,
    `starts[i]` through `ends[i]`: a lookup is one binary search, and the
    gaps are the spaces between runs, with no sort."""

    __slots__ = ("starts", "ends")

    def __init__(self, seqs=()):
        """The runs of `seqs`, which are strictly increasing."""
        self.starts: list[int] = []
        self.ends: list[int] = []
        for seq in seqs:
            if self.ends and self.ends[-1] == seq - 1:
                self.ends[-1] = seq
            else:
                self.starts.append(seq)
                self.ends.append(seq)

    def __contains__(self, seq: int) -> bool:
        i = bisect_right(self.starts, seq)
        return i > 0 and self.ends[i - 1] >= seq

    def __len__(self) -> int:
        return sum(self.ends) - sum(self.starts) + len(self.starts)

    def add(self, seq: int) -> None:
        """Record a sequence number not seen before."""
        i = bisect_right(self.starts, seq)
        joins_left = i > 0 and self.ends[i - 1] == seq - 1
        joins_right = i < len(self.starts) and self.starts[i] == seq + 1
        if joins_left and joins_right:
            self.ends[i - 1] = self.ends.pop(i)
            del self.starts[i]
        elif joins_left:
            self.ends[i - 1] = seq
        elif joins_right:
            self.starts[i] = seq
        else:
            self.starts.insert(i, seq)
            self.ends.insert(i, seq)

    def gaps(self) -> list[tuple[int, int]]:
        return [(end + 1, start - 1) for end, start in zip(self.ends, self.starts[1:])]

    def to_bytes(self) -> bytes:
        """Every number, ascending, as u64."""
        return b"".join(
            (np.arange(end - start + 1, dtype="<u8") + np.uint64(start)).tobytes()
            for start, end in zip(self.starts, self.ends)
        )


class RecordStore:
    def __init__(self):
        self._seen: dict[str, _Sequences] = {}
        self._readings: dict[str, _Column] = {}  # scalar readings; meta is the kind
        self._frames: dict[str, _Column] = {}  # thermal frames; meta is the resolution

    # -- writes ----------------------------------------------------------

    def append(self, packet: HubPacket) -> int:
        """Materialize a packet; duplicates (same hub id + sequence) add 0.

        The store keeps the packet's arrays without copying them until the
        next read of their sensor copies them in, so the caller must not
        mutate them after the append.  A decoded packet's series and block
        timestamps are views of one timestamp column of the whole packet,
        and its series values views of packet-wide value columns, so a
        pending chunk keeps those columns alive until its sensor is folded;
        a copy here would double the bytes an ingest moves.  The pixels of
        a `decode_packet` block are its own.  Those of a
        `decode_packet_stream` block are a read-only slice of the sensor's
        pixels for the whole stream, which the sensor's first fold adopts
        with no copy when nothing else lies between its chunks.

        A packet that gives a known sensor another resolution raises
        DimensionError, and one that gives it another kind raises
        UnknownSensorError; a refused packet changes nothing."""
        seen = self._seen.get(packet.hub_id)
        if seen is not None and packet.sequence_number in seen:
            return 0
        # every group is checked before any state changes; a packet holds one
        # series per reading sensor, but may hold several blocks of a sensor
        for series in packet.readings:
            column = self._readings.get(series.sensor_id)
            if column is not None and column.meta is not series.kind:
                raise UnknownSensorError(
                    f"sensor {series.sensor_id} changes kind from {column.meta} to {series.kind}"
                )
        resolutions: dict[str, int] = {}
        for block in packet.frames:
            if len(block.timestamps):
                column = self._frames.get(block.sensor_id)
                held = resolutions.setdefault(
                    block.sensor_id, block.resolution if column is None else column.meta
                )
                if block.resolution != held:
                    raise DimensionError(
                        f"sensor {block.sensor_id} changes resolution from {held} "
                        f"to {block.resolution}"
                    )
        if seen is None:
            seen = self._seen[packet.hub_id] = _Sequences()
        seen.add(packet.sequence_number)

        count = 0
        for series in packet.readings:
            ts = series.timestamps
            _add(self._readings, series.sensor_id, series.kind, ts, series.values)
            count += len(ts)
        for block in packet.frames:
            ts = np.asarray(block.timestamps, dtype=np.int64)
            if len(ts):
                px = np.asarray(block.pixels_centi, dtype=np.int16)
                _add(self._frames, block.sensor_id, block.resolution, ts, px)
                count += len(ts)
        return count

    # -- reads -----------------------------------------------------------

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
        column = self._readings[sensor_id]
        return ReadingSeries(sensor_id, column.meta, *column.window(t0, t1))

    def query_frames(self, sensor_id: str, t0: int, t1: int) -> FrameBlock:
        """Frames with t0 <= t < t1, sorted by timestamp."""
        self._check_range(t0, t1)
        if sensor_id not in self._frames:
            return FrameBlock(
                sensor_id, 4, np.empty(0, dtype=np.int64), np.empty((0, 4, 4), dtype=np.int16)
            )
        column = self._frames[sensor_id]
        return FrameBlock(sensor_id, column.meta, *column.window(t0, t1))

    def sensor_ids(self) -> list[str]:
        return sorted(set(self._readings) | set(self._frames))

    def record_count(self) -> int:
        return sum(map(len, self._readings.values())) + sum(map(len, self._frames.values()))

    def gaps(self) -> list[tuple[str, int, int]]:
        """Missing sequence ranges per hub as (hub_id, first_missing, last_missing)."""
        return [
            (hub_id, first, last)
            for hub_id in sorted(self._seen)
            for first, last in self._seen[hub_id].gaps()
        ]

    # -- snapshot persistence ---------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a snapshot; a scalar series that does not fit int32
        centi-units (NaN, inf, past about ±21.4e6) raises ValueError before
        anything is written."""
        body = bytearray()
        body += _U32.pack(len(self._seen))
        for hub_id in sorted(self._seen):
            body += _str_bytes(hub_id)
            body += _U32.pack(len(self._seen[hub_id]))
            body += self._seen[hub_id].to_bytes()

        reading_ids = sorted(self._readings)
        body += _U32.pack(len(reading_ids))
        for sid in reading_ids:
            column = self._readings[sid]
            ts, vals = column.rows()
            body += _str_bytes(sid)
            body += _GROUP_META.pack(_KINDS.index(column.meta), len(ts))
            body += ts.astype("<i8").tobytes()
            body += _centi_column([ReadingSeries(sid, column.meta, ts, vals)])

        frame_ids = sorted(self._frames)
        body += _U32.pack(len(frame_ids))
        for sid in frame_ids:
            column = self._frames[sid]
            ts, px = column.rows()
            body += _str_bytes(sid)
            body += _GROUP_META.pack(column.meta, len(ts))
            body += ts.astype("<i8").tobytes()
            body += px.astype("<i2").tobytes()

        header = _MAGIC + bytes([_VERSION]) + _U32.pack(zlib.crc32(body))
        write_atomic(path, (header, body))

    @classmethod
    def load(cls, path: str | Path) -> "RecordStore":
        """Read a snapshot; malformed bytes raise WireFormatError with the
        absolute offset of the fault.  So does any snapshot that `save`
        would not write: a hub's sequence numbers out of order or repeated,
        or hub or sensor ids repeated or out of order in their list."""
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

        def after(last: str | None, key: str, what: str, at: int) -> str:
            """`key`, which must sort after the `last` of its list: save
            writes each list of ids once each, in order."""
            if last is not None and key <= last:
                raise WireFormatError(f"{what} {key} repeats or is out of order", at)
            return key

        store = cls()
        n_hubs, pos = count(pos)
        last = None
        for _ in range(n_hubs):
            hub_at = pos
            hub_id, pos = _string(data, pos, end)
            last = after(last, hub_id, "hub id", hub_at)
            n_seqs, pos = count(pos)
            at, pos = pos, _need(pos, 8 * n_seqs, end)
            seqs = np.frombuffer(data, "<u8", n_seqs, at)
            back = np.flatnonzero(seqs[1:] <= seqs[:-1])
            if len(back):
                row = int(back[0]) + 1
                raise WireFormatError(
                    f"hub {hub_id} sequence numbers repeat or go backwards at entry {row}",
                    at + 8 * row,
                )
            store._seen[hub_id] = _Sequences(seqs.tolist())

        n_series, pos = count(pos)
        last = None
        for _ in range(n_series):
            sid, kind_idx, n, kind_at, at = group(pos)
            last = after(last, sid, "reading series", pos)
            if kind_idx >= len(_KINDS) or _KINDS[kind_idx].is_thermal:
                raise WireFormatError(
                    f"reading series {sid} has bad sensor kind index {kind_idx}", kind_at
                )
            pos = _need(at, 12 * n, end)
            ts = timestamps(sid, n, at)
            vals = np.frombuffer(data, "<i4", n, at + 8 * n).astype(np.float64) / 100.0
            store._readings[sid] = _Column(_KINDS[kind_idx], ts, vals)

        n_series, pos = count(pos)
        last = None
        for _ in range(n_series):
            sid, res, n, res_at, at = group(pos)
            last = after(last, sid, "frame series", pos)
            if res not in (4, 32):
                raise WireFormatError(f"frame series {sid} has bad resolution {res}", res_at)
            pos = _need(at, (8 + 2 * res * res) * n, end)
            ts = timestamps(sid, n, at)
            px = np.frombuffer(data, "<i2", n * res * res, at + 8 * n).astype(np.int16)
            store._frames[sid] = _Column(res, ts, px.reshape(n, res, res))

        if pos != end:
            raise WireFormatError(f"{end - pos} trailing bytes after store snapshot", pos)
        return store
