"""Hub packets and the per-minute batching redirector."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind, floor_minute
from ..errors import StalenessError


def _canonical_readings(readings: list[ReadingSeries]) -> list[ReadingSeries]:
    """One non-empty series per sensor id, ordered by id, each stably sorted
    by timestamp -- the order of a stable (sensor id, timestamp) sort of the
    individual samples in the order they were given."""
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


@dataclass
class HubPacket:
    """One minute of buffered sensor data from one hub.

    Contents are kept in canonical form so that decode(encode(p)) == p:
    the window spans exactly one minute and holds every sample; one
    non-empty reading series per sensor, in strictly increasing sensor id
    order, each stably sorted by timestamp, with motion values 0 or 1;
    frame blocks stably sorted by sensor id.  The constructor brings any
    contents into that form, or raises ValueError if it cannot.  `trusted`
    builds a packet whose contents are already canonical without checking
    them again; the wire decoder uses it once it has proven the form.
    """

    hub_id: str
    sequence_number: int
    window_start: int
    window_end: int
    readings: list[ReadingSeries] = field(default_factory=list)
    frames: list[FrameBlock] = field(default_factory=list)

    def __post_init__(self):
        if self.window_end - self.window_start != MS_PER_MINUTE:
            raise ValueError(
                f"packet window must span exactly one minute, got "
                f"[{self.window_start}, {self.window_end})"
            )
        self.readings = _canonical_readings(self.readings)
        self.frames = sorted(self.frames, key=lambda b: b.sensor_id)
        # every sample inside the window: readings are sorted by now, frames
        # need not be
        bounds = [(s.sensor_id, s.timestamps[0], s.timestamps[-1]) for s in self.readings]
        bounds += [
            (b.sensor_id, b.timestamps.min(), b.timestamps.max()) for b in self.frames if len(b)
        ]
        for sensor_id, first, last in bounds:
            if not (self.window_start <= first and last < self.window_end):
                raise ValueError(
                    f"samples of {sensor_id} outside window "
                    f"[{self.window_start}, {self.window_end})"
                )

    @classmethod
    def trusted(
        cls,
        hub_id: str,
        sequence_number: int,
        window_start: int,
        window_end: int,
        readings: list[ReadingSeries],
        frames: list[FrameBlock],
    ) -> "HubPacket":
        """A packet of contents already in canonical form, kept as given."""
        packet = object.__new__(cls)
        packet.hub_id, packet.sequence_number = hub_id, sequence_number
        packet.window_start, packet.window_end = window_start, window_end
        packet.readings, packet.frames = readings, frames
        return packet

    @property
    def item_count(self) -> int:
        return sum(len(s) for s in self.readings) + sum(len(b) for b in self.frames)


class Redirector:
    """Buffers reading series and frame blocks, emitting one packet per closed minute.

    A packet is produced for every minute even when nothing arrived
    (heartbeat semantics); sequence numbers increase by exactly one per
    packet.  Items stamped before the current open window are stale.
    """

    def __init__(self, hub_id: str, window_start: int):
        if window_start % MS_PER_MINUTE:
            raise ValueError("window_start must be minute-aligned")
        self.hub_id = hub_id
        self.window_start = window_start
        self.sequence_number = 0
        self._series: list[ReadingSeries] = []
        self._frames: list[FrameBlock] = []

    def _buffer(self, item: ReadingSeries | FrameBlock, into: list) -> None:
        """Keep an item for flushing, stably sorted by timestamp."""
        ts = item.timestamps
        if len(ts) and (first := int(ts.min())) < self.window_start:
            raise StalenessError(
                f"sample of {item.sensor_id} at {first} predates open window "
                f"starting {self.window_start}"
            )
        if len(ts) > 1 and np.count_nonzero(ts[1:] < ts[:-1]):
            item = item[np.argsort(ts, kind="stable")]
        into.append(item)

    def add_series(self, series: ReadingSeries) -> None:
        self._buffer(series, self._series)

    def add_frames(self, block: FrameBlock) -> None:
        self._buffer(block, self._frames)

    def flush(self, boundary: int) -> list[HubPacket]:
        """Close out every whole minute before `boundary` (minute-aligned)."""
        if boundary % MS_PER_MINUTE:
            raise ValueError("flush boundary must be minute-aligned")
        if boundary <= self.window_start:
            return []
        edges = np.arange(self.window_start, boundary + 1, MS_PER_MINUTE)
        minutes = len(edges) - 1
        readings: list[list[ReadingSeries]] = [[] for _ in range(minutes)]
        frames: list[list[FrameBlock]] = [[] for _ in range(minutes)]
        for buffered, per_minute in ((self._series, readings), (self._frames, frames)):
            remainder = []
            for item in buffered:
                cuts = np.searchsorted(item.timestamps, edges, side="left").tolist()
                for m in range(minutes):
                    if cuts[m + 1] > cuts[m]:
                        per_minute[m].append(item[cuts[m] : cuts[m + 1]])
                if cuts[-1] < len(item):
                    remainder.append(item[cuts[-1] :])
            buffered[:] = remainder
        packets = []
        for m in range(minutes):
            start = int(edges[m])
            packets.append(
                HubPacket(
                    self.hub_id,
                    self.sequence_number,
                    start,
                    start + MS_PER_MINUTE,
                    readings[m],
                    frames[m],
                )
            )
            self.sequence_number += 1
        self.window_start = boundary
        return packets

    def flush_all(self, last_ts: int) -> list[HubPacket]:
        """Flush through the minute containing `last_ts`."""
        return self.flush(floor_minute(last_ts) + MS_PER_MINUTE)
