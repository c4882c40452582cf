#!/usr/bin/env python3
"""Print what a dirty trailing-hour store read costs as the history grows,
and what the day workload's first read costs.

    PYTHONPATH=src python tests/store_read_cost.py

A store first holds 10 min, 2 h or 4 h of one-minute packets, each with
240 frames of one 4x4 thermal sensor and 12 readings of one scalar sensor,
and is read once.  Then, READS times, one more packet is appended and the
trailing hour of both sensors is read and timed, so every timed read finds
both sensors dirty.  The median of those reads is printed per history.

Then the first read of a store filled with the 40 minutes of `mixed_day`
that `perfbench/hbench/day.py` reports on, the dashboard read of that
workload, is timed on the same packets decoded two ways:
`decode_packet_stream` (the thermal columns adopt the decoded pixels) and
`decode_packet` one packet at a time (they copy them).  The median of
FIRST_READS fresh stores is printed for each.

Nothing gates these figures; they are an informal measurement of the read
path, not a benchmark metric.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

import numpy as np

from hometwin.core import FRAME_PERIOD_MS, MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind
from hometwin.ingestion import wire
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore
from hometwin.simulate.scripts import mixed_day

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench import day, inputs  # noqa: E402

HISTORIES_MIN = (10, 120, 240)
READS = 61
FIRST_READS = 9
DAY_SEED = 3001
THERMAL = "kitchen/C0/thermal"
SCALAR = "kitchen/A0/temperature"


def minute_packet(minute: int, rng: np.random.Generator) -> HubPacket:
    start = minute * MS_PER_MINUTE
    frame_ts = start + np.arange(0, MS_PER_MINUTE, FRAME_PERIOD_MS, dtype=np.int64)
    pixels = rng.integers(2000, 3500, size=(len(frame_ts), 4, 4)).astype(np.int16)
    env_ts = start + np.arange(0, MS_PER_MINUTE, 5000, dtype=np.int64)
    values = np.round(rng.uniform(18.0, 24.0, size=len(env_ts)) * 100.0) / 100.0
    return HubPacket(
        "hub0",
        minute,
        start,
        start + MS_PER_MINUTE,
        [ReadingSeries(SCALAR, SensorKind.TEMP_HUMIDITY, env_ts, values)],
        [FrameBlock(THERMAL, 4, frame_ts, pixels)],
    )


def dirty_read_ms(history_min: int) -> float:
    rng = np.random.default_rng(history_min)
    packets = [minute_packet(m, rng) for m in range(history_min + READS)]
    store = RecordStore()
    for packet in packets[:history_min]:
        store.append(packet)
    store.query_frames(THERMAL, 0, 1)
    store.query_readings(SCALAR, 0, 1)
    times = []
    for packet in packets[history_min:]:
        store.append(packet)
        t1 = packet.window_end
        t0 = t1 - 60 * MS_PER_MINUTE
        start = time.perf_counter()
        store.query_frames(THERMAL, t0, t1)
        store.query_readings(SCALAR, t0, t1)
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def first_read_ms(layout, packets: list[HubPacket], adopts: bool) -> float:
    """Median milliseconds of the day workload's first dashboard read over
    FIRST_READS stores filled with the packets; whether the finest thermal
    sensor's column is the packets' own pixel memory is checked first."""
    end = max(p.window_end for p in packets)
    times = []
    for _ in range(FIRST_READS):
        store = RecordStore()
        for packet in packets:
            store.append(packet)
        start = time.perf_counter()
        day.dashboard_query(layout, store, end)
        times.append(time.perf_counter() - start)
    thermal = max(layout.thermal_sensors(), key=lambda s: s.kind.resolution).sensor_id
    block = next(b for p in packets for b in p.frames if b.sensor_id == thermal)
    assert np.shares_memory(store._frames[thermal].data, block.pixels_centi) == adopts
    return 1000.0 * statistics.median(times)


def main() -> int:
    for history_min in HISTORIES_MIN:
        print(f"history {history_min:4d} min: median dirty trailing-hour read "
              f"{dirty_read_ms(history_min):.3f} ms over {READS} reads")
    layout, script = mixed_day()
    blobs, _, _ = inputs.home_wire(layout, inputs.window(script, *day.WINDOW_MIN), DAY_SEED)
    for name, packets, adopts in (
        ("stream-decoded, adopted", wire.decode_packet_stream(b"".join(blobs)), True),
        ("per-packet decoded, copied", [wire.decode_packet(b) for b in blobs], False),
    ):
        print(f"day window first read, {name:26s} {first_read_ms(layout, packets, adopts):.3f} ms"
              f" median of {FIRST_READS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
