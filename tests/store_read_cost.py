#!/usr/bin/env python3
"""Print what a dirty trailing-hour store read costs as the history grows.

    PYTHONPATH=src python tests/store_read_cost.py

A store first holds 10 min, 2 h or 4 h of one-minute packets, each with
240 frames of one 4x4 thermal sensor and 12 readings of one scalar sensor,
and is read once.  Then, READS times, one more packet is appended and the
trailing hour of both sensors is read and timed, so every timed read finds
both sensors dirty.  The median of those reads is printed per history.
Nothing gates these figures; they are an informal measurement of the read
path, not a benchmark metric.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from hometwin.core import FRAME_PERIOD_MS, MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore

HISTORIES_MIN = (10, 120, 240)
READS = 61
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


def main() -> int:
    for history_min in HISTORIES_MIN:
        print(f"history {history_min:4d} min: median dirty trailing-hour read "
              f"{dirty_read_ms(history_min):.3f} ms over {READS} reads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
