#!/usr/bin/env python3
"""Print where the baseline tracker spends its time, per phase, for each
thermal block of the day workload.

    PYTHONPATH=src python tests/tracker_cost.py [reps]

The blocks are the four thermal sensors of the day workload's window of
mixed_day (19:40-20:20, `perfbench/hbench/day.py`), simulated with seed SEED,
each with the thermometer series the pipeline gives its tracker.  For each
block the tool times `BaselineTracker.process` whole, then replays each
phase over the block in the tracker's slab and chunk structure, with its own
helpers where it has them.  The median over `reps` runs (default 5) is
printed per phase, in seconds, with the megabytes the phase moves and the
rate that gives.  Moved bytes are counted per pixel of the frames a phase
touches:

- cast: int16 read, float64 written (10 B), `_celsius64` per slab;
- seam diff: two float64 frames read and their difference written, its
  abs in place, and the row sums (48 B), `_diff_means` per slab;
- residual: frames read, less each chunk's level, written (16 B);
- clamp and store: the float64 residual read and the float32 output written
  (12 B), into a fresh array as `process` does, so its page faults count;
- gate: each chunk's trailing-minute motion index, then for the chunks that
  are not moving the per-pixel peak (8 B);
- update: on absorbed chunks, the chunk sum and the baseline update (8 B);
- calibration: per calibration, the int16 ring cast and its mean and var
  (26 B per ring pixel).

"rest" is `process` less the phases: per-chunk Python, the thermometer means,
the warm-up and the ring copies.  Nothing gates these figures.
"""

from __future__ import annotations

import copy
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import hometwin.thermal as thermal
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE
from hometwin.pipeline import StreamSource, _ambient_lookup
from hometwin.ingestion.store import RecordStore
from hometwin.simulate import simulate
from hometwin.simulate.scripts import mixed_day

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench import day, inputs  # noqa: E402

SEED = 3001
CONFIG = PipelineConfig()
PHASES = ("cast", "seam diff", "residual", "clamp and store", "gate", "update", "calibration")


def day_blocks():
    """(sensor id, frame block, thermometer series) per thermal sensor."""
    layout, script = mixed_day()
    bundle = simulate(layout, inputs.window(script, *day.WINDOW_MIN), SEED)
    store = RecordStore()
    for packet in bundle.to_packets():
        store.append(packet)
    source = StreamSource(layout, store=store, start=bundle.start, end=bundle.end)
    for spec in layout.thermal_sensors():
        (block,) = source.frame_blocks(spec.sensor_id)
        yield spec.sensor_id, block, _ambient_lookup(source, spec.room_id)


def tracked(block, ambient):
    """One real run: (seconds, the tracker after it, absorbed chunks)."""
    absorbed = [0]
    update = thermal.PixelBaseline.update

    def counted(baseline, *args):
        absorbed[0] += 1
        return update(baseline, *args)

    tracker = thermal.BaselineTracker(block.resolution, CONFIG)
    if ambient is not None:
        tracker.set_ambient_series(ambient.timestamps, ambient.values)
    thermal.PixelBaseline.update = counted
    try:
        t0 = time.perf_counter()
        tracker.process(block.timestamps, block.pixels_centi)
        seconds = time.perf_counter() - t0
    finally:
        thermal.PixelBaseline.update = update
    return seconds, tracker, absorbed[0]


def replay(block, tracker, absorbed: int) -> tuple[dict, dict]:
    """Seconds and bytes of each phase, replayed over the block past warm-up."""
    spent: dict[str, float] = defaultdict(float)
    moved: dict[str, float] = defaultdict(float)
    chunk, res = tracker.CHUNK, block.resolution
    pixels = block.pixels_centi[CONFIG.warmup_frames :]
    ends = block.timestamps[CONFIG.warmup_frames :]
    n, px = len(pixels), res * res
    chunks = -(-n // chunk)
    per_slab = max(1, thermal.TRACKER_SLAB_BYTES // (2 * chunk * px * 8))
    cast = np.empty((min(per_slab * chunk, n), res, res))
    scratch = np.empty_like(cast)
    means = np.empty(chunks)
    levels = np.broadcast_to(tracker.baseline.mean, (per_slab, res, res)).copy()
    out = np.zeros((n, res, res), dtype=np.float32)
    prev = None
    baseline = copy.deepcopy(tracker.baseline)
    left, ts_end = 0, ends[np.minimum(np.arange(chunk, n + chunk, chunk), n) - 1].tolist()
    updates = 0

    def clock(phase, nbytes, fn, *args):
        t0 = time.perf_counter()
        value = fn(*args)
        spent[phase] += time.perf_counter() - t0
        moved[phase] += nbytes
        return value

    for c0 in range(0, chunks, per_slab):
        c1 = min(c0 + per_slab, chunks)
        lo, hi = c0 * chunk, min(c1 * chunk, n)
        m = hi - lo
        frames = clock("cast", 10 * m * px, thermal._celsius64, pixels[lo:hi], cast[:m])
        diff_means = thermal._diff_means
        clock("seam diff", 48 * m * px, diff_means, frames, prev, chunk, scratch, means[c0:c1])
        prev = frames[-1].copy()
        for j in range(c0, c1):
            a, b = j * chunk - lo, min((j + 1) * chunk, n) - lo
            t0 = time.perf_counter()
            while ts_end[left] < ts_end[j] - MS_PER_MINUTE:
                left += 1
            idle = float(np.add.reduce(means[left : j + 1])) / (j + 1 - left) < CONFIG.theta_idle
            if idle:
                peak = np.maximum.reduce(frames[a:b], axis=0)
                float(np.maximum.reduce(np.subtract(peak, levels[0]), axis=None))
                moved["gate"] += 8 * (b - a) * px
            spent["gate"] += time.perf_counter() - t0
            if updates < absorbed:
                t0 = time.perf_counter()
                baseline.update(np.add.reduce(frames[a:b], axis=0) / (b - a), 0.01)
                spent["update"] += time.perf_counter() - t0
                moved["update"] += 8 * (b - a) * px
                updates += 1
        whole = m // chunk * chunk
        runs = (whole // chunk, chunk, res, res)
        t0 = time.perf_counter()
        np.subtract(
            frames[:whole].reshape(runs), levels[: whole // chunk, None],
            out=scratch[:whole].reshape(runs),
        )
        if whole < m:
            np.subtract(frames[whole:], levels[0], out=scratch[whole:m])
        spent["residual"] += time.perf_counter() - t0
        moved["residual"] += 16 * m * px
        clock("clamp and store", 12 * m * px, lambda: np.maximum(scratch[:m], 0.0, out=out[lo:hi]))

    ring = block.pixels_centi[: tracker.RING_FRAMES]
    for _ in tracker.calibration_events:
        t0 = time.perf_counter()
        thermal.apply_calibration(
            copy.deepcopy(baseline), thermal._celsius64(ring, np.empty(ring.shape)),
            baseline.reference_ambient, ts_end[-1], CONFIG.warmup_frames,
        )
        spent["calibration"] += time.perf_counter() - t0
        moved["calibration"] += 26 * ring.size
    return spent, moved


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    print(f"tracker cost per block, day workload seed {SEED}, median of {reps} runs:")
    total = []
    for sensor_id, block, ambient in day_blocks():
        seconds: dict[str, list[float]] = defaultdict(list)
        megabytes: dict[str, list[float]] = defaultdict(list)
        for _ in range(reps):
            whole, tracker, absorbed = tracked(block, ambient)
            spent, moved = replay(block, tracker, absorbed)
            seconds["process (measured)"].append(whole)
            for phase in PHASES:
                seconds[phase].append(spent[phase])
                megabytes[phase].append(moved[phase] / 1e6)
            seconds["rest"].append(whole - sum(spent.values()))
        chunks = -(-(len(block) - CONFIG.warmup_frames) // tracker.CHUNK)
        print(
            f"  {sensor_id} ({block.resolution}x{block.resolution}, {len(block)} frames, "
            f"{chunks} chunks, {absorbed} absorbed, {len(tracker.calibration_events)} calibrations)"
        )
        for row in ("process (measured)", *PHASES, "rest"):
            s = statistics.median(seconds[row])
            line = f"    {row:20s} {s:8.4f} s"
            if row in megabytes:
                mb = statistics.median(megabytes[row])
                rate = mb / 1e3 / s if s > 0 else 0.0
                line += f" {mb:9.1f} MB {rate:7.2f} GB/s"
            print(line)
        total.append(statistics.median(seconds["process (measured)"]))
    print(f"  all blocks: {sum(total):.4f} s per report")
    return 0


if __name__ == "__main__":
    sys.exit(main())
