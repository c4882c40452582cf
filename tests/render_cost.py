#!/usr/bin/env python3
"""Print where each workload's set-up spends its render time, per kernel.

    PYTHONPATH=src python tests/render_cost.py [reps]

One set-up is a workload's `setup(seed)` from `perfbench/hbench` (same
inputs as the benchmark).  The render kernels are wrapped with timers that
charge each call its own time, less the time of wrapped calls inside it, so
`render_window` is the window's own work without its blob and fidget calls.
The median over `reps` set-ups (default 3) is printed per kernel, in seconds
per set-up, with the megabytes the kernel's arrays move and the rate that
gives.  Moved bytes are counted from each call's sizes:

- blobs: the [n, r, r] float64 frames a blob is added into, read and
  written once (16 B per pixel);
- fidget: the random(n), normal((n, 2)) and normal(n) draws and the n
  offsets and flicker factors (56 B per frame);
- noise/clip/quantize: the noise written and the float64 pixels read and
  written by the add and the clip (24 B per pixel), then the float64
  pixels read and the int16 pixels written by `quantize_pixels` (10 B);
- render_window: the float64 window written and read once (16 B per pixel).

On a tree without `add_blobs` or `_finish_block` the rows hold
`blob_images` and `quantize_pixels` alone: there the noise and the clip are
inline in `_render_sensor` and go uncounted.  Nothing gates these figures;
the wrappers add a few microseconds per call.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import hometwin.posture.data as pdata
import hometwin.simulate.engine as engine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench import day, fleet, training  # noqa: E402

WORKLOADS = {"mixed_day_32x32": day, "fleet_ingest": fleet, "train_posture": training}
SEED = 4001


def _added(args, kwargs) -> int:  # add_blobs(out, ...)
    return 16 * args[0].size


def _returned(args, kwargs) -> int:  # blob_images(xs, ys, cx, ...)
    return 16 * len(args[2]) * args[0].size


# row -> [(module, attribute, bytes moved by one call, from its arguments)]
KERNELS = {
    "blobs": [
        (engine, "add_blobs", _added),
        (pdata, "add_blobs", _added),
        (engine, "blob_images", _returned),
        (pdata, "blob_images", _returned),
    ],
    "fidget": [(module, "fidget_offsets", lambda a, k: 56 * a[1]) for module in (engine, pdata)],
    "noise/clip/quantize": [
        (engine, "_finish_block", lambda a, k: 24 * a[0].size),
        (engine, "quantize_pixels", lambda a, k: 10 * a[0].size),
    ],
    "render_window": [(pdata, "render_window", lambda a, k: 16 * 20 * a[1] * a[1])],
}


def install(spent: dict[str, float], moved: dict[str, float]) -> None:
    """Wrap every kernel so that `spent` collects its self time and `moved`
    its bytes."""
    children = [0.0]  # time of wrapped calls inside the current one

    def timed(row, fn, size):
        def wrapper(*args, **kwargs):
            outer, children[0] = children[0], 0.0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                spent[row] += dt - children[0]
                moved[row] += size(args, kwargs)
                children[0] = outer + dt

        return wrapper

    for row, targets in KERNELS.items():
        for module, name, size in targets:
            if hasattr(module, name):  # the kernel this tree has
                setattr(module, name, timed(row, getattr(module, name), size))


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    spent: dict[str, float] = defaultdict(float)
    moved: dict[str, float] = defaultdict(float)
    install(spent, moved)
    print(f"render cost per set-up, seed {SEED}, median of {reps} set-ups:")
    for name, workload in WORKLOADS.items():
        seconds: dict[str, list[float]] = defaultdict(list)
        megabytes: dict[str, list[float]] = defaultdict(list)
        for _ in range(reps):
            spent.clear()
            moved.clear()
            t0 = time.perf_counter()
            workload.setup(SEED)
            total = time.perf_counter() - t0
            for row in KERNELS:
                seconds[row].append(spent[row])
                megabytes[row].append(moved[row] / 1e6)
            seconds["whole set-up"].append(total)
        print(f"  {name}")
        for row, values in seconds.items():
            s = statistics.median(values)
            line = f"    {row:22s} {s:8.4f} s"
            if row in megabytes:
                mb = statistics.median(megabytes[row])
                rate = mb / 1e3 / s if s > 0 else 0.0
                line += f" {mb:10.1f} MB {rate:7.2f} GB/s"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
