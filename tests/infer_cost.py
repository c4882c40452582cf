#!/usr/bin/env python3
"""Print where posture inference spends its time, per layer, serial and on
two threads, and what streaming saves on the 32x32 sensor's stage.

    PYTHONPATH=src python tests/infer_cost.py [reps]

BLAS is pinned to one thread before numpy loads, as `perfbench/run.py`
pins it, so `PostureNet._infer` shares its blocks between the caller and
the helper thread on a machine with two usable cores.  The input is 480
simulated windows per resolution (one `mixed_day_32x32` report classifies
480 windows per room), run as the pipeline runs them: one call of 256
windows and one of 224.  The weights are a fresh net's; they do not change
the work.

Per resolution it prints the median over `reps` rounds (default 5) of:

- the whole calls' wall time, serial (the block loop on the caller alone)
  and on two threads (`PostureNet._infer` as the pipeline calls it);
- each folded layer's busy time, from a copy of the block loop with a timer
  around each layer, its blocks claimed in order by the caller and a
  second thread as `_infer` claims them, summed over the threads.  A conv
  is shown as its im2col copy and its GEMM (with the bias add), beside the
  conv's computed GFLOP and MB moved from
  `perfbench/hbench/kernels.forward_cost` (a batch norm folded into a conv
  counts with it) and the serial GFLOP/s (of the GEMM alone for a conv).

Then the median wall time of the 32x32 sensor's whole pipeline stage
(`pipeline._process_thermal_sensor`: tracker, motion index, blob count and
inference) on the `mixed_day_32x32` day window, serial (the helper off)
against streamed (the helper runs inference blocks while the tracker runs).

Nothing gates these figures.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads

import dataclasses  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hometwin.pipeline as pipeline  # noqa: E402
import hometwin.posture.net as net  # noqa: E402
from hometwin.posture.data import generate_posture_dataset  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench.kernels import forward_cost  # noqa: E402

BATCHES = (256, 224)


def layer_names(config) -> list[str]:
    """A name per folded layer, in `PostureNet._folded_layers` order."""
    names, count = [], defaultdict(int)
    for spec in config.layers:
        if spec.kind == "bn" and names and names[-1].startswith(("conv", "fc")):
            continue  # folded into the layer before it
        if spec.kind == "dropout":
            continue
        kind = "affine" if spec.kind == "bn" else spec.kind
        count[kind] += 1
        names.append(f"{kind}{count[kind]}")
    return names


def layer_costs(config, n: int) -> dict[str, tuple[float, float]]:
    """(GFLOP, MB) per folded layer for a batch of n, by forward_cost of
    each prefix of the layer list less that of the prefix before it."""
    names, costs = iter(layer_names(config)), {}
    before, name = (0.0, 0.0), None
    for i, spec in enumerate(config.layers):
        prefix = dataclasses.replace(config, layers=config.layers[: i + 1])
        flops, nbytes = forward_cost(prefix, n)
        step = (flops - before[0]) / 1e9, (nbytes - before[1]) / 1e6
        before = (flops, nbytes)
        if spec.kind == "dropout":
            continue
        if not (spec.kind == "bn" and name and name.startswith(("conv", "fc"))):
            name = next(names)
        g, m = costs.get(name, (0.0, 0.0))
        costs[name] = (g + step[0], m + step[1])
    return costs


def timed_blocks(layers, names, x, out, lo, hi, rows, spent) -> None:
    """`net._infer_block` over the blocks of `rows` windows of lo:hi, with a
    timer around each layer (and around a conv's im2col and GEMM apart)
    adding into `spent`."""
    clock = time.perf_counter
    for start in range(lo, hi, rows):
        h = x[start : min(start + rows, hi)]
        owned = False
        for name, (kind, *p) in zip(names, layers):
            t0 = clock()
            if kind == "conv":
                w, b, k, pad = p
                cols, (ho, wo) = net._im2col(h, k, pad)
                t1 = clock()
                spent[f"{name} im2col"] += t1 - t0
                h = np.matmul(w, cols)
                h += b[:, None]
                h = h.reshape(h.shape[0], -1, ho, wo)
                spent[f"{name} GEMM"] += clock() - t1
                continue
            if kind == "fc":
                w, b = p
                h = h @ w.T
                h += b
            elif kind == "affine":
                shape = (1, -1, 1, 1) if h.ndim == 4 else (1, -1)
                h = h * p[0].reshape(shape) + p[1].reshape(shape)
            elif kind == "relu":
                h = np.maximum(h, 0, out=h if owned else None)
            elif kind == "pool":
                he, we = h.shape[2] // 2 * 2, h.shape[3] // 2 * 2
                top = np.maximum(h[:, :, 0:he:2, 0:we:2], h[:, :, 0:he:2, 1:we:2])
                h = np.maximum(h[:, :, 1:he:2, 0:we:2], h[:, :, 1:he:2, 1:we:2])
                np.maximum(h, top, out=h)
            else:
                h = h.reshape(h.shape[0], -1)
            owned = kind != "flatten" or owned
            spent[name] += clock() - t0
        out[start : start + len(h)] = h


def per_layer(model, x, two_threads: bool) -> dict[str, float]:
    """Busy seconds per layer of one call, its blocks claimed in order from
    one counter by the caller and, with `two_threads`, a second thread."""
    layers, names = model._folded_layers(), layer_names(model.config)
    n, rows = len(x), model._block_rows
    out = np.empty((n,) + model._out_shape, dtype=model.dtype)
    starts, lock = iter(range(0, n, rows)), threading.Lock()

    def claim_blocks(spent) -> None:
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            timed_blocks(layers, names, x, out, start, min(start + rows, n), rows, spent)

    mine, theirs = defaultdict(float), defaultdict(float)
    helper = threading.Thread(target=claim_blocks, args=(theirs,))
    if two_threads:
        helper.start()
    claim_blocks(mine)
    if two_threads:
        helper.join()
    return {k: mine[k] + theirs[k] for k in mine.keys() | theirs.keys()}


def sensor_stage(reps: int) -> dict[str, float]:
    """Median seconds of the 32x32 sensor's pipeline stage on the
    `mixed_day_32x32` day window, serial and streamed."""
    from hbench import day

    inp = day.setup(1)
    rep = day.report(inp)  # a filled store
    source = pipeline.StreamSource(inp.layout, store=rep.store, start=rep.start, end=rep.end)
    sensor = max(inp.layout.thermal_sensors(), key=lambda s: s.kind.resolution).sensor_id
    usable = net._usable_cores
    wall = defaultdict(list)
    for _ in range(reps + 1):  # the first round warms up and is dropped
        for mode in ("serial", "streamed"):
            net._usable_cores = usable if mode == "streamed" else (lambda: 1)
            try:
                t0 = time.perf_counter()
                pipeline._process_thermal_sensor(source, sensor, inp.models[32], day.CONFIG)
                wall[mode].append(time.perf_counter() - t0)
            finally:
                net._usable_cores = usable
    return {mode: statistics.median(v[1:]) for mode, v in wall.items()}


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    cores = len(os.sched_getaffinity(0))
    print(f"one BLAS thread, {cores} usable cores; batches {BATCHES}; median of {reps} rounds")
    for resolution in (32, 4):
        model = net.PostureNet(net.config_for_resolution(resolution), seed=0)
        x, _ = generate_posture_dataset(resolution, sum(BATCHES) // 5)
        calls = [x[lo : lo + b] for lo, b in zip((0, BATCHES[0]), BATCHES)]
        layers = model._folded_layers()
        wall, busy = defaultdict(list), {"serial": defaultdict(list), "two": defaultdict(list)}
        for _ in range(reps + 1):  # the first round warms up and is dropped
            for mode in ("serial", "two"):
                t0 = time.perf_counter()
                for xs in calls:
                    if mode == "two":
                        model._infer(xs)
                    else:
                        for lo in range(0, len(xs), model._block_rows):
                            net._infer_block(layers, xs[lo : lo + model._block_rows])
                wall[mode].append(time.perf_counter() - t0)
                spent = defaultdict(float)
                for xs in calls:
                    for name, s in per_layer(model, xs, mode == "two").items():
                        spent[name] += s
                for name, s in spent.items():
                    busy[mode][name].append(s)
        costs = defaultdict(lambda: (0.0, 0.0))
        for xs in calls:
            for name, (g, m) in layer_costs(model.config, len(xs)).items():
                costs[name] = (costs[name][0] + g, costs[name][1] + m)
        ms = {mode: {k: 1e3 * statistics.median(v[1:]) for k, v in d.items()}
              for mode, d in busy.items()}
        print(f"\n{resolution}x{resolution}, {len(x)} windows, "
              f"{model._block_rows} windows per block")
        print(f"  {'':24s} {'serial ms':>10s} {'2-thread ms':>11s}"
              f" {'GFLOP':>8s} {'MB':>8s} {'GFLOP/s':>8s}")
        print(f"  {'whole calls (wall)':24s} {1e3 * statistics.median(wall['serial'][1:]):10.1f}"
              f" {1e3 * statistics.median(wall['two'][1:]):11.1f}")
        for name in layer_names(model.config):
            parts = [f"{name} im2col", f"{name} GEMM"] if name.startswith("conv") else [name]
            if len(parts) > 1:
                for part in parts:
                    print(f"  {part:24s} {ms['serial'][part]:10.2f} {ms['two'][part]:11.2f}")
            g, m = costs[name]
            serial_ms = sum(ms["serial"][p] for p in parts)
            compute_ms = ms["serial"][parts[-1]]  # a conv's flops are its GEMM's
            rate = g / (compute_ms / 1e3) if compute_ms else 0.0
            label = f"{name} total" if len(parts) > 1 else name
            print(f"  {label:24s} {serial_ms:10.2f} {sum(ms['two'][p] for p in parts):11.2f}"
                  f" {g:8.3f} {m:8.1f} {rate:8.1f}")
        print(f"  {'layers (busy, summed)':24s} {sum(ms['serial'].values()):10.1f}"
              f" {sum(ms['two'].values()):11.1f}")
    stage = sensor_stage(reps)
    print("\n32x32 sensor stage: tracker, motion index, blob count, 480-window inference")
    print(f"  {'':24s} {'serial ms':>10s} {'streamed ms':>11s}")
    print(f"  {'whole stage (wall)':24s} {1e3 * stage['serial']:10.1f} {1e3 * stage['streamed']:11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
