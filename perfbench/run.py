#!/usr/bin/env python3
"""hometwin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]     # every workload

Run from the root of a source checkout; the package is imported from its
`src/` directory.  One workload runs in this process and ends with one JSON
line: end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Without --workload, every workload runs in its own child process, untraced
and then traced, and a summary follows.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_THREADS = 1  # fixed, and never above nproc, so every commit runs alike

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("mixed_day_32x32", "fleet_ingest", "train_posture")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _check_sources() -> None:
    if not (SRC / "hometwin" / "__init__.py").is_file():
        raise SystemExit(f"error: no hometwin sources under {SRC}; run from a source checkout")


def _import_package() -> None:
    _check_sources()
    sys.path.insert(0, str(SRC))
    import hometwin

    if Path(hometwin.__file__).resolve().parent != SRC / "hometwin":
        raise SystemExit(f"error: imported hometwin from {hometwin.__file__}, not {SRC}")


def _print_trace(name: str, result: dict) -> None:
    from hbench.spans import LAYERS

    for phase, info in result["layers"].items():
        unit = "set-up" if phase == "setup" else "operation"
        print(f"  {phase}: {info['wall_s_per_unit']:.4f} s wall per {unit}")
        rows = info["rows"]
        total_self = 0.0
        for layer in LAYERS:
            if layer in rows:
                row = rows[layer]
                total_self += row["self"]
                share = 100.0 * row["self"] / info["wall_s_per_unit"]
                print(f"    {layer:26s} busy {row['busy']:.4f} s  self {row['self']:.4f} s  ({share:5.1f}% of wall)")
        print(f"    self times sum to {total_self:.4f} s = "
              f"{100.0 * total_self / info['wall_s_per_unit']:.1f}% of wall")
    path = OUT_DIR / f"spans-{name}.csv"
    result["tracer"].write(path)
    print(f"  spans written to {path.relative_to(ROOT)}")


def run_one(args) -> int:
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hbench import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("dimensions " + json.dumps(result["dimensions"], sort_keys=True))
    print("setup_s samples " + " ".join(f"{v:.4f}" for v in result["setup_samples"]))
    print("figures " + json.dumps(result["figures"], sort_keys=True))
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"][:20]:
        print(f"  FAIL {failure}")
    if args.trace:
        _print_trace(args.workload, result)
    for key, metric in result["metrics"].items():
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is per workload."""
    _check_sources()
    summary = []
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            summary.append((name, trace, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("\nsummary")
    for name, trace, line in summary:
        print(f"{name} trace={trace} correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        if not trace:
            for key, metric in line["metrics"].items():
                print(f"  {key:20s} {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # before numpy loads, here and in the child processes that inherit it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
