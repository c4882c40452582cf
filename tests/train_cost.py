#!/usr/bin/env python3
"""Print where one `train_posture` operation spends its time, per kernel.

    PYTHONPATH=src python tests/train_cost.py [reps]

One operation is the benchmark's fixed-budget training at 4x4 and 32x32
(`perfbench/hbench/training.py`: same data, seed and budget).  The training
modules are wrapped with timers that charge each call its own time, less
the time of wrapped calls inside it, so a conv's input gradient is the
conv backward less its parameter gradient.  The median over `reps`
operations (default 5) is printed per kernel, in seconds per operation.
The benchmark's traced run charges all of backward to one layer; this
splits it.  On a tree whose conv has no `param_grads`, the input-gradient
row holds the whole conv backward.  Nothing gates these figures; the
wrappers add a few microseconds per call.

One more operation then runs under `tracemalloc` (untimed, since tracing
slows every allocation) and prints each kernel's traced peak: the most
memory its calls held above what was held when they started, their inner
kernels' included.  The last row is the peak of the whole operation.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import hometwin.posture.net as net

ptrain = importlib.import_module("hometwin.posture.train")  # the package's `train` is the function

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from hbench import training  # noqa: E402

KERNELS = (
    ("conv forward", net._Conv, "forward"),
    ("conv backward, param gradient", net._Conv, "param_grads"),
    ("conv backward, input gradient", net._Conv, "backward"),
    ("pool forward", net._MaxPool2, "forward"),
    ("pool backward", net._MaxPool2, "backward"),
    ("bn forward", net._BatchNorm, "forward"),
    ("bn backward", net._BatchNorm, "backward"),
    ("adam", ptrain.Adam, "step"),
    ("eval", net.PostureNet, "predict_proba"),
)
SEED = 10301


def install(spent: dict[str, float], peaks: dict[str, int]) -> None:
    """Wrap every kernel so that `spent` collects its self time and, while
    tracemalloc traces, `peaks` its traced peak in bytes."""
    children = [0.0]  # time of wrapped calls inside the current one
    held = [0]  # peak of each open call so far, as the tracer is reset per call

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            outer, children[0] = children[0], 0.0
            tracing = tracemalloc.is_tracing()
            if tracing:
                start, peak = tracemalloc.get_traced_memory()
                held[-1] = max(held[-1], peak)
                held.append(start)
                tracemalloc.reset_peak()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                spent[name] += dt - children[0]
                children[0] = outer + dt
                if tracing:
                    mine = max(held.pop(), tracemalloc.get_traced_memory()[1])
                    peaks[name] = max(peaks[name], mine - start)
                    held[-1] = max(held[-1], mine)

        return wrapper

    for name, owner, attr in KERNELS:
        if hasattr(owner, attr):  # an older tree has no param_grads
            setattr(owner, attr, timed(name, getattr(owner, attr)))


def main() -> int:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    inp = training.setup(SEED)
    training.train_once(inp)  # warm-up, untimed
    spent: dict[str, float] = defaultdict(float)
    peaks: dict[str, int] = defaultdict(int)
    install(spent, peaks)
    per_op: dict[str, list[float]] = defaultdict(list)
    for _ in range(reps):
        spent.clear()
        t0 = time.perf_counter()
        training.train_once(inp)
        total = time.perf_counter() - t0
        for name, owner, attr in KERNELS:
            if hasattr(owner, attr):
                per_op[name].append(spent[name])
        per_op["other (data picks, loss, relu, dropout, dense, loop)"].append(total - sum(spent.values()))
        per_op["whole operation"].append(total)
    print(f"train_posture budget {training.BUDGET}, seed {SEED}, median of {reps} operations:")
    for name, values in per_op.items():
        print(f"  {name:52s} {statistics.median(values):8.4f} s")

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        training.train_once(inp)
        whole = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    print("traced peak of one operation, above what its start held:")
    for name, _, _ in KERNELS:
        if name in peaks:
            print(f"  {name:52s} {peaks[name] / 1e6:8.2f} MB")
    print(f"  {'whole operation':52s} {whole / 1e6:8.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
