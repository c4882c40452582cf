"""The closed loop shared by the batch workloads."""

from __future__ import annotations

import time

MIN_OPS = 3  # untraced operations that every run measures at least


def closed_loop(op, seconds: float, tracer=None):
    """Run `op()` back to back for `seconds`, yielding (result, traced, s).

    With a tracer, once MIN_OPS untraced operations have run, every other
    one runs traced, so the machine's drift in speed falls on both kinds
    alike; the loop ends after the deadline with at least MIN_OPS untraced
    and, if tracing, one traced run.
    """
    deadline = time.perf_counter() + seconds
    untraced = traced = 0
    while True:
        if time.perf_counter() >= deadline and untraced >= MIN_OPS and (tracer is None or traced):
            return
        if tracer is not None and untraced >= MIN_OPS and traced < untraced - MIN_OPS + 1:
            tracer.install()
            tracer.phase = "op"
            t0 = time.perf_counter()
            with tracer.operation():
                out = op()
            dt = time.perf_counter() - t0
            tracer.uninstall()
            traced += 1
            yield out, True, dt
        else:
            t0 = time.perf_counter()
            out = op()
            dt = time.perf_counter() - t0
            untraced += 1
            yield out, False, dt
