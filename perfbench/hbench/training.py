"""train_posture: fixed-budget posture training at both resolutions.

One operation trains a 4x4 and a 32x32 classifier from the same rendered
dataset with a fixed seed and iteration budget -- small train batches with
forward, backward, train-mode batch norm, dropout and Adam.  After each
operation the fresh 32x32 model classifies one batch of windows, the read
that a trained model serves.
"""

from __future__ import annotations

import importlib
import math
import time
from dataclasses import dataclass

import numpy as np

import hometwin.posture.data as pdata
from hometwin.posture.net import config_for_resolution

from .loop import closed_loop
from .stats import median, timing_summary

ptrain = importlib.import_module("hometwin.posture.train")

TRAIN_SEED = 11
# resolution -> (windows per class, iterations, batch size, validation interval)
BUDGET = {4: (200, 60, 64, 30), 32: (100, 16, 16, 16)}
QUERY_BATCH = 64
QUERIES_PER_OP = 5


@dataclass
class TrainInputs:
    data: dict  # resolution -> (x, y)


def dimensions() -> dict:
    return {
        "budget": {r: dict(zip(("windows_per_class", "iterations", "batch", "val_every"), b))
                   for r, b in BUDGET.items()},
        "train_seed": TRAIN_SEED,
        "query_batch": QUERY_BATCH,
    }


def setup(seed: int) -> TrainInputs:
    seeds = tuple(seed * 10 + k for k in range(4))
    return TrainInputs(
        {r: pdata.generate_posture_dataset(r, b[0], seeds=seeds) for r, b in BUDGET.items()}
    )


def train_windows_per_op() -> int:
    return sum(b[1] * b[2] for b in BUDGET.values())


def train_once(inp: TrainInputs) -> dict:
    out = {}
    for r, (_, iterations, batch, val_every) in BUDGET.items():
        x, y = inp.data[r]
        out[r] = ptrain.train(
            x, y, config_for_resolution(r), seed=TRAIN_SEED,
            iterations=iterations, batch_size=batch, val_every=val_every,
        )
    return out


def check(trained: dict) -> list[str]:
    failures = []
    for r, (_, report) in trained.items():
        losses = [loss for _, loss, _ in report.curve]
        if not losses or not all(math.isfinite(v) for v in losses):
            failures.append(f"{r}x{r}: training loss is not finite: {losses}")
        if not 0.0 <= report.test_accuracy <= 1.0:
            failures.append(f"{r}x{r}: test accuracy {report.test_accuracy}")
    return failures


def measure(inp: TrainInputs, seconds: float, tracer=None) -> dict:
    """Training runs back to back for `seconds`; with a tracer the second
    half is traced."""
    latencies: list[float] = []
    traced: list[float] = []
    queries: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    reference = None
    x32 = np.ascontiguousarray(inp.data[32][0][:QUERY_BATCH])
    for trained, tracing, dt in closed_loop(lambda: train_once(inp), seconds, tracer):
        attempted += 1
        (traced if tracing else latencies).append(dt)
        problems = check(trained)
        accuracies = {r: rep.test_accuracy for r, (_, rep) in trained.items()}
        if reference is None:
            reference = accuracies
        elif accuracies != reference:
            problems.append(f"test accuracy {accuracies} differs from the first run's {reference}")
        net32 = trained[32][0]
        for _ in range(QUERIES_PER_OP):
            q0 = time.perf_counter()
            probs = net32.predict_proba(x32)
            queries.append(time.perf_counter() - q0)
            if probs.shape != (len(x32), 5):
                problems.append(f"inference returned shape {probs.shape}")
        if problems:
            failed += 1
            failures.extend(problems)

    op_ms = timing_summary([1000.0 * v for v in latencies])
    query_ms = timing_summary([1000.0 * v for v in queries])
    windows_per_s = train_windows_per_op() / (op_ms["p50"] / 1000.0)
    accuracy = sum(reference.values()) / len(reference)
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "figures": {
            "train_s": {k: (v / 1000.0 if k in ("p50", "tail") else v) for k, v in op_ms.items()},
            "train_windows_per_s": windows_per_s,
            "train_test_accuracy": {f"{r}x{r}": a for r, a in reference.items()},
            "infer_batch_ms": query_ms,
        },
        "e2e": {
            "op_ms.p50": op_ms["p50"],
            "query_ms.p50": query_ms["p50"],
            "quality": accuracy,
        },
    }
    if tracer is not None:
        out["overhead"] = median(traced) / median(latencies) - 1.0
        out["op_units"] = len(traced)
        out["extra_layer"] = {"posture.accuracy": accuracy}
    return out
