"""Runs one workload: repeated set-up, measurement, checks, and the metrics
for the result line."""

from __future__ import annotations

import resource
import time

from . import day, fleet, training
from .spans import Tracer
from .stats import median

# Untraced runs set up before and again after the measurement, each time
# repeating until SETUP_SECONDS / 2 have been spent (at least twice, at most
# SETUP_MAX_REPS / 2 times); setup_s is the median of all of them.  The
# machine's speed drifts over seconds, and samples from both ends of the run
# follow that drift the way the measured operations in between do.
SETUP_SECONDS = 10.0
SETUP_MAX_REPS = 12


# modules with the same setup / measure / dimensions interface
WORKLOADS = {
    "mixed_day_32x32": day,
    "fleet_ingest": fleet,
    "train_posture": training,
}

# end-to-end metrics (untraced runs): name -> unit.  Tail latencies and
# throughputs are printed with the figures but not reported here: on
# fleet_ingest the packet and query tails and the sustained rate spread by
# 25-120% over ten seeds on a 2-vCPU virtual machine whose speed drifts, and
# the batch workloads' operation tails are their medians at under 20
# operations a run.
END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "query_ms.p50": "ms",
    "quality": "share",
    "peak_rss_mb": "MB",
}

# per-layer metrics (traced runs): name -> (unit, kind, key).  Busy and self
# times are shares of the traced phase (set-up or measured operations) they
# ran in; counts are per operation (a report, a reference pass, a training
# run) or per set-up.
PER_LAYER = {
    "ingestion.wire.decode_pct": ("%", "busy", "ingestion.wire.decode"),
    "ingestion.wire.decode_mb": ("MB", "count", "wire.decode_mb"),
    "ingestion.wire.records": ("count", "count", "wire.records"),
    "ingestion.store.append_pct": ("%", "busy", "ingestion.store.append"),
    "ingestion.store.records": ("count", "count", "store.records"),
    "ingestion.store.duplicates": ("count", "count", "store.duplicates"),
    "ingestion.store.gaps": ("count", "count", "store.gaps"),
    "ingestion.store.query_pct": ("%", "busy", "ingestion.store.query"),
    "ingestion.store.queries": ("count", "count", "store.queries"),
    "ingestion.store.query_records": ("count", "count", "store.query_records"),
    "thermal.tracker_pct": ("%", "busy", "thermal.tracker"),
    "thermal.frames": ("count", "count", "thermal.frames"),
    "thermal.calibrations": ("count", "count", "thermal.calibrations"),
    "thermal.motion_index_pct": ("%", "busy", "thermal.motion_index"),
    "thermal.motion_index_calls": ("count", "count", "thermal.motion_index_calls"),
    "thermal.blobs_pct": ("%", "busy", "thermal.blobs"),
    "thermal.blobs_calls": ("count", "count", "thermal.blobs_calls"),
    "posture.windows_pct": ("%", "busy", "posture.windows"),
    "posture.windows": ("count", "count", "posture.windows"),
    "posture.windows_dropped": ("count", "count", "posture.windows_dropped"),
    "posture.infer_pct": ("%", "busy", "posture.infer"),
    "posture.infer_batches": ("count", "count", "posture.infer_batches"),
    "posture.infer_gflop": ("GFLOP", "count", "posture.infer_gflop"),
    "posture.infer_mb_moved": ("MB", "count", "posture.infer_mb_moved"),
    "posture.accuracy": ("share", "extra", "posture.accuracy"),
    "posture.train.data_pct": ("%", "busy", "posture.train.data"),
    "posture.train.forward_pct": ("%", "busy", "posture.train.forward"),
    "posture.train.backward_pct": ("%", "busy", "posture.train.backward"),
    "posture.train.adam_pct": ("%", "busy", "posture.train.adam"),
    "posture.train.eval_pct": ("%", "busy", "posture.train.eval"),
    "posture.train.loop_self_pct": ("%", "self", "posture.train.loop"),
    "posture.train.steps": ("count", "count", "posture.train_steps"),
    "posture.train.windows": ("count", "count", "posture.train_windows"),
    "posture.train.gflop": ("GFLOP", "count", "posture.train_gflop"),
    "posture.train.mb_moved": ("MB", "count", "posture.train_mb_moved"),
    "pipeline.self_pct": ("%", "self", "pipeline"),
    "activity.classify_pct": ("%", "busy", "activity.classify"),
    "activity.not_at_home_pct": ("%", "busy", "activity.not_at_home"),
    "analytics.sleep_pct": ("%", "busy", "analytics.sleep"),
    "analytics.environment_pct": ("%", "busy", "analytics.environment"),
    "analytics.report_pct": ("%", "busy", "analytics.report"),
    "simulate.busy_pct": ("%", "busy", "simulate"),
    "ingestion.redirector_pct": ("%", "busy", "ingestion.redirector"),
    "ingestion.wire.encode_pct": ("%", "busy", "ingestion.wire.encode"),
    "bench.unattributed_pct": ("%", "self", "bench"),
    "loadgen.lag_pct": ("%", "extra", "loadgen.lag_pct"),
    "trace.overhead_pct": ("%", "extra", "trace.overhead_pct"),
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; returns the result and its report."""
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    setup_times: list[float] = []

    def set_up():
        t0 = time.perf_counter()
        if tracer is None:
            inp = workload.setup(seed)
        else:
            tracer.install()
            tracer.phase = "setup"
            with tracer.operation("bench.setup"):
                inp = workload.setup(seed)
            tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
        return inp

    def repeat_set_up():
        inp, spent, reps = None, 0.0, 0
        while reps < 2 or (spent < SETUP_SECONDS / 2 and reps < SETUP_MAX_REPS // 2):
            inp = None  # release the previous inputs before building the next
            inp = set_up()
            spent += setup_times[-1]
            reps += 1
        return inp

    inp = set_up() if trace else repeat_set_up()
    out = workload.measure(inp, seconds, tracer)
    inp = None
    if not trace:
        repeat_set_up()
    out["setup_s"] = median(setup_times)
    out["setup_samples"] = setup_times
    out["dimensions"] = workload.dimensions()
    out["peak_rss_mb"] = peak_rss_mb()
    if tracer is None:
        metrics = dict(out["e2e"], setup_s=out["setup_s"], peak_rss_mb=out["peak_rss_mb"])
        out["metrics"] = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        out["layers"], out["metrics"] = _layer_metrics(tracer, out)
        out["tracer"] = tracer
    return out


def _layer_metrics(tracer: Tracer, out: dict) -> tuple[dict, dict]:
    times = tracer.layer_times()
    walls = {phase: tracer.phase_wall(phase) for phase in times}
    units = {"setup": 1, "op": out["op_units"]}
    counts: dict[str, float] = dict(out.get("extra_counts", {}))
    for (phase, key), value in tracer.counts.items():
        counts[key] = counts.get(key, 0.0) + value / units[phase]
    extra = dict(out.get("extra_layer", {}))
    extra["trace.overhead_pct"] = 100.0 * out["overhead"]

    def share(kind: str, layer: str) -> float:
        return sum(
            100.0 * rows[layer][kind] / walls[phase]
            for phase, rows in times.items()
            if layer in rows and walls[phase] > 0
        ) or 0.0

    metrics = {}
    for name, (unit, kind, key) in PER_LAYER.items():
        if kind in ("busy", "self"):
            value = share(kind, key)
        elif kind == "count":
            value = counts.get(key, 0.0)
        else:
            value = extra.get(key, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    layers = {
        phase: {
            "wall_s_per_unit": walls[phase] / units[phase],
            "rows": {
                layer: {k: v / units[phase] for k, v in row.items()}
                for layer, row in rows.items()
            },
        }
        for phase, rows in times.items()
    }
    return layers, metrics
