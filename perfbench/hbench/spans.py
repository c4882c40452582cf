"""In-memory span tracing installed by wrapping hometwin's public entry points.

Nothing under the package's source changes: `Tracer.install()` swaps each
entry point (module function or class method) for a wrapper that records a
span -- layer name, start, end, parent span, and the id of the operation it
belongs to -- plus the work counts taken at the same boundary, and
`uninstall()` puts the originals back.  Self time is derived afterwards: a
span's duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from . import kernels

# every layer a span can be charged to, in report order
LAYERS = (
    "simulate",
    "ingestion.redirector",
    "ingestion.wire.encode",
    "ingestion.wire.decode",
    "ingestion.store.append",
    "ingestion.store.query",
    "thermal.tracker",
    "thermal.motion_index",
    "thermal.blobs",
    "posture.windows",
    "posture.infer",
    "posture.train.data",
    "posture.train.loop",
    "posture.train.forward",
    "posture.train.backward",
    "posture.train.adam",
    "posture.train.eval",
    "pipeline",
    "activity.classify",
    "activity.not_at_home",
    "analytics.sleep",
    "analytics.environment",
    "analytics.report",
    "bench.setup",
    "bench",
)


class Tracer:
    """Records spans while installed; one per benchmark process."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int, str]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "setup"
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._op_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, key)] += amount

    def _layer_above(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def _record(self, layer: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        self._stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, layer, t0, t1, parent, self._op_id, self.phase))

    @contextmanager
    def operation(self, layer: str = "bench"):
        """A root span; every span recorded inside shares its operation id."""
        self._op_id += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, layer))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, layer, t0, t1, 0, self._op_id, self.phase))

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper_factory(original)))

    def _simple(self, owner, attr: str, layer: str, after=None) -> None:
        def factory(original):
            def wrapper(*args, **kwargs):
                out = self._record(layer, original, args, kwargs)
                if after is not None:
                    after(args, kwargs, out)
                return out

            return wrapper

        self._patch(owner, attr, factory)

    def install(self) -> None:
        if self._patches:
            return
        import hometwin.analytics as analytics
        import hometwin.ingestion.wire as wire
        import hometwin.pipeline as pipeline
        import hometwin.posture.data as pdata
        import hometwin.simulate.engine as engine
        from hometwin.ingestion.store import RecordStore
        from hometwin.posture.net import PostureNet
        from hometwin.thermal import BaselineTracker

        ptrain = importlib.import_module("hometwin.posture.train")

        count = self.count

        # simulator and ingestion
        self._simple(engine, "simulate", "simulate")
        self._simple(engine.StreamBundle, "to_packets", "ingestion.redirector",
                     lambda a, k, out: count("redirector.packets", len(out)))
        self._simple(wire, "encode_packet", "ingestion.wire.encode",
                     lambda a, k, out: count("wire.encode_mb", len(out) / 1e6))

        def decoded(args, kwargs, out):
            count("wire.decode_mb", len(args[0]) / 1e6)
            packets = out if isinstance(out, list) else [out]
            count("wire.records", sum(p.item_count for p in packets))

        self._simple(wire, "decode_packet_stream", "ingestion.wire.decode", decoded)
        self._simple(wire, "decode_packet", "ingestion.wire.decode", decoded)

        def appended(args, kwargs, out):
            count("store.appends")
            count("store.records", out)
            if out == 0 and args[1].item_count:
                count("store.duplicates")

        self._simple(RecordStore, "append", "ingestion.store.append", appended)

        def queried(args, kwargs, out):
            count("store.queries")
            count("store.query_records", len(out))

        self._simple(RecordStore, "query_readings", "ingestion.store.query", queried)
        self._simple(RecordStore, "query_frames", "ingestion.store.query", queried)

        # thermal
        def tracker_factory(original):
            def process(tracker, timestamps, pixels_centi):
                before = len(tracker.calibration_events)
                out = self._record("thermal.tracker", original, (tracker, timestamps, pixels_centi), {})
                count("thermal.frames", len(timestamps))
                count("thermal.calibrations", len(tracker.calibration_events) - before)
                return out

            return process

        self._patch(BaselineTracker, "process", tracker_factory)
        self._simple(pipeline, "motion_index", "thermal.motion_index",
                     lambda a, k, out: count("thermal.motion_index_calls"))
        self._simple(pipeline, "count_blobs", "thermal.blobs",
                     lambda a, k, out: count("thermal.blobs_calls"))

        # posture windows and the network
        def windows_built(args, kwargs, out):
            count("posture.windows", len(out[0]))
            count("posture.windows_dropped", len(out[1]))

        self._simple(pipeline, "build_windows", "posture.windows", windows_built)
        self._simple(pipeline, "stack_windows", "posture.windows")

        def predict_factory(original):
            def predict_proba(net, x):
                training = self._in_training()
                layer = "posture.train.eval" if training else "posture.infer"
                out = self._record(layer, original, (net, x), {})
                flops, nbytes = kernels.forward_cost(net.config, x.shape[0])
                key = "train" if training else "infer"
                count(f"posture.{key}_batches")
                count(f"posture.{key}_gflop", flops / 1e9)
                count(f"posture.{key}_mb_moved", nbytes / 1e6)
                return out

            return predict_proba

        self._patch(PostureNet, "predict_proba", predict_factory)

        def forward_factory(original):
            def forward(net, x, train, rng=None):
                if not train:  # inside predict_proba: charged to its caller's layer
                    return self._record(self._layer_above() or "posture.infer",
                                        original, (net, x, train, rng), {})
                out = self._record("posture.train.forward", original, (net, x, train, rng), {})
                flops, nbytes = kernels.train_step_cost(net.config, x.shape[0])
                count("posture.train_steps")
                count("posture.train_windows", x.shape[0])
                count("posture.train_gflop", flops / 1e9)
                count("posture.train_mb_moved", nbytes / 1e6)
                return out

            return forward

        self._patch(PostureNet, "forward", forward_factory)
        self._simple(PostureNet, "backward", "posture.train.backward")
        self._simple(ptrain.Adam, "step", "posture.train.adam")
        self._simple(ptrain, "train", "posture.train.loop")
        self._simple(pdata, "generate_posture_dataset", "posture.train.data")

        # orchestration, rules, analytics
        self._simple(pipeline, "run_pipeline", "pipeline")
        self._simple(pipeline, "classify_timeline", "activity.classify")
        self._simple(pipeline, "detect_not_at_home", "activity.not_at_home")
        for name in ("extract_sleep", "auto_theta_move", "sleep_quality"):
            self._simple(analytics, name, "analytics.sleep")
        self._simple(analytics, "environment_summary", "analytics.environment")
        for name in (
            "night_toileting",
            "outdoor_time",
            "build_daily_report",
            "report_to_text",
            "report_to_json",
            "environment_csv",
        ):
            self._simple(analytics, name, "analytics.report")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _in_training(self) -> bool:
        return any(layer == "posture.train.loop" for _, layer in self._stack)

    # -- derived figures ---------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, dict[str, float]]]:
        """phase -> layer -> {"busy": s, "self": s}.

        Busy time counts a layer's outermost spans (nested spans of the same
        layer are not counted twice); self time subtracts direct children.
        """
        layer_of = {sid: layer for sid, layer, *_ in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for sid, layer, t0, t1, parent, op, phase in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, dict[str, float]]] = {}
        for sid, layer, t0, t1, parent, op, phase in self.spans:
            row = out.setdefault(phase, {}).setdefault(
                layer, {"busy": 0.0, "self": 0.0}
            )
            dur = t1 - t0
            row["self"] += dur - child_time[sid]
            if layer_of.get(parent) != layer:
                row["busy"] += dur
        return out

    def phase_wall(self, phase: str) -> float:
        return sum(t1 - t0 for _, _, t0, t1, parent, _, p in self.spans if p == phase and not parent)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,layer,start_s,end_s,parent_id,operation_id,phase\n")
            for sid, layer, t0, t1, parent, op, phase in self.spans:
                fh.write(f"{sid},{layer},{t0:.9f},{t1:.9f},{parent},{op},{phase}\n")
