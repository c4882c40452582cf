"""Day workload: a home's wire bytes in, the daily report out.

One operation is one home-day report, timed from the first wire byte handed
to `decode_packet_stream` until the report text, JSON and CSV exist -- the
same sequence as `hometwin run --packets`.  As soon as the day is ingested,
and before the pipeline runs, a dashboard reads the trailing hour of one
thermal and one scalar sensor; that first read consolidates the sensor's
whole day, which the pipeline would otherwise do on its own first query.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import hometwin.analytics as analytics
import hometwin.ingestion.wire as wire
import hometwin.pipeline as pipeline
from hometwin.activity.evaluate import evaluate_timeline
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, SensorKind
from hometwin.ingestion.store import RecordStore
from hometwin.layout import RoomRole
from hometwin.simulate.scripts import mixed_day

from . import inputs
from .loop import closed_loop
from .stats import median, timing_summary

# 19:40-20:20 of the mixed day: dinner ends, two visitors arrive and
# everyone sits in the living room under the 32x32 sensor
WINDOW_MIN = (100, 140)
RESOLUTIONS = (4, 32)
DASHBOARD_WINDOW_MS = 60 * MS_PER_MINUTE
# first dashboard reads timed per report: the report's own, then one each on
# stores freshly filled from the same packets, so that a run of fewer than 20
# reports still has enough samples for a tail with ten beyond it
FIRST_READS_PER_OP = 3
CONFIG = PipelineConfig()


@dataclass
class DayInputs:
    layout: object
    data: bytes
    truth: object
    models: dict
    n_packets: int


@dataclass
class Report:
    packets: list
    query_s: float
    query_records: int
    result: object
    store: RecordStore
    text: str
    json_text: str
    csv: str
    start: int
    end: int




def dimensions() -> dict:
    return {
        "scenario": mixed_day.__name__,
        "window_min": list(WINDOW_MIN),
        "model_budget": {r: inputs.MODEL_BUDGET[r] for r in RESOLUTIONS},
        "first_reads_per_op": FIRST_READS_PER_OP,
    }


def setup(seed: int) -> DayInputs:
    models = inputs.train_models(RESOLUTIONS)
    layout, script = mixed_day()
    script = inputs.window(script, *WINDOW_MIN)
    packets, _, truth = inputs.home_wire(layout, script, seed)
    return DayInputs(layout, b"".join(packets), truth, models, len(packets))


# -- one operation -------------------------------------------------------------


def report(inp: DayInputs) -> Report:
    config = CONFIG
    layout = inp.layout
    packets = wire.decode_packet_stream(inp.data)
    store = RecordStore()
    for packet in packets:
        store.append(packet)
    start = min(p.window_start for p in packets)
    end = max(p.window_end for p in packets)
    q0 = time.perf_counter()
    query_records = dashboard_query(layout, store, end)
    query_s = time.perf_counter() - q0
    source = pipeline.StreamSource(layout, store=store, start=start, end=end)
    result = pipeline.run_pipeline(source, inp.models, config)

    segments, total_min = analytics.extract_sleep(result.timeline, start, end, config.k_rest)
    bedroom_frames = []
    bedroom = layout.rooms_with_role(RoomRole.BEDROOM)
    if bedroom:
        for spec in layout.sensors(room_id=bedroom[0].room_id):
            if spec.kind.is_thermal:
                bedroom_frames = source.frame_blocks(spec.sensor_id)
    theta_move = config.theta_move
    if theta_move <= 0:
        theta_move = analytics.auto_theta_move(bedroom_frames, segments)
    if segments and bedroom_frames:
        segments = analytics.sleep_quality(bedroom_frames, segments, theta_move)
        total_min = sum(s.minutes for s in segments)
    toileting = analytics.night_toileting(
        result.timeline, layout.night_window, config.lamp_delta, layout.tz_offset_min
    )
    outdoor_intervals, outdoor_h = analytics.outdoor_time(result.timeline, start, end)
    series_of = {
        spec.sensor_id: source.readings(spec.sensor_id)
        for spec in layout.sensors()
        if not spec.kind.is_thermal and spec.kind is not SensorKind.MOTION
    }
    environment, alerts = analytics.environment_summary(layout, series_of, start, end, config)
    daily = analytics.build_daily_report(
        start, end, segments, total_min, toileting, outdoor_intervals, outdoor_h,
        environment, alerts, config,
    )
    return Report(
        packets,
        query_s,
        query_records,
        result,
        store,
        analytics.report_to_text(daily),
        analytics.report_to_json(daily),
        analytics.environment_csv(daily),
        start,
        end,
    )


def dashboard_query(layout, store: RecordStore, end: int) -> int:
    """Trailing hour of the finest thermal sensor and one scalar sensor;
    returns the records read."""
    thermal = max(layout.thermal_sensors(), key=lambda s: (s.kind.resolution, s.sensor_id)).sensor_id
    scalar = sorted(
        s.sensor_id for s in layout.sensors(kind=SensorKind.TEMP_HUMIDITY)
    )[0]
    t0 = end - DASHBOARD_WINDOW_MS
    return len(store.query_frames(thermal, t0, end)) + len(store.query_readings(scalar, t0, end))


def first_reads(inp: DayInputs, rep: Report) -> list[tuple[float, int]]:
    """(seconds, records) of the first dashboard read on FIRST_READS_PER_OP - 1
    stores freshly filled from the report's packets."""
    out = []
    for _ in range(FIRST_READS_PER_OP - 1):
        store = RecordStore()
        for packet in rep.packets:
            store.append(packet)
        q0 = time.perf_counter()
        records = dashboard_query(inp.layout, store, rep.end)
        out.append((time.perf_counter() - q0, records))
    return out


# -- checks --------------------------------------------------------------------


def check(rep: Report) -> list[str]:
    failures = []
    n_minutes = (rep.end - rep.start) // MS_PER_MINUTE
    entries = rep.result.timeline.entries
    if len(entries) != n_minutes or any(
        e.minute_start != rep.start + i * MS_PER_MINUTE for i, e in enumerate(entries)
    ):
        failures.append(f"timeline has {len(entries)} labels for {n_minutes} minutes")
    try:
        json.loads(rep.json_text)
    except json.JSONDecodeError as exc:
        failures.append(f"report JSON does not parse: {exc}")
    if not rep.text or not rep.csv:
        failures.append("empty report text or CSV")
    return failures


def accuracy(inp: DayInputs, rep: Report) -> tuple[float, float]:
    """(activity accuracy per minute, posture accuracy per 5 s window)."""
    activity = evaluate_timeline(rep.result.timeline, inp.truth).accuracy
    hits = total = 0
    for track in rep.result.tracks.values():
        codes = inp.truth.posture_truth.get(track.sensor_id)
        if codes is None:
            continue
        for rec in track.windows:
            if 0 <= rec.interval_index < len(codes) and rec.posture is not None:
                hits += int(rec.posture.value == int(codes[rec.interval_index]))
                total += 1
    return activity, (hits / total if total else 0.0)


# -- measurement ---------------------------------------------------------------


def measure(inp: DayInputs, seconds: float, tracer=None) -> dict:
    """Reports back to back for `seconds`.  With a tracer, once three
    untraced reports have run, every other report runs traced, for the
    overhead."""
    latencies: list[float] = []
    traced: list[float] = []
    queries: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    reference = None
    first = None
    for rep, tracing, dt in closed_loop(lambda: report(inp), seconds, tracer):
        attempted += 1
        (traced if tracing else latencies).append(dt)
        problems = check(rep)
        labels = rep.result.timeline.labels()
        if reference is None:
            reference = labels
            first = rep
        elif labels != reference:
            problems.append(
                "traced timeline differs from the untraced one" if tracing
                else "timeline differs between identical runs"
            )
        reads = [(rep.query_s, rep.query_records)] + first_reads(inp, rep)
        if not tracing:
            queries += [s for s, _ in reads]
        if any(records == 0 for _, records in reads):
            problems.append("dashboard query returned no records")
        if problems:
            failed += 1
            failures.extend(problems)
        del rep
    activity, posture = accuracy(inp, first)
    report_ms = timing_summary([1000.0 * v for v in latencies])
    query_ms = timing_summary([1000.0 * v for v in queries])
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "figures": {
            "report_s": {k: (v / 1000.0 if k in ("p50", "tail") else v) for k, v in report_ms.items()},
            "query_ms": query_ms,
            "activity_accuracy": activity,
            "posture_accuracy": posture,
            "packets_per_report": inp.n_packets,
            "wire_mb": len(inp.data) / 1e6,
        },
        "e2e": {
            "op_ms.p50": report_ms["p50"],
            "query_ms.p50": query_ms["p50"],
            "quality": activity,
        },
    }
    if tracer is not None:
        out["overhead"] = median(traced) / median(latencies) - 1.0
        out["op_units"] = len(traced)
        out["extra_counts"] = {"store.gaps": len(first.store.gaps())}
        out["extra_layer"] = {"posture.accuracy": posture}
    return out
