"""Derived wellness insights: sleep segments and quality, nighttime toileting,
time outdoors, environment summaries, and the daily report, which
`daily_report` puts together from a pipeline result.  Sleep quality and the
movement threshold read one frame-motion column (see `_frame_motion`)."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .activity.rules import ActivityTimeline
from .config import PipelineConfig
from .core import (
    MS_PER_HOUR,
    MS_PER_MINUTE,
    ActivityLabel,
    FrameBlock,
    ReadingSeries,
    SensorKind,
    in_clock_window,
    pixels_to_celsius,
)
from .errors import CoverageError, InsufficientDataError, WindowMismatchError
from .layout import HomeLayout, RoomRole
from .pipeline import PipelineResult, StreamSource


@dataclass
class SleepSegment:
    start: int
    end: int
    movement_events: int = 0
    still_fraction: float = 1.0

    @property
    def minutes(self) -> float:
        return (self.end - self.start) / MS_PER_MINUTE


@dataclass
class Alert:
    kind: str  # temperature | humidity | noise | sleep_short | sleep_long
    room_id: str
    start: int
    end: int
    severity: str = "attention"


@dataclass
class HourlyAggregate:
    hour_start: int
    minimum: float
    mean: float
    maximum: float
    count: int


@dataclass
class DailyReport:
    day_start: int
    day_end: int
    sleep_segments: list[SleepSegment]
    sleep_total_min: float
    toileting_night: int
    outdoor_intervals: list[tuple[int, int]]
    outdoor_total_h: float
    # room_id -> channel -> list of hourly aggregates
    environment: dict[str, dict[str, list[HourlyAggregate]]]
    alerts: list[Alert]
    has_data: bool = True


# ---------------------------------------------------------------------------
# sleep


def extract_sleep(
    timeline: ActivityTimeline, day_start: int, day_end: int, k_rest: int
) -> tuple[list[SleepSegment], float]:
    """Maximal runs of Sleeping minutes inside the day window.

    Restroom interruptions keep segments separate; the total is also
    returned.  A segment overlapping a minute with restroom triggers at or
    above k_rest would mean the residual-heat mitigation upstream failed, so
    that is asserted here.
    """
    if not timeline.entries:
        raise CoverageError("timeline is empty")
    t0 = timeline.entries[0].minute_start
    t1 = timeline.entries[-1].minute_start + MS_PER_MINUTE
    if day_start < t0 or day_end > t1:
        raise CoverageError(
            f"timeline [{t0}, {t1}) does not cover day window [{day_start}, {day_end})"
        )

    segments: list[SleepSegment] = []
    current: SleepSegment | None = None
    for entry, ev in zip(timeline.entries, timeline.evidence):
        inside = day_start <= entry.minute_start < day_end
        sleeping = inside and entry.label == ActivityLabel.SLEEPING.value
        if sleeping:
            if ev.restroom_triggers >= k_rest:
                raise AssertionError(
                    "sleep minute overlaps restroom triggers: upstream mitigation failed"
                )
            if current is None:
                current = SleepSegment(entry.minute_start, entry.minute_start + MS_PER_MINUTE)
            else:
                current.end = entry.minute_start + MS_PER_MINUTE
        elif current is not None:
            segments.append(current)
            current = None
    if current is not None:
        segments.append(current)

    total = sum(s.minutes for s in segments)
    return segments, total


_SLAB_BYTES = 1 << 20  # float32 bytes cast at once: a day of 32x32 frames is never cast whole


def _frame_motion(frame_blocks: list[FrameBlock]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frame-motion column: for each pair of consecutive frames inside a
    block, the float32 mean absolute difference in degrees and the two frames'
    timestamps.  No pair spans two blocks."""
    diffs = [np.empty(0, dtype=np.float32)]
    first = [np.empty(0, dtype=np.int64)]
    second = [np.empty(0, dtype=np.int64)]
    for block in frame_blocks:
        step = max(_SLAB_BYTES // (4 * block.resolution**2), 1)
        for lo in range(0, len(block) - 1, step):
            celsius = pixels_to_celsius(block.pixels_centi[lo : lo + step + 1])
            diffs.append(np.abs(np.diff(celsius, axis=0)).mean(axis=(1, 2)))
        first.append(block.timestamps[:-1])
        second.append(block.timestamps[1:])
    return np.concatenate(diffs), np.concatenate(first), np.concatenate(second)


def sleep_quality(
    frame_blocks: list[FrameBlock],
    segments: list[SleepSegment],
    theta_move: float,
) -> list[SleepSegment]:
    """Annotate segments with movement events and still fractions.

    A frame pair whose mean absolute difference is below theta_move counts as
    still; each maximal run of non-still pairs is one movement event.  A
    segment holds the pairs whose both frames lie inside it.
    """
    if not frame_blocks or all(not len(b) for b in frame_blocks):
        raise InsufficientDataError("no bedroom frames for sleep quality")
    diffs, first, second = _frame_motion(frame_blocks)
    lo = np.searchsorted(first, [s.start for s in segments], side="left")
    hi = np.searchsorted(second, [s.end for s in segments], side="left")
    out = []
    for seg, i, j in zip(segments, lo, hi):
        if j <= i:
            out.append(SleepSegment(seg.start, seg.end, 0, 1.0))
            continue
        moving = diffs[i:j] >= theta_move
        events = int(np.count_nonzero(moving[1:] & ~moving[:-1]) + (1 if moving[0] else 0))
        out.append(SleepSegment(seg.start, seg.end, events, float(1.0 - moving.mean())))
    return out


def auto_theta_move(frame_blocks: list[FrameBlock], segments: list[SleepSegment]) -> float:
    """3x the median frame difference of the empty bed: the pairs whose mid
    timestamp lies outside every sleep segment.

    A per-home calibration stand-in; override via config for real deployments.
    """
    diffs, first, second = _frame_motion(frame_blocks)
    mid = (first + second) // 2
    outside = np.ones(len(diffs), dtype=bool)
    for seg in segments:
        outside &= ~((mid >= seg.start) & (mid < seg.end))
    empty_bed = diffs[outside]
    if not len(empty_bed):
        return 1.0
    return 3.0 * float(np.median(empty_bed))


# ---------------------------------------------------------------------------
# toileting


def night_toileting(
    timeline: ActivityTimeline,
    night_window: tuple[int, int],
    lamp_delta: float,
    tz_offset_min: int = 0,
) -> int:
    """Sleeping-to-Restroom transitions during the night window.

    Each transition needs confirmation: a light step at lamp scale within one
    minute, or restroom motion triggers in the restroom minute itself.
    """
    count = 0
    entries = timeline.entries
    evidence = timeline.evidence
    for i in range(1, len(entries)):
        if entries[i].label != ActivityLabel.RESTROOM.value:
            continue
        if entries[i - 1].label != ActivityLabel.SLEEPING.value:
            continue
        if not in_clock_window(entries[i].minute_start, *night_window, tz_offset_min):
            continue
        confirmed = evidence[i].restroom_triggers > 0
        for j in (i - 1, i, i + 1):
            if 0 <= j < len(evidence) and evidence[j].light_step_max >= lamp_delta:
                confirmed = True
        if confirmed:
            count += 1
    return count


# ---------------------------------------------------------------------------
# outdoors


def outdoor_time(
    timeline: ActivityTimeline, day_start: int, day_end: int
) -> tuple[list[tuple[int, int]], float]:
    """NotAtHome intervals clipped to the window, plus total hours."""
    intervals = []
    for lo, hi in timeline.away_intervals:
        lo2, hi2 = max(lo, day_start), min(hi, day_end)
        if hi2 > lo2:
            intervals.append((lo2, hi2))
    total_h = sum((hi - lo) for lo, hi in intervals) / MS_PER_HOUR
    return intervals, total_h


# ---------------------------------------------------------------------------
# environment


_CHANNELS = ("temperature", "humidity", "light", "noise")


def environment_summary(
    layout: HomeLayout,
    series_of: dict[str, ReadingSeries],
    day_start: int,
    day_end: int,
    config: PipelineConfig,
) -> tuple[dict[str, dict[str, list[HourlyAggregate]]], list[Alert]]:
    """Hourly min/mean/max per room channel plus out-of-band dwell alerts.

    Means accumulate in reading-timestamp order so an independent brute-force
    pass reproduces them exactly.
    """
    n_hours = max((day_end - day_start) // MS_PER_HOUR, 0)
    env: dict[str, dict[str, list[HourlyAggregate]]] = {}
    alerts: list[Alert] = []

    for room in layout.rooms:
        channels: dict[str, list[HourlyAggregate]] = {}
        for channel in _CHANNELS:
            specs = [
                s
                for s in layout.sensors(room_id=room.room_id)
                if s.channel == channel
            ]
            series = next(
                (series_of[s.sensor_id] for s in specs if s.sensor_id in series_of), None
            )
            if series is None:
                continue
            aggregates = []
            for h in range(n_hours):
                lo = day_start + h * MS_PER_HOUR
                sub = series.slice(lo, lo + MS_PER_HOUR)
                if len(sub):
                    total = 0.0
                    for v in sub.values:  # fixed accumulation order
                        total += float(v)
                    aggregates.append(
                        HourlyAggregate(
                            lo,
                            float(sub.values.min()),
                            total / len(sub),
                            float(sub.values.max()),
                            len(sub),
                        )
                    )
                else:
                    aggregates.append(HourlyAggregate(lo, np.nan, np.nan, np.nan, 0))
            channels[channel] = aggregates
            alerts.extend(
                _dwell_alerts(room.room_id, channel, series, day_start, day_end, config)
            )
        if channels:
            env[room.room_id] = channels
    return env, alerts


def _out_of_band(channel: str, values: np.ndarray, config: PipelineConfig) -> np.ndarray:
    if channel == "temperature":
        return (values < config.temp_band_low_c) | (values > config.temp_band_high_c)
    if channel == "humidity":
        return values > config.humidity_max_rh
    if channel == "noise":
        return values > config.noise_alert_threshold
    return np.zeros(len(values), dtype=bool)


def _dwell_alerts(
    room_id: str,
    channel: str,
    series: ReadingSeries,
    day_start: int,
    day_end: int,
    config: PipelineConfig,
) -> list[Alert]:
    sub = series.slice(day_start, day_end)
    if not len(sub):
        return []
    bad = _out_of_band(channel, sub.values, config)
    alerts = []
    run_start: int | None = None
    last_ts = None
    for ts, flag in zip(sub.timestamps, bad):
        if flag and run_start is None:
            run_start = int(ts)
        elif not flag and run_start is not None:
            if last_ts - run_start >= config.dwell_min * MS_PER_MINUTE:
                alerts.append(Alert(channel, room_id, run_start, int(last_ts)))
            run_start = None
        last_ts = int(ts)
    if run_start is not None and last_ts - run_start >= config.dwell_min * MS_PER_MINUTE:
        alerts.append(Alert(channel, room_id, run_start, last_ts))
    return alerts


# ---------------------------------------------------------------------------
# report assembly


def build_daily_report(
    day_start: int,
    day_end: int,
    sleep_segments: list[SleepSegment],
    sleep_total_min: float,
    toileting_night: int,
    outdoor_intervals: list[tuple[int, int]],
    outdoor_total_h: float,
    environment: dict[str, dict[str, list[HourlyAggregate]]],
    alerts: list[Alert],
    config: PipelineConfig,
    has_data: bool = True,
) -> DailyReport:
    if day_end <= day_start:
        raise WindowMismatchError("day window is empty")
    for seg in sleep_segments:
        if not (day_start <= seg.start and seg.end <= day_end):
            raise WindowMismatchError("sleep segment outside the report window")
    for lo, hi in outdoor_intervals:
        if not (day_start <= lo and hi <= day_end):
            raise WindowMismatchError("outdoor interval outside the report window")
    if abs(sum(s.minutes for s in sleep_segments) - sleep_total_min) > 1e-9:
        raise WindowMismatchError("sleep total does not equal the sum of segments")

    alerts = list(alerts)
    if has_data:
        if sleep_total_min < config.sleep_low_h * 60.0:
            alerts.append(Alert("sleep_short", "bedroom", day_start, day_end))
        elif sleep_total_min > config.sleep_high_h * 60.0:
            alerts.append(Alert("sleep_long", "bedroom", day_start, day_end))

    return DailyReport(
        day_start=day_start,
        day_end=day_end,
        sleep_segments=sleep_segments,
        sleep_total_min=sleep_total_min,
        toileting_night=toileting_night,
        outdoor_intervals=outdoor_intervals,
        outdoor_total_h=outdoor_total_h,
        environment=environment,
        alerts=alerts,
        has_data=has_data,
    )


def daily_report(source: StreamSource, result: PipelineResult, config: PipelineConfig) -> DailyReport:
    """The daily report of the source's [start, end) window from the pipeline's
    result: sleep segments, their quality from the bedroom's thermal frames
    (theta_move <= 0 sets the threshold from the empty bed), nighttime
    toileting, time outdoors and the environment of every scalar sensor."""
    layout, timeline = source.layout, result.timeline
    day_start, day_end = source.start, source.end
    segments, total_min = extract_sleep(timeline, day_start, day_end, config.k_rest)
    # the last thermal sensor of the first bedroom
    bedroom = layout.rooms_with_role(RoomRole.BEDROOM)[:1]
    thermal = [s for r in bedroom for s in layout.sensors(room_id=r.room_id) if s.kind.is_thermal]
    bedroom_frames = source.frame_blocks(thermal[-1].sensor_id) if thermal else []
    if segments and bedroom_frames:  # same segment bounds, so the same total
        theta_move = config.theta_move
        if theta_move <= 0:
            theta_move = auto_theta_move(bedroom_frames, segments)
        segments = sleep_quality(bedroom_frames, segments, theta_move)
    toileting = night_toileting(timeline, layout.night_window, config.lamp_delta, layout.tz_offset_min)
    outdoor_intervals, outdoor_h = outdoor_time(timeline, day_start, day_end)
    series_of = {
        spec.sensor_id: source.readings(spec.sensor_id)
        for spec in layout.sensors()
        if not spec.kind.is_thermal and spec.kind is not SensorKind.MOTION
    }
    environment, alerts = environment_summary(layout, series_of, day_start, day_end, config)
    return build_daily_report(
        day_start, day_end, segments, total_min, toileting, outdoor_intervals, outdoor_h,
        environment, alerts, config,
    )


def _fmt_ts(ts: int) -> str:
    minutes = ts // MS_PER_MINUTE
    return f"{minutes // 60 % 24:02d}:{minutes % 60:02d}"


def _fmt_day(ts: int) -> str:
    from datetime import datetime, timedelta

    stamp = datetime(1970, 1, 1) + timedelta(milliseconds=ts)
    return stamp.strftime("%Y-%m-%d %H:%M")


def report_to_text(report: DailyReport) -> str:
    lines = [
        "DAILY REPORT",
        f"window: {_fmt_day(report.day_start)} .. {_fmt_day(report.day_end)}",
        "",
    ]
    if not report.has_data:
        lines.append("no data for this window")
        return "\n".join(lines) + "\n"

    lines.append(f"sleep: total {report.sleep_total_min / 60.0:.2f} h in "
                 f"{len(report.sleep_segments)} segment(s)")
    for seg in report.sleep_segments:
        lines.append(
            f"  {_fmt_ts(seg.start)}-{_fmt_ts(seg.end)} ({seg.minutes:.0f} min), "
            f"{seg.movement_events} movement event(s), "
            f"still {100.0 * seg.still_fraction:.1f}%"
        )
    lines.append(f"nighttime toileting: {report.toileting_night}")
    lines.append(
        f"time outdoors: {report.outdoor_total_h:.2f} h in "
        f"{len(report.outdoor_intervals)} interval(s)"
    )
    for lo, hi in report.outdoor_intervals:
        lines.append(f"  {_fmt_ts(lo)}-{_fmt_ts(hi)}")
    lines.append("")
    lines.append("environment (hourly min/mean/max):")
    for room_id in sorted(report.environment):
        for channel in sorted(report.environment[room_id]):
            lines.append(f"  {room_id}/{channel}:")
            for agg in report.environment[room_id][channel]:
                if agg.count == 0:
                    lines.append(f"    {_fmt_ts(agg.hour_start)}  no data")
                else:
                    lines.append(
                        f"    {_fmt_ts(agg.hour_start)}  "
                        f"{agg.minimum:.2f} / {agg.mean:.2f} / {agg.maximum:.2f}"
                    )
    lines.append("")
    lines.append(f"alerts: {len(report.alerts)}")
    for alert in report.alerts:
        lines.append(
            f"  [{alert.severity}] {alert.kind} in {alert.room_id} "
            f"{_fmt_ts(alert.start)}-{_fmt_ts(alert.end)}"
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: DailyReport) -> str:
    def agg_dict(agg: HourlyAggregate) -> dict:
        if agg.count == 0:
            return {"hour_start": agg.hour_start, "no_data": True}
        return {
            "hour_start": agg.hour_start,
            "min": round(agg.minimum, 6),
            "mean": round(agg.mean, 6),
            "max": round(agg.maximum, 6),
            "count": agg.count,
        }

    data = {
        "day_start": report.day_start,
        "day_end": report.day_end,
        "has_data": report.has_data,
        "sleep": {
            "total_min": round(report.sleep_total_min, 3),
            "segments": [
                {
                    "start": s.start,
                    "end": s.end,
                    "movement_events": s.movement_events,
                    "still_fraction": round(s.still_fraction, 6),
                }
                for s in report.sleep_segments
            ],
        },
        "toileting_night": report.toileting_night,
        "outdoor": {
            "total_h": round(report.outdoor_total_h, 6),
            "intervals": [[lo, hi] for lo, hi in report.outdoor_intervals],
        },
        "environment": {
            room: {
                channel: [agg_dict(a) for a in aggs]
                for channel, aggs in channels.items()
            }
            for room, channels in report.environment.items()
        },
        "alerts": [
            {
                "kind": a.kind,
                "room": a.room_id,
                "start": a.start,
                "end": a.end,
                "severity": a.severity,
            }
            for a in report.alerts
        ],
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def environment_csv(report: DailyReport) -> str:
    rows = ["room,channel,hour_start,min,mean,max,count"]
    for room in sorted(report.environment):
        for channel in sorted(report.environment[room]):
            for agg in report.environment[room][channel]:
                if agg.count == 0:
                    rows.append(f"{room},{channel},{agg.hour_start},,,,0")
                else:
                    rows.append(
                        f"{room},{channel},{agg.hour_start},"
                        f"{agg.minimum:.4f},{agg.mean:.4f},{agg.maximum:.4f},{agg.count}"
                    )
    return "\n".join(rows) + "\n"
