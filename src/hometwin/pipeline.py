"""End-to-end batch pipeline: sensor streams -> residuals -> posture windows
-> minute evidence -> rule cascade -> post-hoc not-at-home -> timeline.

Consumes either a StreamBundle (in memory) or a RecordStore; both reduce to
per-sensor time-ordered arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .core import (
    MS_PER_MINUTE,
    FrameBlock,
    PostureLabel,
    ReadingSeries,
    SensorKind,
    in_clock_window,
)
from .errors import ConfigError
from .ingestion.store import RecordStore
from .layout import HomeLayout, RoomRole
from .posture.net import PostureNet
from .posture.windows import build_windows, stack_windows
from .activity.evidence import MinuteEvidence, RoomEvidence
from .activity.rules import ActivityTimeline, RuleParams, classify_timeline, detect_not_at_home
from .simulate.engine import StreamBundle
from .thermal import BaselineTracker, TrackerParams, count_blobs, motion_index


@dataclass
class WindowRecord:
    """One classified 5 s window of one thermal sensor."""

    sensor_id: str
    start: int
    interval_index: int  # position on the scenario-wide 5 s grid
    motion_index: float
    blob_count: int
    posture: PostureLabel | None = None


@dataclass
class SensorTrack:
    sensor_id: str
    room_id: str
    room_role: RoomRole
    resolution: int
    windows: list[WindowRecord] = field(default_factory=list)
    dropped_windows: int = 0
    calibration_events: list[int] = field(default_factory=list)


@dataclass
class PipelineResult:
    timeline: ActivityTimeline
    tracks: dict[str, SensorTrack]
    thetas: dict[str, float]  # sensor_id -> activity gate used
    evidence: list[MinuteEvidence]

    def track_for_role(self, role: RoomRole) -> SensorTrack | None:
        for track in self.tracks.values():
            if track.room_role == role:
                return track
        return None


class StreamSource:
    """Uniform access to per-sensor series from a bundle or a store."""

    def __init__(
        self,
        layout: HomeLayout,
        bundle: StreamBundle | None = None,
        store: RecordStore | None = None,
        start: int | None = None,
        end: int | None = None,
    ):
        if (bundle is None) == (store is None):
            raise ConfigError("provide exactly one of bundle or store")
        self.layout = layout
        self.bundle = bundle
        self.store = store
        if bundle is not None:
            self.start = bundle.start if start is None else start
            self.end = bundle.end if end is None else end
        else:
            if start is None or end is None:
                raise ConfigError("store sources need an explicit [start, end) window")
            self.start = start
            self.end = end

    def readings(self, sensor_id: str) -> ReadingSeries:
        if self.bundle is not None:
            series = self.bundle.readings_for(sensor_id)
            if series is None:
                return ReadingSeries(
                    sensor_id,
                    self.layout.sensor(sensor_id).kind,
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                )
            return series
        return self.store.query_readings(sensor_id, self.start, self.end)

    def frame_blocks(self, sensor_id: str) -> list[FrameBlock]:
        if self.bundle is not None:
            return self.bundle.frames_for(sensor_id)
        return [self.store.query_frames(sensor_id, self.start, self.end)]


def _ambient_lookup(source: StreamSource, room_id: str) -> ReadingSeries | None:
    specs = [
        s
        for s in source.layout.sensors(room_id=room_id)
        if s.kind is SensorKind.TEMP_HUMIDITY and s.channel == "temperature"
    ]
    if not specs:
        return None
    return source.readings(specs[0].sensor_id)


def _process_thermal_sensor(
    source: StreamSource,
    sensor_id: str,
    model: PostureNet | None,
    config: PipelineConfig,
) -> SensorTrack:
    """Baseline-filter the stream and classify every 5 s window.

    Prediction happens block by block so residual arrays for long streams are
    released as soon as their windows are classified.
    """
    spec = source.layout.sensor(sensor_id)
    room = source.layout.room(spec.room_id)
    resolution = spec.kind.resolution
    track = SensorTrack(sensor_id, spec.room_id, room.role, resolution)

    tracker = BaselineTracker(
        resolution,
        TrackerParams(
            warmup_frames=config.warmup_frames,
            baseline_alpha=config.baseline_alpha,
            theta_idle=config.theta_idle,
            presence_max_c=config.presence_max_c,
            delta_cal_c=config.delta_cal_c,
            min_recal_interval_min=config.min_recal_interval_min,
        ),
    )
    ambient = _ambient_lookup(source, spec.room_id)
    if ambient is not None and len(ambient):
        tracker.set_ambient_series(ambient.timestamps, ambient.values)

    window_ms = config.frame_period_ms * 20
    for block in source.frame_blocks(sensor_id):
        if not len(block):
            continue
        residuals = tracker.process(block.timestamps, block.pixels_centi)
        windows, dropped = build_windows(
            sensor_id,
            block.timestamps,
            residuals,
            period_ms=config.frame_period_ms,
        )
        track.dropped_windows += len(dropped)
        if not windows:
            continue
        records = []
        for w in windows:
            records.append(
                WindowRecord(
                    sensor_id=w.sensor_id,
                    start=w.start,
                    interval_index=int(round((w.start - source.start) / window_ms)),
                    motion_index=motion_index(w.frames),
                    blob_count=(
                        count_blobs(
                            w.frames.mean(axis=0),
                            config.blob_threshold_c,
                            config.blob_min_pixels,
                        )
                        if resolution == 32
                        else 0
                    ),
                )
            )
        if model is None:
            for rec in records:
                rec.posture = PostureLabel.NOT_HERE
        else:
            batch = 256
            for lo in range(0, len(windows), batch):
                x = stack_windows(windows[lo : lo + batch])
                probs = model.predict_proba(x)
                for rec, row in zip(records[lo : lo + batch], probs):
                    rec.posture = PostureLabel(int(row.argmax()))
        track.windows.extend(records)
    track.calibration_events = list(tracker.calibration_events)
    return track


def _majority_posture(records: list[WindowRecord]) -> PostureLabel:
    counts: dict[PostureLabel, int] = {}
    for rec in records:
        counts[rec.posture] = counts.get(rec.posture, 0) + 1
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0].value))
    return best[0]


# auto threshold = multiplier x the lower-quartile window index pooled over
# every sensor of the resolution.  Across a whole home most 5 s windows are
# empty-room windows (one resident, several rooms), so the pooled lower
# quartile sits on the rectified-noise floor even when one room is occupied
# most of the day.  At 32x32 a moving body's pixel changes dilute over 1024
# pixels, so live occupancy peaks near 1.7x the floor (static residual heat
# stays near 1.1x); the gate multiplier drops accordingly.
THETA_MULTIPLIER = {4: 2.0, 32: 1.4}
THETA_FALLBACK = 0.35


def auto_theta_active(tracks: dict[str, SensorTrack]) -> dict[int, float]:
    """Per-resolution activity gates from the pooled index distribution."""
    pooled: dict[int, list[float]] = {}
    for track in tracks.values():
        pooled.setdefault(track.resolution, []).extend(
            rec.motion_index for rec in track.windows
        )
    return {
        resolution: THETA_MULTIPLIER.get(resolution, 2.0) * float(np.percentile(values, 25))
        if values
        else THETA_FALLBACK
        for resolution, values in pooled.items()
    }


def run_pipeline(
    source: StreamSource,
    models: dict[int, PostureNet],
    config: PipelineConfig,
) -> PipelineResult:
    layout = source.layout

    tracks: dict[str, SensorTrack] = {}
    for spec in sorted(layout.thermal_sensors(), key=lambda s: s.sensor_id):
        tracks[spec.sensor_id] = _process_thermal_sensor(
            source, spec.sensor_id, models.get(spec.kind.resolution), config
        )

    if config.theta_active > 0:
        thetas = {sensor_id: config.theta_active for sensor_id in tracks}
    else:
        by_resolution = auto_theta_active(tracks)
        thetas = {
            sensor_id: by_resolution[track.resolution]
            for sensor_id, track in tracks.items()
        }

    n_minutes = (source.end - source.start) // MS_PER_MINUTE
    start = source.start

    # motion triggers and light steps per minute
    restroom_triggers = np.zeros(n_minutes, dtype=np.int64)
    doorway_triggers = np.zeros(n_minutes, dtype=np.int64)
    other_triggers = np.zeros(n_minutes, dtype=np.int64)
    doorway_trigger_ts: list[int] = []
    light_step = np.zeros(n_minutes)

    for spec in layout.sensors(kind=SensorKind.MOTION):
        series = source.readings(spec.sensor_id)
        if not len(series):
            continue
        hot = series.timestamps[series.values > 0.5]
        role = layout.room(spec.room_id).role
        minutes = ((hot - start) // MS_PER_MINUTE).astype(int)
        minutes = minutes[(minutes >= 0) & (minutes < n_minutes)]
        target = {
            RoomRole.RESTROOM: restroom_triggers,
            RoomRole.DOORWAY: doorway_triggers,
        }.get(role, other_triggers)
        np.add.at(target, minutes, 1)
        if role is RoomRole.DOORWAY:
            doorway_trigger_ts.extend(int(t) for t in hot)

    for spec in layout.sensors(kind=SensorKind.LIGHT):
        series = source.readings(spec.sensor_id)
        if len(series) < 2:
            continue
        steps = np.abs(np.diff(series.values))
        minutes = ((series.timestamps[1:] - start) // MS_PER_MINUTE).astype(int)
        ok = (minutes >= 0) & (minutes < n_minutes)
        np.maximum.at(light_step, minutes[ok], steps[ok])

    # fold window records into per-minute per-room evidence
    evidence: list[MinuteEvidence] = []
    per_minute: dict[int, dict[RoomRole, list[WindowRecord]]] = {}
    role_of: dict[str, RoomRole] = {sid: t.room_role for sid, t in tracks.items()}
    theta_of_role: dict[RoomRole, float] = {
        role_of[sid]: thetas[sid] for sid in tracks
    }
    for track in tracks.values():
        for rec in track.windows:
            minute = (rec.start - start) // MS_PER_MINUTE
            if 0 <= minute < n_minutes:
                per_minute.setdefault(minute, {}).setdefault(
                    role_of[rec.sensor_id], []
                ).append(rec)

    night_lo, night_hi = layout.night_window
    for m in range(n_minutes):
        minute_start = start + m * MS_PER_MINUTE
        ev = MinuteEvidence(
            minute_start=minute_start,
            is_night=in_clock_window(minute_start, night_lo, night_hi, layout.tz_offset_min),
            restroom_triggers=int(restroom_triggers[m]),
            doorway_triggers=int(doorway_triggers[m]),
            other_motion_triggers=int(other_triggers[m]),
            light_step_max=float(light_step[m]),
        )
        for role, records in per_minute.get(m, {}).items():
            ev.rooms[role] = RoomEvidence(
                room_role=role,
                majority_posture=_majority_posture(records),
                mean_motion_index=float(np.mean([r.motion_index for r in records])),
                blob_count_max=max(r.blob_count for r in records),
                multi_blob_windows=sum(1 for r in records if r.blob_count >= 2),
                window_count=len(records),
                theta_active=theta_of_role[role],
            )
        evidence.append(ev)

    params = RuleParams(
        k_rest=config.k_rest,
        theta_active=max(thetas.values()) if thetas else THETA_FALLBACK,
        w_night=config.w_night,
        s_vis=config.s_vis,
        min_away_min=config.min_away_min,
        carry_forward_max=config.carry_forward_max,
    )
    timeline = classify_timeline(evidence, params)
    timeline = detect_not_at_home(timeline, np.array(sorted(doorway_trigger_ts)), params)
    return PipelineResult(timeline, tracks, thetas, evidence)
