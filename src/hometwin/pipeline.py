"""End-to-end batch pipeline: sensor streams -> residuals -> posture windows
-> minute evidence -> rule cascade -> post-hoc not-at-home -> timeline.

Reads one [start, end) window of a RecordStore: each sensor's readings as
one time-ordered series and each thermal sensor's frames as one block.

The frame block passes through as one columnar window stack, with no
per-window objects: the tracker turns it into residuals, `build_windows`
tiles them into 20-frame windows and drops the off-cadence ones,
`stack_windows` returns the kept windows as a [k, 20, r, r] view (one
gather when some were dropped), and batched kernels compute the motion
indices, the blob counts of the 32x32 window means and the postures
(256-window inference batches).  A `SensorTrack` keeps one array per
column, and the per-minute room evidence is folded from those arrays.

Inference uses a second core when BLAS runs one thread and more than one
core is usable (`OPENBLAS_NUM_THREADS=1 hometwin run ...`): each batch's
blocks are split between the caller and one helper thread, with the same
logits as serially.  Under a BLAS that runs a thread per core (no thread
count set) inference stays serial; see `posture.net`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .core import (
    MS_PER_MINUTE,
    WINDOW_FRAMES,
    WINDOW_MS,
    FrameBlock,
    PostureLabel,
    ReadingSeries,
    SensorKind,
    in_clock_window,
)
from .ingestion.store import RecordStore
from .layout import HomeLayout, RoomRole
from .posture.net import PostureNet
from .posture.windows import build_windows, stack_windows
from .activity.evidence import MinuteEvidence, RoomEvidence
from .activity.rules import ActivityTimeline, classify_timeline, detect_not_at_home
from .thermal import BaselineTracker, count_blobs, motion_index


@dataclass
class WindowRecord:
    """One classified 5 s window of one thermal sensor."""

    sensor_id: str
    start: int
    interval_index: int  # position on the scenario-wide 5 s grid
    motion_index: float
    blob_count: int
    posture: PostureLabel


@dataclass(eq=False)
class SensorTrack:
    """The classified 5 s windows of one thermal sensor, one array per
    column, in time order."""

    sensor_id: str
    room_id: str
    room_role: RoomRole
    resolution: int
    start: np.ndarray  # int64: timestamp of each window's first frame
    interval_index: np.ndarray  # int64: position on the scenario-wide 5 s grid
    motion_index: np.ndarray  # float64
    blob_count: np.ndarray  # int64; 0 below 32x32
    posture: np.ndarray  # int64 PostureLabel values
    dropped_windows: int
    calibration_events: list[int]

    @property
    def windows(self) -> list[WindowRecord]:
        """The columns as records, built on each access; the pipeline itself
        reads only the columns."""
        return [
            WindowRecord(self.sensor_id, start, index, motion, blobs, PostureLabel(posture))
            for start, index, motion, blobs, posture in zip(
                self.start.tolist(),
                self.interval_index.tolist(),
                self.motion_index.tolist(),
                self.blob_count.tolist(),
                self.posture.tolist(),
            )
        ]


@dataclass
class PipelineResult:
    timeline: ActivityTimeline
    tracks: dict[str, SensorTrack]
    thetas: dict[str, float]  # sensor_id -> activity gate used
    evidence: list[MinuteEvidence]


@dataclass
class StreamSource:
    """The [start, end) window of a record store, per sensor.

    A sensor with nothing in the window reads as an empty series or block
    of the kind and resolution its layout gives it."""

    layout: HomeLayout
    store: RecordStore
    start: int
    end: int

    def readings(self, sensor_id: str) -> ReadingSeries:
        series = self.store.query_readings(sensor_id, self.start, self.end)
        if len(series):
            return series
        kind = self.layout.sensor(sensor_id).kind
        return ReadingSeries(sensor_id, kind, np.empty(0, dtype=np.int64), np.empty(0))

    def frame_blocks(self, sensor_id: str) -> list[FrameBlock]:
        """The sensor's frames as a one-block list, the form the sleep
        analytics take."""
        block = self.store.query_frames(sensor_id, self.start, self.end)
        if not len(block):
            res = self.layout.sensor(sensor_id).kind.resolution
            block = FrameBlock(
                sensor_id, res, np.empty(0, dtype=np.int64), np.empty((0, res, res), dtype=np.int16)
            )
        return [block]


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
    """Baseline-filter the sensor's frames and classify every 5 s window."""
    spec = source.layout.sensor(sensor_id)
    room = source.layout.room(spec.room_id)
    resolution = spec.kind.resolution

    tracker = BaselineTracker(resolution, config)
    ambient = _ambient_lookup(source, spec.room_id)
    if ambient is not None and len(ambient):
        tracker.set_ambient_series(ambient.timestamps, ambient.values)

    (block,) = source.frame_blocks(sensor_id)
    kept = off_cadence = np.empty(0, dtype=np.int64)
    if len(block):
        residuals = tracker.process(block.timestamps, block.pixels_centi)
        kept, off_cadence = build_windows(block.timestamps, residuals)
    start = block.timestamps[kept * WINDOW_FRAMES]
    motion = np.empty(0, dtype=np.float64)
    blobs = posture = np.empty(0, dtype=np.int64)
    if len(kept):
        windows = stack_windows(residuals, kept)
        motion = motion_index(windows)
        if resolution == 32:
            blobs = count_blobs(
                windows.mean(axis=1), config.blob_threshold_c, config.blob_min_pixels
            )
        else:
            blobs = np.zeros(len(kept), dtype=np.int64)
        posture = _classify(model, windows)

    return SensorTrack(
        sensor_id,
        spec.room_id,
        room.role,
        resolution,
        start=start,
        interval_index=np.rint((start - source.start) / WINDOW_MS).astype(np.int64),
        motion_index=motion,
        blob_count=blobs,
        posture=posture,
        dropped_windows=len(off_cadence),
        calibration_events=list(tracker.calibration_events),
    )


def _classify(model: PostureNet | None, windows: np.ndarray) -> np.ndarray:
    """PostureLabel values of a window stack, in 256-window batches."""
    if model is None:
        return np.full(len(windows), PostureLabel.NOT_HERE.value, dtype=np.int64)
    # Keep the batches: each call starts its own block grid
    # (PostureNet._block_rows), and a dense layer's GEMM rounds by its
    # block's row count, so other batch sizes can give other logit bits.
    batch = 256
    return np.concatenate(
        [
            model.predict_proba(windows[lo : lo + batch]).argmax(axis=1)
            for lo in range(0, len(windows), batch)
        ]
    )


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
    pooled: dict[int, list[np.ndarray]] = {}
    for track in tracks.values():
        pooled.setdefault(track.resolution, []).append(track.motion_index)
    gates = {}
    for resolution, parts in pooled.items():
        values = np.concatenate(parts)
        gates[resolution] = (
            THETA_MULTIPLIER.get(resolution, 2.0) * float(np.percentile(values, 25))
            if len(values)
            else THETA_FALLBACK
        )
    return gates


def _room_evidence(
    tracks: dict[str, SensorTrack],
    gates: dict[str, float],
    start: int,
    n_minutes: int,
) -> list[dict[RoomRole, RoomEvidence]]:
    """Per minute, the evidence of each thermal room role, folded from the
    track columns, with each role's activity gate from `gates` (by sensor).

    A (minute, role) group keeps the windows in track order (by sensor id),
    then in time order, and its roles are keyed in the order the tracks
    first reach them that minute.  The mean motion index is `np.mean` over
    each group in that order, so it matches a per-window fold bit for bit;
    a tie for the majority posture goes to the lowest label.
    """
    rooms: list[dict[RoomRole, RoomEvidence]] = [{} for _ in range(n_minutes)]
    ordered = list(tracks.values())
    if not ordered:
        return rooms
    roles = list(RoomRole)
    theta_of_role = {track.room_role: gates[sid] for sid, track in tracks.items()}

    # one key per window, minute * len(roles) + role; the stable sort keeps
    # track order, then time order, inside each (minute, role) group
    sizes = [len(t.start) for t in ordered]
    minute = np.concatenate([(t.start - start) // MS_PER_MINUTE for t in ordered])
    key = minute * len(roles) + np.repeat([roles.index(t.room_role) for t in ordered], sizes)
    inside = np.flatnonzero((key >= 0) & (key < n_minutes * len(roles)))
    pick = inside[np.argsort(key[inside], kind="stable")]
    if not len(pick):
        return rooms
    key = key[pick]
    track_of = np.repeat(np.arange(len(ordered)), sizes)[pick]
    motion = np.concatenate([t.motion_index for t in ordered])[pick]
    blobs = np.concatenate([t.blob_count for t in ordered])[pick]
    posture = np.concatenate([t.posture for t in ordered])[pick]

    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    bounds = np.r_[first, len(key)]
    group = np.repeat(np.arange(len(first)), np.diff(bounds))
    n_labels = len(PostureLabel)
    majority = (
        np.bincount(group * n_labels + posture, minlength=len(first) * n_labels)
        .reshape(-1, n_labels)
        .argmax(axis=1)
    )
    blob_max = np.maximum.reduceat(blobs, first)
    multi_blob = np.add.reduceat((blobs >= 2).astype(np.int64), first)

    group_minute = key[first] // len(roles)
    for g in np.lexsort((track_of[first], group_minute)).tolist():
        lo, hi = int(bounds[g]), int(bounds[g + 1])
        role = roles[int(key[lo]) % len(roles)]
        rooms[int(group_minute[g])][role] = RoomEvidence(
            room_role=role,
            majority_posture=PostureLabel(int(majority[g])),
            mean_motion_index=float(np.mean(motion[lo:hi])),
            blob_count_max=int(blob_max[g]),
            multi_blob_windows=int(multi_blob[g]),
            window_count=hi - lo,
            theta_active=theta_of_role[role],
        )
    return rooms


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

    # a sensor whose gate came out 0 is gated at the largest of the others
    fallback = max(thetas.values()) if thetas else THETA_FALLBACK
    gates = {sid: theta if theta > 0 else fallback for sid, theta in thetas.items()}
    rooms = _room_evidence(tracks, gates, start, n_minutes)
    evidence: list[MinuteEvidence] = []
    night_lo, night_hi = layout.night_window
    for m in range(n_minutes):
        minute_start = start + m * MS_PER_MINUTE
        evidence.append(
            MinuteEvidence(
                minute_start=minute_start,
                is_night=in_clock_window(
                    minute_start, night_lo, night_hi, layout.tz_offset_min
                ),
                rooms=rooms[m],
                restroom_triggers=int(restroom_triggers[m]),
                doorway_triggers=int(doorway_triggers[m]),
                other_motion_triggers=int(other_triggers[m]),
                light_step_max=float(light_step[m]),
            )
        )

    timeline = classify_timeline(evidence, config)
    timeline = detect_not_at_home(timeline, np.array(sorted(doorway_trigger_ts)), config)
    return PipelineResult(timeline, tracks, thetas, evidence)
