"""End-to-end batch pipeline: sensor streams -> residuals -> posture windows
-> minute evidence -> rule cascade -> post-hoc not-at-home -> timeline.

Reads one [start, end) window of a RecordStore: each sensor's readings as
one time-ordered series and each thermal sensor's frames as one block.

The frame block passes through as one columnar window stack, with no
per-window objects: `build_windows` tiles the frames into 20-frame windows
and drops the off-cadence ones (only the timestamps decide, so this runs
before the tracker), the tracker turns the frames into residuals,
`stack_windows` returns the kept windows as a [k, 20, r, r] view (one
gather when they are not consecutive), and batched kernels compute the
motion indices, the blob counts of the 32x32 window means and the
postures (256-window inference batches).  A `SensorTrack` keeps one array per
column.  The minute evidence is one frame of columns (`MinuteEvidence`):
the tracks' windows are scattered into its [n_minutes, 6] room columns,
the motion triggers and light steps are counted into its per-minute
columns, and the rule cascade and the not-at-home pass read the frame.

Posture inference of a sensor starts before its tracker runs
(`PostureNet.run_ahead`): the tracker reports after each slab how many
residual frames are final, each report raises the count of kept windows
whose frames are all final, and the helper thread runs the inference
blocks of those windows while the caller finishes the tracker, the motion
index and the blob count.  `predict_labels` then stops the helper and runs
the blocks it has not done, with the helper's help again.  The helper is
engaged only when BLAS runs one thread and more than one core is usable
(`OPENBLAS_NUM_THREADS=1 hometwin run ...`); otherwise every block runs on
the caller at the join, in the order of the serial loop.  Either way the
logits are the same bits as serially; see `posture.net`.
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
from .posture.windows import build_windows, stack_windows, tile_stack
from .activity.evidence import MinuteEvidence
from .activity.rules import ActivityTimeline, classify_timeline, detect_not_at_home
from .thermal import BaselineTracker, count_blobs, motion_index

# windows per inference call; the batch moves logit bits (see
# `PostureNet.predict_labels`), so it is part of every timeline
INFER_BATCH = 256


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

    (block,) = source.frame_blocks(sensor_id)
    kept = off_cadence = np.empty(0, dtype=np.int64)
    if len(block):
        kept, off_cadence = build_windows(block.timestamps, block.pixels_centi)
    ahead = residuals = None

    def progress(made: np.ndarray, final: int) -> None:
        nonlocal residuals
        residuals = made
        if ahead is not None:  # the kept windows whose frames are all final
            ahead.advance(int(np.searchsorted(kept, final // WINDOW_FRAMES)))

    tracker = BaselineTracker(resolution, config, progress)
    ambient = _ambient_lookup(source, spec.room_id)
    if ambient is not None and len(ambient):
        tracker.set_ambient_series(ambient.timestamps, ambient.values)
    start = block.timestamps[kept * WINDOW_FRAMES]
    motion = np.empty(0, dtype=np.float64)
    blobs = posture = np.empty(0, dtype=np.int64)
    if model is not None and len(kept):  # inference starts as the tracker runs
        ahead = model.run_ahead(
            len(kept), INFER_BATCH, lambda a, b: tile_stack(residuals, kept[a:b])
        )
    try:
        if len(block):
            residuals = tracker.process(block.timestamps, block.pixels_centi)
        if len(kept):
            windows = stack_windows(residuals, kept)
            motion = motion_index(windows)
            if resolution == 32:
                blobs = count_blobs(
                    windows.mean(axis=1), config.blob_threshold_c, config.blob_min_pixels
                )
            else:
                blobs = np.zeros(len(kept), dtype=np.int64)
            posture = (
                model.predict_labels(windows, INFER_BATCH, ahead=ahead)
                if model is not None
                else np.full(len(kept), PostureLabel.NOT_HERE.value, dtype=np.int64)
            )
    except BaseException:
        if ahead is not None:
            ahead.cancel()  # its helper would wait for frames that never come
        raise

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The room columns of the minute evidence, folded from the track
    columns: `seen`, `majority_posture`, `mean_motion_index` and
    `multi_blob_windows` per (minute, role), `[n_minutes, 6]` in `RoomRole`
    order, and each role's activity gate `[6]`, the gate in `gates` of the
    role's last sensor by sensor id.

    A (minute, role) group keeps its windows in track order (by sensor id),
    then in time order.  Its mean motion index is `np.mean` over the group
    in that order, so it matches a per-window fold bit for bit; a tie for
    the majority posture goes to the lowest label.
    """
    roles = list(RoomRole)
    shape = (n_minutes, len(roles))
    seen = np.zeros(shape, dtype=bool)
    majority = np.full(shape, PostureLabel.NOT_HERE.value, dtype=np.int64)
    mean = np.zeros(shape)
    multi_blob = np.zeros(shape, dtype=np.int64)
    theta = np.zeros(len(roles))
    for sensor_id, track in tracks.items():
        theta[roles.index(track.room_role)] = gates[sensor_id]
    ordered = list(tracks.values())
    rooms = seen, majority, mean, multi_blob, theta
    if not ordered:
        return rooms

    # one key per window, its flat (minute, role) cell; the stable sort keeps
    # track order, then time order, inside each cell
    sizes = [len(t.start) for t in ordered]
    minute = np.concatenate([(t.start - start) // MS_PER_MINUTE for t in ordered])
    key = minute * len(roles) + np.repeat([roles.index(t.room_role) for t in ordered], sizes)
    inside = np.flatnonzero((key >= 0) & (key < seen.size))
    pick = inside[np.argsort(key[inside], kind="stable")]
    if not len(pick):
        return rooms
    key = key[pick]
    motion = np.concatenate([t.motion_index for t in ordered])[pick]
    blobs = np.concatenate([t.blob_count for t in ordered])[pick]
    posture = np.concatenate([t.posture for t in ordered])[pick]

    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    bounds = np.r_[first, len(key)].tolist()
    group = np.repeat(np.arange(len(first)), np.diff(bounds))
    n_labels = len(PostureLabel)
    cells = key[first]
    seen.flat[cells] = True
    majority.flat[cells] = (
        np.bincount(group * n_labels + posture, minlength=len(first) * n_labels)
        .reshape(-1, n_labels)
        .argmax(axis=1)
    )
    mean.flat[cells] = [np.mean(motion[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    multi_blob.flat[cells] = np.add.reduceat((blobs >= 2).astype(np.int64), first)
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
    # keyed by room role; None counts the triggers of every other room
    triggers = {
        role: np.zeros(n_minutes, dtype=np.int64) for role in (RoomRole.RESTROOM, RoomRole.DOORWAY, None)
    }
    doorway_ts = [np.empty(0, dtype=np.int64)]
    light_step = np.zeros(n_minutes)

    for spec in layout.sensors(kind=SensorKind.MOTION):
        series = source.readings(spec.sensor_id)
        if not len(series):
            continue
        hot = series.timestamps[series.values > 0.5]
        role = layout.room(spec.room_id).role
        minutes = ((hot - start) // MS_PER_MINUTE).astype(int)
        minutes = minutes[(minutes >= 0) & (minutes < n_minutes)]
        np.add.at(triggers.get(role, triggers[None]), minutes, 1)
        if role is RoomRole.DOORWAY:
            doorway_ts.append(hot)

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
    seen, majority, mean, multi_blob, theta = _room_evidence(tracks, gates, start, n_minutes)
    minute_start = start + MS_PER_MINUTE * np.arange(n_minutes, dtype=np.int64)
    evidence = MinuteEvidence(
        minute_start=minute_start,
        is_night=in_clock_window(minute_start, *layout.night_window, layout.tz_offset_min),
        restroom_triggers=triggers[RoomRole.RESTROOM],
        doorway_triggers=triggers[RoomRole.DOORWAY],
        other_motion_triggers=triggers[None],
        light_step_max=light_step,
        seen=seen,
        majority_posture=majority,
        mean_motion_index=mean,
        multi_blob_windows=multi_blob,
        theta_active=theta,
    )

    timeline = classify_timeline(evidence, config)
    timeline = detect_not_at_home(timeline, np.concatenate(doorway_ts), config)
    return PipelineResult(timeline, tracks, thetas)
