"""Differential tests: the columnar window stack against the former
per-window path.

The oracle below is the code the pipeline ran before a frame block passed
through as one window stack: `build_windows` made one `PostureWindow` per
tile, `motion_index` and a pure-Python flood-fill `count_blobs` ran once per
window, every window became a `WindowRecord`, and `run_pipeline` folded those
records through dicts of lists into per-minute evidence records.  The
batched kernels and the columnar pipeline must give exactly the same values:
the same floats bit for bit and the same counts; the records' frame
(`test_rules_oracle.frame_of`) must equal the pipeline's bit for bit.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from hometwin.config import PipelineConfig
from hometwin.core import (
    FRAME_PERIOD_MS,
    MS_PER_MINUTE,
    FrameBlock,
    PostureLabel,
    SensorKind,
    in_clock_window,
    parse_epoch,
)
from hometwin.errors import DimensionError, InsufficientDataError, ResolutionError
from hometwin.layout import HomeLayout, ModulePlacement, ModuleType, Room, RoomRole, default_layout
from hometwin.pipeline import (
    THETA_FALLBACK,
    THETA_MULTIPLIER,
    SensorTrack,
    StreamSource,
    _ambient_lookup,
    _room_evidence,
    run_pipeline,
)
from hometwin.posture.net import PostureNet, config_for_resolution
from hometwin.posture.windows import build_windows, stack_windows
from hometwin.simulate import OccupyRoom, ScenarioScript, simulate
from hometwin.simulate.scenario import VisitorEnter, VisitorLeave
from hometwin.thermal import MOTION_BLOCK_BYTES, BaselineTracker, count_blobs, motion_index

from conftest import store_source
from test_rules_oracle import (
    MinuteEvidence,
    RoomEvidence,
    frame_bits,
    frame_of,
    oracle_classify_timeline,
    oracle_detect_not_at_home,
)

# -- the per-window oracle -----------------------------------------------------


def flood_fill_count_blobs(residual: np.ndarray, threshold: float = 2.0, min_pixels: int = 3) -> int:
    """Former `thermal.count_blobs`: 4-connected components of one 32x32
    residual with >= min_pixels pixels above threshold."""
    hot = residual > threshold
    labels = np.zeros(hot.shape, dtype=np.int32)
    current = 0
    count = 0
    for i in range(32):
        for j in range(32):
            if not hot[i, j] or labels[i, j]:
                continue
            current += 1
            size = 0
            stack = [(i, j)]
            labels[i, j] = current
            while stack:
                y, x = stack.pop()
                size += 1
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < 32 and 0 <= nx < 32 and hot[ny, nx] and not labels[ny, nx]:
                        labels[ny, nx] = current
                        stack.append((ny, nx))
            if size >= min_pixels:
                count += 1
    return count


def per_window_motion_index(frames: np.ndarray) -> float:
    """Former `thermal.motion_index` of one [n, r, r] window."""
    frames = np.asarray(frames, dtype=np.float64)
    return float(np.abs(np.diff(frames, axis=0)).mean())


@dataclass
class PostureWindow:
    start: int
    frames: np.ndarray


def reference_build_windows(timestamps, frames, period_ms=FRAME_PERIOD_MS, tolerance=0.10):
    """Former `build_windows` (stride 1): one PostureWindow per kept tile."""
    lo_ms = period_ms * (1.0 - tolerance)
    hi_ms = period_ms * (1.0 + tolerance)
    windows, dropped = [], []
    for index, base in enumerate(range(0, len(timestamps) - 20 + 1, 20)):
        ts = timestamps[base : base + 20]
        spacing = np.diff(ts)
        if len(spacing) and (spacing.min() < lo_ms or spacing.max() > hi_ms):
            dropped.append(index)
        else:
            windows.append(PostureWindow(int(ts[0]), frames[base : base + 20]))
    return windows, dropped


@dataclass
class Record:
    sensor_id: str
    start: int
    interval_index: int
    motion_index: float
    blob_count: int
    posture: PostureLabel


@dataclass
class ReferenceTrack:
    sensor_id: str
    room_role: RoomRole
    resolution: int
    records: list[Record]
    dropped_windows: int
    calibration_events: list[int]


def reference_track(source, sensor_id, model, config) -> ReferenceTrack:
    """Former `_process_thermal_sensor`: one record per window."""
    spec = source.layout.sensor(sensor_id)
    room = source.layout.room(spec.room_id)
    resolution = spec.kind.resolution
    track = ReferenceTrack(sensor_id, room.role, resolution, [], 0, [])
    tracker = BaselineTracker(resolution, config)
    ambient = _ambient_lookup(source, spec.room_id)
    if ambient is not None and len(ambient):
        tracker.set_ambient_series(ambient.timestamps, ambient.values)
    window_ms = FRAME_PERIOD_MS * 20
    for block in source.frame_blocks(sensor_id):
        if not len(block):
            continue
        residuals = tracker.process(block.timestamps, block.pixels_centi)
        windows, dropped = reference_build_windows(block.timestamps, residuals)
        track.dropped_windows += len(dropped)
        records = [
            Record(
                sensor_id,
                w.start,
                int(round((w.start - source.start) / window_ms)),
                per_window_motion_index(w.frames),
                (
                    flood_fill_count_blobs(
                        w.frames.mean(axis=0), config.blob_threshold_c, config.blob_min_pixels
                    )
                    if resolution == 32
                    else 0
                ),
                PostureLabel.NOT_HERE,
            )
            for w in windows
        ]
        if model is not None:
            for lo in range(0, len(windows), 256):
                x = np.stack([w.frames for w in windows[lo : lo + 256]]).astype(np.float32)
                for rec, row in zip(records[lo : lo + 256], model.predict_proba(x)):
                    rec.posture = PostureLabel(int(row.argmax()))
        track.records.extend(records)
    track.calibration_events = list(tracker.calibration_events)
    return track


def reference_auto_theta(tracks: list[ReferenceTrack]) -> dict[int, float]:
    pooled: dict[int, list[float]] = {}
    for track in tracks:
        pooled.setdefault(track.resolution, []).extend(r.motion_index for r in track.records)
    return {
        resolution: THETA_MULTIPLIER.get(resolution, 2.0) * float(np.percentile(values, 25))
        if values
        else THETA_FALLBACK
        for resolution, values in pooled.items()
    }


def reference_majority(records: list[Record]) -> PostureLabel:
    counts: dict[PostureLabel, int] = {}
    for rec in records:
        counts[rec.posture] = counts.get(rec.posture, 0) + 1
    return max(counts.items(), key=lambda kv: (kv[1], -kv[0].value))[0]


def reference_theta(tracks: list[ReferenceTrack], thetas: dict[str, float]) -> np.ndarray:
    """Each role's gate: its last sensor's, in track order."""
    theta_of_role = {t.room_role: thetas[t.sensor_id] for t in tracks}
    return np.array([theta_of_role.get(role, 0.0) for role in RoomRole])


def reference_fold(tracks: list[ReferenceTrack], thetas: dict[str, float], start: int, n_minutes: int):
    """Former evidence fold: per minute, the room evidence of each role."""
    per_minute: dict[int, dict[RoomRole, list[Record]]] = {}
    theta_of_role = {t.room_role: thetas[t.sensor_id] for t in tracks}
    for track in tracks:
        for rec in track.records:
            minute = (rec.start - start) // MS_PER_MINUTE
            if 0 <= minute < n_minutes:
                per_minute.setdefault(minute, {}).setdefault(track.room_role, []).append(rec)
    rooms = []
    for m in range(n_minutes):
        rooms.append(
            {
                role: RoomEvidence(
                    majority_posture=reference_majority(records),
                    mean_motion_index=float(np.mean([r.motion_index for r in records])),
                    multi_blob_windows=sum(1 for r in records if r.blob_count >= 2),
                    theta_active=theta_of_role[role],
                )
                for role, records in per_minute.get(m, {}).items()
            }
        )
    return rooms


def reference_run(source: StreamSource, models, config: PipelineConfig):
    """Former `run_pipeline`, with the per-window tracks and fold above."""
    layout = source.layout
    tracks = [
        reference_track(source, spec.sensor_id, models.get(spec.kind.resolution), config)
        for spec in sorted(layout.thermal_sensors(), key=lambda s: s.sensor_id)
    ]
    if config.theta_active > 0:
        thetas = {t.sensor_id: config.theta_active for t in tracks}
    else:
        by_resolution = reference_auto_theta(tracks)
        thetas = {t.sensor_id: by_resolution[t.resolution] for t in tracks}
    n_minutes = (source.end - source.start) // MS_PER_MINUTE
    start = source.start
    restroom = np.zeros(n_minutes, dtype=np.int64)
    doorway = np.zeros(n_minutes, dtype=np.int64)
    other = np.zeros(n_minutes, dtype=np.int64)
    doorway_ts: list[int] = []
    light_step = np.zeros(n_minutes)
    for spec in layout.sensors(kind=SensorKind.MOTION):
        series = source.readings(spec.sensor_id)
        if not len(series):
            continue
        hot = series.timestamps[series.values > 0.5]
        role = layout.room(spec.room_id).role
        minutes = ((hot - start) // MS_PER_MINUTE).astype(int)
        minutes = minutes[(minutes >= 0) & (minutes < n_minutes)]
        target = {RoomRole.RESTROOM: restroom, RoomRole.DOORWAY: doorway}.get(role, other)
        np.add.at(target, minutes, 1)
        if role is RoomRole.DOORWAY:
            doorway_ts.extend(int(t) for t in hot)
    for spec in layout.sensors(kind=SensorKind.LIGHT):
        series = source.readings(spec.sensor_id)
        if len(series) < 2:
            continue
        steps = np.abs(np.diff(series.values))
        minutes = ((series.timestamps[1:] - start) // MS_PER_MINUTE).astype(int)
        ok = (minutes >= 0) & (minutes < n_minutes)
        np.maximum.at(light_step, minutes[ok], steps[ok])
    fallback = max(thetas.values()) if thetas else THETA_FALLBACK
    gates = {sid: theta if theta > 0 else fallback for sid, theta in thetas.items()}
    rooms = reference_fold(tracks, gates, start, n_minutes)
    night_lo, night_hi = layout.night_window
    evidence = []
    for m in range(n_minutes):
        minute_start = start + m * MS_PER_MINUTE
        ev = MinuteEvidence(
            minute_start=minute_start,
            is_night=in_clock_window(minute_start, night_lo, night_hi, layout.tz_offset_min),
            restroom_triggers=int(restroom[m]),
            doorway_triggers=int(doorway[m]),
            other_motion_triggers=int(other[m]),
            light_step_max=float(light_step[m]),
        )
        ev.rooms.update(rooms[m])
        evidence.append(ev)
    timeline = oracle_classify_timeline(evidence, config)
    timeline = oracle_detect_not_at_home(timeline, np.array(sorted(doorway_ts)), config)
    return tracks, thetas, frame_of(evidence, reference_theta(tracks, gates)), timeline


# -- batched kernels against the oracle ----------------------------------------


def random_stack(rng, k, density):
    """Window means with each pixel above 2.0 with probability `density`."""
    hot = rng.random((k, 32, 32)) < density
    return np.where(hot, rng.uniform(2.01, 9.0, hot.shape), rng.uniform(0.0, 2.0, hot.shape)).astype(
        np.float32
    )


def assert_blobs_match(stack, threshold=2.0, min_pixels=3):
    got = count_blobs(stack, threshold, min_pixels)
    assert got.dtype == np.int64 and got.shape == (len(stack),)
    want = [flood_fill_count_blobs(w, threshold, min_pixels) for w in stack]
    assert got.tolist() == want


def snake(vertical: bool) -> np.ndarray:
    """A one-pixel serpentine: every other line hot, joined at alternate ends."""
    m = np.zeros((32, 32), dtype=np.float32)
    m[:, ::2] = 5.0
    for i, c in enumerate(range(0, 30, 2)):
        m[31 if i % 2 == 0 else 0, c + 1] = 5.0
    return m if vertical else m.T.copy()


def spiral() -> np.ndarray:
    """A one-pixel square spiral from the outer edge inwards, arms two apart."""
    m = np.zeros((32, 32), dtype=np.float32)
    y, x, d = 0, 0, 0
    steps = ((0, 1), (1, 0), (0, -1), (-1, 0))
    m[y, x] = 5.0
    for _ in range(32 * 32):
        for turn in range(4):
            dy, dx = steps[(d + turn) % 4]
            ny, nx = y + dy, x + dx
            if not (0 <= ny < 32 and 0 <= nx < 32) or m[ny, nx]:
                continue
            touching = sum(
                1
                for ey, ex in steps
                if 0 <= ny + ey < 32 and 0 <= nx + ex < 32 and m[ny + ey, nx + ex]
            )
            ay, ax = ny + dy, nx + dx
            if touching == 1 and not (0 <= ay < 32 and 0 <= ax < 32 and m[ay, ax]):
                m[ny, nx] = 5.0
                y, x, d = ny, nx, (d + turn) % 4
                break
        else:
            break
    return m


class TestCountBlobs:
    @pytest.mark.parametrize("density", [0.02, 0.1, 0.3, 0.45, 0.55, 0.7, 0.9, 1.0])
    @pytest.mark.parametrize("min_pixels", [1, 3, 5])
    def test_random_masks(self, density, min_pixels):
        rng = np.random.default_rng(int(density * 100) + 7 * min_pixels)
        assert_blobs_match(random_stack(rng, 40, density), min_pixels=min_pixels)

    @pytest.mark.parametrize("min_pixels", [1, 3, 5])
    def test_snakes_and_spirals(self, min_pixels):
        shapes = [snake(True), snake(False), spiral(), spiral().T.copy(), spiral()[::-1].copy()]
        rng = np.random.default_rng(min_pixels)
        stack = np.stack(shapes + [random_stack(rng, 1, 0.5)[0]] + shapes[::-1])
        assert_blobs_match(stack, min_pixels=min_pixels)
        assert count_blobs(stack[:5], 2.0, 1).tolist() == [1] * 5

    def test_spiral_is_one_long_component(self):
        m = spiral()
        assert int((m > 0).sum()) > 400
        assert count_blobs(m[None], 2.0, 400).tolist() == [1]

    def test_pixels_at_threshold_are_not_hot(self):
        stack = np.full((3, 32, 32), 2.0, dtype=np.float32)
        stack[1, 4:8, 4:8] = np.nextafter(np.float32(2.0), np.float32(9.0))
        stack[2] = 1.5
        stack[2, ::2, ::2] = 2.5  # isolated pixels: 4-connectivity keeps them apart
        assert count_blobs(stack, 2.0, 3).tolist() == [0, 1, 0]
        assert count_blobs(stack, 2.0, 1).tolist() == [0, 1, 256]
        assert_blobs_match(stack, min_pixels=1)
        assert count_blobs(stack, 1.5, 1).tolist() == [1, 1, 256]

    def test_blobs_do_not_join_across_windows(self):
        stack = np.zeros((3, 32, 32), dtype=np.float32)
        stack[0, 31, 10:12] = 5.0  # last row of window 0 ...
        stack[1, 0, 10:12] = 5.0  # ... above the first row of window 1
        stack[1, 31, :] = 5.0
        stack[2, 0, :] = 5.0
        assert count_blobs(stack, 2.0, 1).tolist() == [1, 2, 1]
        assert count_blobs(stack, 2.0, 3).tolist() == [0, 1, 1]
        assert_blobs_match(stack, min_pixels=3)

    def test_runs_do_not_wrap_across_rows(self):
        stack = np.zeros((1, 32, 32), dtype=np.float32)
        stack[0, 5, 31] = 5.0  # end of one row ...
        stack[0, 6, 0] = 5.0  # ... and the start of the next are not neighbours
        assert count_blobs(stack, 2.0, 1).tolist() == [2]

    def test_empty_stack(self):
        got = count_blobs(np.zeros((0, 32, 32), dtype=np.float32), 2.0, 3)
        assert got.dtype == np.int64 and got.shape == (0,)

    @pytest.mark.parametrize("shape", [(3, 4, 4), (32, 32), (2, 32, 16)])
    def test_other_resolutions_raise(self, shape):
        with pytest.raises(ResolutionError):
            count_blobs(np.zeros(shape), 2.0, 3)


class TestMotionIndex:
    @pytest.mark.parametrize("resolution", [4, 32])
    def test_matches_per_window_bit_for_bit(self, resolution):
        rng = np.random.default_rng(resolution)
        step = max(1, MOTION_BLOCK_BYTES // (39 * resolution * resolution * 8))
        for k in sorted({1, max(1, step - 1), step, step + 1, 2 * step + 3}):
            stack = rng.normal(0.0, 2.0, size=(k, 20, resolution, resolution)).astype(np.float32)
            np.maximum(stack, 0.0, out=stack)  # residuals are clamped at zero
            stack[:, :, 0, 0] *= 1e4  # a wide range of magnitudes
            got = motion_index(stack)
            assert got.dtype == np.float64
            assert got.tolist() == [per_window_motion_index(w) for w in stack]

    def test_value_does_not_depend_on_neighbours(self):
        rng = np.random.default_rng(3)
        stack = rng.uniform(0, 3, size=(9, 20, 32, 32)).astype(np.float32)
        whole = motion_index(stack)
        assert [motion_index(stack[i : i + 1])[0] for i in range(9)] == whole.tolist()

    def test_empty_stack(self):
        got = motion_index(np.zeros((0, 20, 4, 4), dtype=np.float32))
        assert got.dtype == np.float64 and got.shape == (0,)

    def test_bad_shapes_raise(self):
        with pytest.raises(InsufficientDataError):
            motion_index(np.zeros((2, 1, 4, 4)))
        with pytest.raises(DimensionError):
            motion_index(np.zeros((20, 4, 4)))


class TestWindowStack:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_window_tiling(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 400))
        spacing = np.full(n, 250, dtype=np.int64)
        spacing += rng.integers(-20, 21, size=n)  # jitter within tolerance
        gaps = rng.random(n) < 0.01
        spacing[gaps] += rng.integers(30, 3000, size=int(gaps.sum()))
        ts = 1_700_000_000_000 + np.cumsum(spacing)
        frames = rng.uniform(0, 5, size=(n, 4, 4)).astype(np.float32)
        kept, dropped = build_windows(ts, frames)
        want, want_dropped = reference_build_windows(ts, frames)
        assert dropped.tolist() == want_dropped
        assert len(kept) == len(want)
        assert ts[kept * 20].tolist() == [w.start for w in want]
        stack = stack_windows(frames, kept)
        assert stack.dtype == np.float32 and stack.shape == (len(want), 20, 4, 4)
        assert all(np.array_equal(s, w.frames) for s, w in zip(stack, want))

    def test_stack_is_a_view_when_nothing_is_dropped(self):
        ts = 250 * np.arange(95, dtype=np.int64)
        frames = np.zeros((95, 4, 4), dtype=np.float32)
        kept, dropped = build_windows(ts, frames)
        assert len(kept) == 4 and len(dropped) == 0
        assert np.shares_memory(stack_windows(frames, kept), frames)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_windows(250 * np.arange(40, dtype=np.int64), np.zeros((39, 4, 4)))


# -- the columnar pipeline against the per-window pipeline ---------------------

EPOCH = parse_epoch("2024-03-04T10:00:00")


def at(minute: float) -> int:
    return EPOCH + int(minute * MS_PER_MINUTE)


def shared_role_layout() -> HomeLayout:
    """Two bedrooms (their sensors sort apart: "bedroom" < "dining" <
    "guest") and a 4x4 and a 32x32 sensor in the one living room."""
    rooms = [
        Room("bedroom", "Bedroom", RoomRole.BEDROOM, (0.0, 0.0, 4.0, 3.5)),
        Room("guest", "Guest room", RoomRole.BEDROOM, (4.5, 0.0, 7.5, 3.0)),
        Room("dining", "Dining room", RoomRole.DINING_ROOM, (0.0, 4.0, 4.0, 7.0)),
        Room("living", "Living room", RoomRole.LIVING_ROOM, (4.5, 3.5, 9.0, 7.0)),
        Room("washroom", "Washroom", RoomRole.RESTROOM, (8.0, 0.0, 9.5, 2.0)),
        Room("door", "Main door", RoomRole.DOORWAY, (9.5, 3.0, 10.5, 4.5)),
    ]
    placements = [
        ModulePlacement(ModuleType.B, "door", (10.0, 3.75), sensing_radius=1.5),
        ModulePlacement(ModuleType.B, "washroom", (8.75, 1.0), sensing_radius=1.5),
        ModulePlacement(ModuleType.C, "bedroom", (2.0, 1.75)),
        ModulePlacement(ModuleType.C, "guest", (6.0, 1.5)),
        ModulePlacement(ModuleType.C, "dining", (2.0, 5.5)),
        ModulePlacement(ModuleType.C, "living", (6.75, 5.25)),
        ModulePlacement(ModuleType.D, "living", (6.75, 5.25), fov_half_width=2.0),
        ModulePlacement(ModuleType.A, "living", (6.75, 5.25)),
    ]
    return HomeLayout(rooms, placements)


def visitor_script() -> ScenarioScript:
    return ScenarioScript(
        EPOCH,
        9,
        [
            OccupyRoom(at(0.5), at(3.5), "bedroom", PostureLabel.LIE_DOWN),
            OccupyRoom(at(4), at(9), "living", PostureLabel.SIT),
            VisitorEnter(at(4.5), 2),
            VisitorLeave(at(7.5)),
        ],
    )


def with_gaps(bundle, gaps):
    """Drop frames: {sensor_id: [(first row, end row), ...]}, end exclusive."""
    bundle = copy.copy(bundle)
    frames = []
    for block in bundle.frames:
        keep = np.ones(len(block), dtype=bool)
        for lo, hi in gaps.get(block.sensor_id, []):
            keep[lo:hi] = False
        frames.append(
            FrameBlock(block.sensor_id, block.resolution, block.timestamps[keep], block.pixels_centi[keep])
        )
    bundle.frames = frames
    return bundle


@pytest.fixture(scope="module")
def homes():
    # untrained nets: their labels vary from window to window, which
    # exercises the majority fold
    models = {r: PostureNet(config_for_resolution(r), seed=r) for r in (4, 32)}
    plain = default_layout()
    shared = shared_role_layout()
    return {
        "plain": (plain, simulate(plain, visitor_script(), seed=31)),
        "shared": (shared, simulate(shared, visitor_script(), seed=32)),
        "models": models,
    }


def sources(homes, case):
    layout, bundle = homes["plain"]
    if case == "store":
        return store_source(layout, bundle), homes["models"]
    if case == "no_models":
        return store_source(layout, bundle), {}
    if case == "narrow_window":
        start, end = bundle.start + 2 * MS_PER_MINUTE + 2500, bundle.end - MS_PER_MINUTE
        return store_source(layout, bundle, start, end), homes["models"]
    layout, bundle = homes["shared"]
    if case == "shared_role":
        return store_source(layout, bundle), homes["models"]
    assert case == "cadence_gap"
    gaps = {
        # all of minute 2 of the first bedroom sensor: the guest room's
        # sensor alone speaks for the bedroom role
        "bedroom/C0/thermal": [(470, 730)],
        "living/D0/thermal": [(1210, 1211), (1500, 1540)],
        "dining/C0/thermal": [(133, 134)],
    }
    return store_source(layout, with_gaps(bundle, gaps)), homes["models"]


CASES = ["store", "cadence_gap", "no_models", "shared_role", "narrow_window"]


@pytest.mark.parametrize("case", CASES)
def test_pipeline_matches_per_window_oracle(homes, case):
    source, models = sources(homes, case)
    config = PipelineConfig()
    result = run_pipeline(source, models, config)
    ref_tracks, ref_thetas, ref_evidence, ref_timeline = reference_run(source, models, config)

    assert frame_bits(result.timeline.evidence) == frame_bits(ref_evidence)
    assert [repr(e) for e in result.timeline.entries] == [repr(e) for e in ref_timeline.entries]
    assert result.timeline.away_intervals == ref_timeline.away_intervals
    assert repr(result.thetas) == repr(ref_thetas)
    assert list(result.tracks) == [t.sensor_id for t in ref_tracks]
    for ref in ref_tracks:
        track = result.tracks[ref.sensor_id]
        assert track.room_role is ref.room_role and track.resolution == ref.resolution
        assert track.dropped_windows == ref.dropped_windows
        assert track.calibration_events == ref.calibration_events
        assert track.start.tolist() == [r.start for r in ref.records]
        assert track.interval_index.tolist() == [r.interval_index for r in ref.records]
        assert track.motion_index.tolist() == [r.motion_index for r in ref.records]
        assert track.blob_count.tolist() == [r.blob_count for r in ref.records]
        assert track.posture.tolist() == [r.posture.value for r in ref.records]
        assert [repr(w) for w in track.windows] == [
            repr(r).replace("Record(", "WindowRecord(", 1) for r in ref.records
        ]

    # the case exercises what it is named for
    tracks = result.tracks.values()
    if case == "cadence_gap":
        assert sum(t.dropped_windows for t in tracks) == 4
        # the guest room's sensor alone speaks for the bedroom in minute 2
        bedroom = list(RoomRole).index(RoomRole.BEDROOM)
        guest = result.tracks["guest/C0/thermal"]
        alone = (guest.start - source.start) // MS_PER_MINUTE == 2
        assert result.timeline.evidence.seen[2, bedroom]
        assert result.timeline.evidence.mean_motion_index[2, bedroom] == np.mean(guest.motion_index[alone])
    else:
        assert all(t.dropped_windows == 0 for t in tracks)
    if case == "no_models":
        assert all(set(t.posture.tolist()) == {PostureLabel.NOT_HERE.value} for t in tracks)
    else:
        assert len({p for t in tracks for p in t.posture.tolist()}) >= 2
    if case in ("shared_role", "cadence_gap"):
        # some minute folds the windows of two living-room sensors
        living = [t.start for t in tracks if t.room_role is RoomRole.LIVING_ROOM]
        assert np.bincount((np.concatenate(living) - source.start) // MS_PER_MINUTE).max() >= 24
    if case == "narrow_window":
        # only the window's frames are read: every window starts inside it,
        # and the auto gate pools those windows alone
        window_ms = 20 * FRAME_PERIOD_MS
        for t in tracks:
            assert len(t.start) and source.start <= t.start.min() and t.start.max() < source.end
            assert len(t.start) <= (source.end - source.start) // window_ms
        for resolution in {t.resolution for t in tracks}:
            pooled = np.concatenate([t.motion_index for t in tracks if t.resolution == resolution])
            gate = THETA_MULTIPLIER[resolution] * float(np.percentile(pooled, 25))
            assert all(result.thetas[t.sensor_id] == gate for t in tracks if t.resolution == resolution)
    if "living/D0/thermal" in result.tracks:
        assert result.tracks["living/D0/thermal"].blob_count.max() >= 2


def test_thermal_sensor_without_frames_gives_empty_track(homes):
    # the layout's 32x32 sensor delivered nothing: the source answers with an
    # empty block of the layout's 32x32 shape, and the sensor's track is empty
    layout, bundle = homes["plain"]
    bundle = copy.copy(bundle)
    bundle.frames = [b for b in bundle.frames if b.sensor_id != "living/D0/thermal"]
    source = store_source(layout, bundle)
    (block,) = source.frame_blocks("living/D0/thermal")
    assert block.resolution == 32
    assert block.pixels_centi.shape == (0, 32, 32) and block.pixels_centi.dtype == np.int16
    assert block.timestamps.shape == (0,) and block.timestamps.dtype == np.int64
    config = PipelineConfig()
    result = run_pipeline(source, homes["models"], config)
    track = result.tracks["living/D0/thermal"]
    assert track.resolution == 32
    for column, dtype in (
        (track.start, np.int64),
        (track.interval_index, np.int64),
        (track.motion_index, np.float64),
        (track.blob_count, np.int64),
        (track.posture, np.int64),
    ):
        assert column.shape == (0,) and column.dtype == dtype
    assert track.dropped_windows == 0 and track.calibration_events == []
    assert track.windows == []
    assert result.thetas["living/D0/thermal"] == THETA_FALLBACK
    assert all(len(t.start) for sid, t in result.tracks.items() if sid != "living/D0/thermal")

    _, ref_thetas, ref_evidence, ref_timeline = reference_run(source, homes["models"], config)
    assert repr(result.thetas) == repr(ref_thetas)
    assert frame_bits(result.timeline.evidence) == frame_bits(ref_evidence)
    assert [repr(e) for e in result.timeline.entries] == [repr(e) for e in ref_timeline.entries]


def minutes(rooms: list[dict]) -> list[MinuteEvidence]:
    """Per-minute records that hold only the room evidence of `rooms`."""
    return [MinuteEvidence(EPOCH + m * MS_PER_MINUTE, False, by_role) for m, by_role in enumerate(rooms)]


# the frame's room columns, in the order `_room_evidence` returns them
ROOM_FIELDS = ("seen", "majority_posture", "mean_motion_index", "multi_blob_windows", "theta_active")


def room_columns(rooms) -> tuple:
    """The bytes of `_room_evidence`'s columns, or of a frame's room columns."""
    if not isinstance(rooms, tuple):
        rooms = tuple(getattr(rooms, name) for name in ROOM_FIELDS)
    return tuple((c.dtype.str, c.shape, c.tobytes()) for c in rooms)


def synthetic_track(rng, sensor_id, role, start, n_minutes) -> SensorTrack:
    slots = np.sort(rng.choice(np.arange(-24, 12 * n_minutes + 24), size=9 * n_minutes, replace=False))
    starts = start + 5000 * slots + rng.integers(0, 250, size=len(slots))
    # few labels and few blob counts, so that ties and repeats are common
    return SensorTrack(
        sensor_id,
        sensor_id.split("/")[0],
        role,
        32,
        start=starts,
        interval_index=slots,
        motion_index=rng.lognormal(-2.0, 1.5, size=len(slots)),
        blob_count=rng.integers(0, 4, size=len(slots)),
        posture=rng.choice([0, 1, 4], size=len(slots)),
        dropped_windows=0,
        calibration_events=[],
    )


@pytest.mark.parametrize("seed", range(5))
def test_evidence_fold_matches_record_fold(seed):
    rng = np.random.default_rng(seed)
    start, n_minutes = EPOCH, 30
    layout = [
        ("a/C0/thermal", RoomRole.KITCHEN),
        ("b/C0/thermal", RoomRole.BEDROOM),
        ("c/C0/thermal", RoomRole.KITCHEN),
        ("d/D0/thermal", RoomRole.LIVING_ROOM),
    ]
    tracks = {sid: synthetic_track(rng, sid, role, start, n_minutes) for sid, role in layout}
    thetas = {sid: float(rng.uniform(0.1, 0.5)) for sid in tracks}
    ref = [
        ReferenceTrack(sid, t.room_role, t.resolution, list(t.windows), 0, [])
        for sid, t in tracks.items()
    ]
    got = room_columns(_room_evidence(tracks, thetas, start, n_minutes))
    want = frame_of(minutes(reference_fold(ref, thetas, start, n_minutes)), reference_theta(ref, thetas))
    assert got == room_columns(want)


def test_majority_tie_goes_to_the_lowest_label():
    labels = [PostureLabel.WALK, PostureLabel.STAND, PostureLabel.STAND, PostureLabel.WALK]
    track = SensorTrack(
        "a/C0/thermal", "a", RoomRole.KITCHEN, 4,
        start=EPOCH + 5000 * np.arange(4),
        interval_index=np.arange(4),
        motion_index=np.full(4, 0.1),
        blob_count=np.zeros(4, dtype=np.int64),
        posture=np.array([p.value for p in labels]),
        dropped_windows=0, calibration_events=[],
    )
    rooms = _room_evidence({"a/C0/thermal": track}, {"a/C0/thermal": 0.3}, EPOCH, 1)
    _, majority, *_ = rooms
    assert majority[0, list(RoomRole).index(RoomRole.KITCHEN)] == PostureLabel.STAND.value
    ref = ReferenceTrack("a/C0/thermal", RoomRole.KITCHEN, 4, track.windows, 0, [])
    gates = {"a/C0/thermal": 0.3}
    want = frame_of(minutes(reference_fold([ref], gates, EPOCH, 1)), reference_theta([ref], gates))
    assert room_columns(rooms) == room_columns(want)


def test_evidence_fold_of_no_windows():
    track = SensorTrack(
        "a/C0/thermal", "a", RoomRole.KITCHEN, 4,
        *(np.empty(0, dtype=dt) for dt in (np.int64, np.int64, np.float64, np.int64, np.int64)),
        dropped_windows=3, calibration_events=[],
    )
    gates = {"a/C0/thermal": 0.3}
    seen, majority, mean, multi_blob, theta = _room_evidence({"a/C0/thermal": track}, gates, EPOCH, 4)
    assert seen.shape == (4, 6) and not seen.any()
    assert (majority == PostureLabel.NOT_HERE.value).all() and not mean.any() and not multi_blob.any()
    assert theta.tolist() == [0.0, 0.3, 0.0, 0.0, 0.0, 0.0]
    seen, *_, theta = _room_evidence({}, {}, EPOCH, 2)
    assert seen.shape == (2, 6) and not seen.any() and not theta.any()
