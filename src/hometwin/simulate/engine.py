"""The stream generator: layout + script + seed -> deterministic sensor streams
plus the ground-truth label timeline.

A body is a resident's occupancy or a visitor seated at a slot of the living
room (an `OccupyRoom` with posture SIT).  One track builder draws every
body's blob, and every seated or lying body leaves the same residual heat.

Determinism: every random stream is keyed by (seed, sensor id, event index,
purpose), so output is byte-identical for the same inputs.  The hour-long
render chunk (`RENDER_CHUNK_FRAMES`) is part of the output: an event's fidget
is drawn anew for each chunk it spans (see `_fidget_span`).  The cache-sized
blocks within a chunk are not: every block draws the next values of the
chunk's streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from ..core import (
    FRAME_PERIOD_MS,
    MS_PER_MINUTE,
    TEMP_MAX_C,
    TEMP_MIN_C,
    ActivityLabel,
    FrameBlock,
    PostureLabel,
    ReadingSeries,
    SensorKind,
    in_clock_window,
    quantize_pixels,
)
from ..errors import ConfigError
from ..layout import HomeLayout, RoomRole, validate_layout
from ..ingestion.packets import HubPacket, Redirector
from .render import (
    BLOB_PARAMS,
    RESIDUAL_AMPLITUDE_FRAC,
    RESIDUAL_TAU_MIN,
    WALK_SPEED_MPS,
    add_blobs,
    block_frames,
    event_rng,
    fidget_offsets,
    path_positions,
    sensor_grid,
    turnover_offsets,
)
from .scenario import (
    LampToggle,
    LeaveHome,
    NoiseBurst,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    VisitorEnter,
    VisitorLeave,
    validate_scenario,
)
from .truth import POSTURE_INTERVAL_MS, GroundTruthTimeline

MIN_PATCH_DWELL_MS = 120_000  # occupancy shorter than this leaves no residual heat
PATCH_CUTOFF_TAUS = 5.0
VISITOR_SLOTS = ((0.9, 0.7), (-0.9, 0.7), (0.9, -0.7), (-0.9, -0.7))
RENDER_CHUNK_FRAMES = 14_400  # one hour at 4 Hz
FRAME_JITTER_FRAC = 0.04  # per-frame timestamp jitter, fraction of the frame period
ENV_PERIOD_MS = 5000  # light/noise/temp/humidity cadence
MOTION_PERIOD_MS = 1000
MOTION_EPSILON_M = 0.05  # displacement per sample that counts as movement
PASSAGE_SECONDS = 3.0  # doorway transit duration on leave/return


@dataclass
class StreamBundle:
    readings: list[ReadingSeries]
    frames: list[FrameBlock]
    truth: GroundTruthTimeline
    start: int
    end: int

    def to_packets(self, hub_id: str = "hub0") -> list[HubPacket]:
        """Batch the whole bundle through a per-minute redirector."""
        window_start = self.start - self.start % MS_PER_MINUTE
        redirector = Redirector(hub_id, window_start)
        for series in self.readings:
            redirector.add_series(series)
        for block in self.frames:
            redirector.add_frames(block)
        return redirector.flush_all(self.end - 1)


@dataclass
class _ResolvedOccupy:
    """One body: a resident's occupancy or a seated visitor."""

    event: OccupyRoom
    index: int  # rng key: position in script.events, or in the visitor list
    base: np.ndarray  # resolved anchor position [2]
    fidget_stream: int = 3  # 4 for a visitor

    @property
    def room_id(self) -> str:
        return self.event.room_id

    def positions_at(self, ts: np.ndarray) -> np.ndarray:
        """Positions [n, 2] at timestamps inside the event: along the path,
        or at the anchor shifted by the turnovers."""
        ev = self.event
        if ev.path is not None:
            return path_positions(ev.path, ts - ev.start, WALK_SPEED_MPS)
        pos = np.repeat(self.base[None, :], len(ts), axis=0)
        if ev.turnovers:
            theta = math.radians(ev.orientation_deg)
            minor = np.array([-math.sin(theta), math.cos(theta)])
            pos = pos + turnover_offsets(ev.turnovers, ts)[:, None] * minor
        return pos


def _room_anchor(layout: HomeLayout, room_id: str) -> np.ndarray:
    """The room's thermal sensor position if it has one, else its first
    module's position, else its center."""
    thermal = [s for s in layout.thermal_sensors() if s.room_id == room_id]
    if thermal:
        return np.asarray(layout.placement_of(thermal[0].sensor_id).position)
    placements = [p for p in layout.placements if p.room_id == room_id]
    if placements:
        return np.asarray(placements[0].position)
    return np.asarray(layout.room(room_id).center())


class _ResidentModel:
    """Macro positions of the resident over time, resolved from the script."""

    def __init__(self, layout: HomeLayout, script: ScenarioScript, seed: int):
        self.resolved: list[_ResolvedOccupy] = []
        for index, ev in enumerate(script.events):
            if not isinstance(ev, OccupyRoom):
                continue
            if ev.position is not None:
                base = np.asarray(ev.position, dtype=np.float64)
            else:
                # near the room's anchor, with a small per-event jitter
                rng = event_rng(seed, ev.room_id, index, 0)
                base = _room_anchor(layout, ev.room_id) + rng.uniform(-0.25, 0.25, size=2)
            self.resolved.append(_ResolvedOccupy(ev, index, base))
        self.resolved.sort(key=lambda r: r.event.start)

    def positions_at(self, ts: np.ndarray) -> np.ndarray:
        """Macro positions [n, 2]; NaN when not inside any occupy event."""
        out = np.full((len(ts), 2), np.nan)
        for res in self.resolved:
            lo = int(np.searchsorted(ts, res.event.start, side="left"))
            hi = int(np.searchsorted(ts, res.event.end, side="left"))
            if hi > lo:
                out[lo:hi] = res.positions_at(ts[lo:hi])
        return out


@dataclass
class _Passage:
    """A brief moving presence at the doorway (leave/return/visitor transit)."""

    at: int
    position: np.ndarray

    def positions_at(self, ts: np.ndarray, half_ms: float) -> np.ndarray:
        rel = (np.asarray(ts) - self.at) / 1000.0
        inside = np.abs(rel) <= half_ms / 1000.0
        out = np.full((len(ts), 2), np.nan)
        out[inside, 0] = self.position[0] + 0.5 * rel[inside]
        out[inside, 1] = self.position[1]
        return out


def _visitor_bodies(
    layout: HomeLayout, script: ScenarioScript, seed: int
) -> list[_ResolvedOccupy]:
    """A body seated at its slot in the living room for every visitor."""
    living = layout.rooms_with_role(RoomRole.LIVING_ROOM)
    if not living:
        return []
    room_id = living[0].room_id
    anchor = _room_anchor(layout, room_id)
    bodies = []
    for span_idx, (lo, hi, count) in enumerate(script.visitor_intervals()):
        for v in range(min(count, len(VISITOR_SLOTS))):
            rng = event_rng(seed, "visitors", span_idx, 100 + v)
            base = anchor + np.asarray(VISITOR_SLOTS[v]) + rng.uniform(-0.1, 0.1, size=2)
            seated = OccupyRoom(lo, hi, room_id, PostureLabel.SIT)
            bodies.append(_ResolvedOccupy(seated, len(bodies), base, fidget_stream=4))
    return bodies


def simulate(
    layout: HomeLayout,
    script: ScenarioScript,
    seed: int,
    config: PipelineConfig | None = None,
) -> StreamBundle:
    """Pure function of (layout, script, seed, config): same inputs,
    byte-identical output.  Of the config it reads `pixel_noise_sigma` and
    `lamp_delta`."""
    violations = validate_layout(layout)
    if violations:
        raise ConfigError(f"invalid layout: {violations}")
    validate_scenario(script, layout)
    config = config or PipelineConfig()

    resident = _ResidentModel(layout, script, seed)
    visitors = _visitor_bodies(layout, script, seed)
    bodies = resident.resolved + visitors  # residents first: the order of the pixel sums
    passages = _collect_passages(layout, script)

    readings: list[ReadingSeries] = []
    frames: list[FrameBlock] = []

    for spec in sorted(layout.sensors(), key=lambda s: s.sensor_id):
        if spec.kind.is_thermal:
            frames.extend(
                _render_sensor(layout, script, spec, bodies, seed, config.pixel_noise_sigma)
            )
        elif spec.kind is SensorKind.MOTION:
            readings.append(
                motion_series(layout, script, spec, resident, passages)
            )
        else:
            readings.append(environment_series(layout, script, spec, seed, config.lamp_delta))

    truth = _build_truth(layout, script, resident, visitors)
    return StreamBundle(readings, frames, truth, script.start, script.end)


# ---------------------------------------------------------------------------
# thermal rendering


def _render_sensor(
    layout: HomeLayout,
    script: ScenarioScript,
    spec,
    bodies: list[_ResolvedOccupy],
    seed: int,
    noise_sigma: float,
) -> list[FrameBlock]:
    placement = layout.placement_of(spec.sensor_id)
    resolution = spec.kind.resolution
    xs, ys = sensor_grid(placement, resolution)
    profile = script.profile(spec.room_id)
    tz = layout.tz_offset_min

    n_frames = (script.end - script.start) // FRAME_PERIOD_MS
    nominal = script.start + FRAME_PERIOD_MS * np.arange(n_frames, dtype=np.int64)
    jitter_rng = event_rng(seed, spec.sensor_id, 0, 1)
    jitter = np.rint(
        jitter_rng.uniform(-FRAME_JITTER_FRAC, FRAME_JITTER_FRAC, n_frames) * FRAME_PERIOD_MS
    ).astype(np.int64)
    timestamps = nominal + jitter
    if len(timestamps):
        timestamps[0] = max(timestamps[0], script.start)  # never precede the scenario

    # the bodies this sensor sees: the resident's occupancies, then visitors
    bodies = [body for body in bodies if body.room_id == spec.room_id]
    patches = _patch_schedule(bodies)

    noise_rng = event_rng(seed, spec.sensor_id, 0, 2)
    tau_ms = RESIDUAL_TAU_MIN * MS_PER_MINUTE
    sun = script.sunlight
    if sun is not None and sun.room_id != spec.room_id:
        sun = None
    step = block_frames(resolution)
    buffer = np.empty((2, min(step, n_frames), resolution, resolution))

    blocks = []
    for lo in range(0, n_frames, RENDER_CHUNK_FRAMES):
        hi = min(lo + RENDER_CHUNK_FRAMES, n_frames)
        ts = timestamps[lo:hi]
        ambient = np.asarray(profile.temperature(ts, script.start, tz))
        nom = nominal[lo:hi]
        tracks = [
            *(_body_track(nom, ts, body, seed, spec.sensor_id, script.start) for body in bodies),
            *(_patch_track(ts, patch, tau_ms) for patch in patches),
        ]
        tracks = [track for track in tracks if track is not None]
        sunny = None
        if sun is not None:
            sunny = in_clock_window(ts, sun.clock_start, sun.clock_end, tz)

        # each block takes every term in the order of the whole-chunk sum:
        # ambient, bodies, patches, sunlight, noise; then clip and quantize
        centi = np.empty((hi - lo, resolution, resolution), dtype=np.int16)
        for b0 in range(0, hi - lo, step):
            b1 = min(b0 + step, hi - lo)
            pixels, noise = buffer[:, : b1 - b0]
            pixels[:] = ambient[b0:b1, None, None]
            for track in tracks:
                track.add_to(pixels, b0, b1, xs, ys)
            if sunny is not None:
                pixels[sunny[b0:b1], sun.row0 : sun.row1, sun.col0 : sun.col1] += sun.delta_c
            _finish_block(pixels, noise, noise_rng, noise_sigma, centi[b0:b1])
        blocks.append(FrameBlock(spec.sensor_id, resolution, ts.copy(), centi))
    return blocks


def _finish_block(pixels, noise, noise_rng, noise_sigma: float, out) -> None:
    """Add the pixel noise to a block, clip it and quantize it into `out`.

    The noise is the block's share of the chunk's normal(0, sigma) stream:
    standard_normal fills the same variates in the same order, and normal's
    loc + scale * z differs from scale * z only in the sign of a zero, which
    the int16 grid does not keep.
    """
    if noise_sigma > 0:
        noise_rng.standard_normal(out=noise)
        np.multiply(noise, noise_sigma, out=noise)
        np.add(pixels, noise, out=pixels)
    np.clip(pixels, TEMP_MIN_C, TEMP_MAX_C, out=pixels)
    out[:] = quantize_pixels(pixels)


def _event_frame_range(nominal: np.ndarray, start: int, end: int) -> tuple[int, int]:
    lo = int(np.searchsorted(nominal, start, side="left"))
    hi = int(np.searchsorted(nominal, end, side="left"))
    return lo, hi


@dataclass
class _BlobTrack:
    """One body's (or patch's) blob over frames [lo, hi) of a render chunk."""

    lo: int
    hi: int
    cx: np.ndarray
    cy: np.ndarray
    amplitude: np.ndarray
    sigma_major: float
    sigma_minor: float
    orientation_rad: float = 0.0

    def add_to(self, pixels, b0: int, b1: int, xs, ys) -> None:
        """Add the track's part of chunk frames [b0, b1) into `pixels`."""
        lo, hi = max(self.lo, b0), min(self.hi, b1)
        if hi <= lo:
            return
        part = slice(lo - self.lo, hi - self.lo)
        add_blobs(
            pixels[lo - b0 : hi - b0], xs, ys, self.cx[part], self.cy[part],
            self.sigma_major, self.sigma_minor, self.amplitude[part], self.orientation_rad,
        )


def _fidget_span(posture, offset: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Fidget samples [offset, offset+n) of an event's stream in this chunk.

    The rng is freshly keyed per call and offset+n samples are drawn, so a
    chunk that starts inside an event continues its frame count, but not its
    values: `fidget_offsets` takes all of its start draws before any shift,
    jitter or flicker draw, so a longer draw gives its first frames other
    variates (`fidget_offsets(SIT, 100, rng)[:60]` is not
    `fidget_offsets(SIT, 60, rng)` for the same key).  Where an event crosses
    a chunk boundary, `RENDER_CHUNK_FRAMES` is therefore part of the output.
    """
    offsets, flicker = fidget_offsets(posture, offset + n, rng)
    return offsets[offset:], flicker[offset:]


def _body_track(
    nominal, ts, body: _ResolvedOccupy, seed, sensor_id, script_start
) -> _BlobTrack | None:
    ev = body.event
    lo, hi = _event_frame_range(nominal, ev.start, ev.end)
    if hi <= lo:
        return None
    # clamp jittered timestamps into the event so boundary frames keep a position
    span = np.clip(ts[lo:hi], ev.start, ev.end - 1)
    centers = body.positions_at(span)
    # the fidget stream is indexed by the frame's position within the event
    # (computed on the rigid nominal grid); a chunk boundary inside the event
    # redraws it (see _fidget_span)
    rng = event_rng(seed, sensor_id, body.index, body.fidget_stream)
    first_idx = -((ev.start - script_start) // -FRAME_PERIOD_MS)  # ceil div
    offset0 = int((nominal[lo] - script_start) // FRAME_PERIOD_MS - first_idx)
    offsets, flicker = _fidget_span(ev.posture, offset0, len(span), rng)
    centers = centers + offsets
    sx, sy, amp = BLOB_PARAMS[ev.posture]
    theta = math.radians(ev.orientation_deg)
    return _BlobTrack(lo, hi, centers[:, 0], centers[:, 1], amp * flicker, sx, sy, theta)


@dataclass
class _Patch:
    t0: int
    center: np.ndarray
    posture: PostureLabel
    orientation_rad: float
    amplitude_c: float


def _patch_schedule(bodies: list[_ResolvedOccupy]) -> list[_Patch]:
    """Residual-heat patches left by the seated or lying bodies of one room."""
    patches = []
    for body in bodies:
        ev = body.event
        if ev.posture not in (PostureLabel.SIT, PostureLabel.LIE_DOWN):
            continue
        if ev.end - ev.start < MIN_PATCH_DWELL_MS:
            continue
        _, _, amp = BLOB_PARAMS[ev.posture]
        patches.append(
            _Patch(
                t0=ev.end,
                center=body.positions_at(np.array([ev.end]))[0],
                posture=ev.posture,
                orientation_rad=math.radians(ev.orientation_deg),
                amplitude_c=RESIDUAL_AMPLITUDE_FRAC * amp,
            )
        )
    return patches


def _patch_track(ts, patch: _Patch, tau_ms: float) -> _BlobTrack | None:
    cutoff = patch.t0 + PATCH_CUTOFF_TAUS * tau_ms
    lo = int(np.searchsorted(ts, patch.t0, side="left"))
    hi = int(np.searchsorted(ts, cutoff, side="left"))
    if hi <= lo:
        return None
    amp = patch.amplitude_c * np.exp(-(ts[lo:hi] - patch.t0) / tau_ms)
    sx, sy, _ = BLOB_PARAMS[patch.posture]
    return _BlobTrack(
        lo, hi, np.full(hi - lo, patch.center[0]), np.full(hi - lo, patch.center[1]),
        amp, sx, sy, patch.orientation_rad,
    )


# ---------------------------------------------------------------------------
# scalar sensors


def _collect_passages(layout: HomeLayout, script: ScenarioScript) -> list[_Passage]:
    doorway = layout.rooms_with_role(RoomRole.DOORWAY)
    if not doorway:
        return []
    door_sensors = [
        s
        for s in layout.sensors(kind=SensorKind.MOTION, room_id=doorway[0].room_id)
    ]
    if door_sensors:
        pos = np.asarray(layout.placement_of(door_sensors[0].sensor_id).position)
    else:
        pos = np.asarray(doorway[0].center())
    return [
        _Passage(ev.at, pos)
        for ev in script.events
        if isinstance(ev, (LeaveHome, ReturnHome, VisitorEnter, VisitorLeave))
    ]


def motion_series(
    layout: HomeLayout,
    script: ScenarioScript,
    spec,
    resident: _ResidentModel,
    passages: list[_Passage],
) -> ReadingSeries:
    placement = layout.placement_of(spec.sensor_id)
    sensor_pos = np.asarray(placement.position)
    n = (script.end - script.start) // MOTION_PERIOD_MS
    ts = script.start + MOTION_PERIOD_MS * np.arange(n, dtype=np.int64)

    half_passage_ms = PASSAGE_SECONDS * 500.0
    tracks = [resident.positions_at(ts)]
    for p in passages:
        tracks.append(p.positions_at(ts, half_passage_ms))

    triggered = np.zeros(n, dtype=bool)
    for pos in tracks:
        dist = np.hypot(pos[:, 0] - sensor_pos[0], pos[:, 1] - sensor_pos[1])
        inside = dist <= placement.sensing_radius
        step = np.hypot(np.diff(pos[:, 0]), np.diff(pos[:, 1]))
        moved = np.zeros(n, dtype=bool)
        moved[1:] = step > MOTION_EPSILON_M
        triggered |= inside & moved & ~np.isnan(dist)

    return ReadingSeries(
        spec.sensor_id, SensorKind.MOTION, ts, triggered.astype(np.float64)
    )


def environment_series(
    layout: HomeLayout,
    script: ScenarioScript,
    spec,
    seed: int,
    lamp_delta: float,
) -> ReadingSeries:
    profile = script.profile(spec.room_id)
    tz = layout.tz_offset_min
    n = (script.end - script.start) // ENV_PERIOD_MS
    ts = script.start + ENV_PERIOD_MS * np.arange(n, dtype=np.int64)
    rng = event_rng(seed, spec.sensor_id, 0, 5)

    if spec.channel == "temperature":
        values = np.asarray(profile.temperature(ts, script.start, tz), dtype=np.float64)
        values = values + rng.normal(0.0, 0.05, n)
    elif spec.channel == "humidity":
        values = np.asarray(profile.humidity(ts, tz), dtype=np.float64)
        values = values + rng.normal(0.0, 0.2, n)
    elif spec.channel == "light":
        values = np.asarray(profile.light(ts, tz), dtype=np.float64)
        lamp = np.zeros(n)
        changes = [
            (e.at, 1.0 if e.on else 0.0)
            for e in script.events
            if isinstance(e, LampToggle) and e.room_id == spec.room_id
        ]
        for at, new_state in sorted(changes):
            lamp[ts >= at] = new_state
        values = values + lamp * lamp_delta + rng.normal(0.0, 1.0, n)
        values = np.maximum(values, 0.0)
    elif spec.channel == "noise":
        values = np.asarray(profile.noise(ts, tz), dtype=np.float64)
        for e in script.events:
            if isinstance(e, NoiseBurst) and e.room_id == spec.room_id:
                values = values + np.where((ts >= e.start) & (ts < e.end), e.level, 0.0)
        values = values + rng.normal(0.0, 1.0, n)
        values = np.maximum(values, 0.0)
    else:
        raise ConfigError(f"unknown environment channel {spec.channel!r}")

    return ReadingSeries(
        spec.sensor_id, spec.kind, ts, np.round(values * 100.0) / 100.0
    )


# ---------------------------------------------------------------------------
# truth


_ROOM_ACTIVITY = {
    RoomRole.BEDROOM: ActivityLabel.SLEEPING,
    RoomRole.KITCHEN: ActivityLabel.KITCHEN_ACTIVITY,
    RoomRole.DINING_ROOM: ActivityLabel.DINING_ROOM_ACTIVITY,
    RoomRole.LIVING_ROOM: ActivityLabel.LIVING_ROOM_ACTIVITY,
    RoomRole.RESTROOM: ActivityLabel.RESTROOM,
}


def _overlap_seconds(grid_start: int, n: int, step_ms: int, lo: int, hi: int) -> np.ndarray:
    """Seconds of [lo, hi) overlapping each of n grid cells."""
    starts = grid_start + step_ms * np.arange(n, dtype=np.int64)
    ends = starts + step_ms
    overlap = np.minimum(ends, hi) - np.maximum(starts, lo)
    return np.maximum(overlap, 0) / 1000.0


def _build_truth(
    layout: HomeLayout,
    script: ScenarioScript,
    resident: _ResidentModel,
    visitors: list[_ResolvedOccupy],
) -> GroundTruthTimeline:
    start, end = script.start, script.end
    n_minutes = (end - start) // MS_PER_MINUTE
    n_intervals = (end - start) // POSTURE_INTERVAL_MS

    # --- posture truth on the 5 s grid, per thermal sensor
    posture_truth: dict[str, np.ndarray] = {}
    mids = start + POSTURE_INTERVAL_MS * np.arange(n_intervals, dtype=np.int64) + POSTURE_INTERVAL_MS // 2
    resident_pos = resident.positions_at(mids)

    for spec in layout.thermal_sensors():
        placement = layout.placement_of(spec.sensor_id)
        hw = placement.fov_half_width
        px, py = placement.position
        codes = np.full(n_intervals, PostureLabel.NOT_HERE.value, dtype=np.uint8)

        for res in resident.resolved:
            ev = res.event
            if ev.room_id != spec.room_id:
                continue
            covered = (mids >= ev.start) & (mids < ev.end)
            in_fov = (
                covered
                & (np.abs(resident_pos[:, 0] - px) <= hw)
                & (np.abs(resident_pos[:, 1] - py) <= hw)
            )
            posture = PostureLabel.WALK if ev.path is not None else ev.posture
            codes[in_fov] = posture.value

        for body in visitors:  # seated wherever the resident is not seen
            if body.room_id == spec.room_id:
                covered = (mids >= body.event.start) & (mids < body.event.end)
                codes[covered & (codes == PostureLabel.NOT_HERE.value)] = PostureLabel.SIT.value
        posture_truth[spec.sensor_id] = codes

    # --- activity truth on the minute grid
    role_of_room = {r.room_id: r.role for r in layout.rooms}
    room_secs = {r.room_id: np.zeros(n_minutes) for r in layout.rooms}
    for res in resident.resolved:
        ev = res.event
        room_secs[ev.room_id] += _overlap_seconds(start, n_minutes, MS_PER_MINUTE, ev.start, ev.end)

    away_secs = np.zeros(n_minutes)
    for lo, hi in script.away_intervals():
        away_secs += _overlap_seconds(start, n_minutes, MS_PER_MINUTE, lo, hi)

    visitor_secs = np.zeros(n_minutes)
    for lo, hi, count in script.visitor_intervals():
        if count > 0:
            visitor_secs += _overlap_seconds(start, n_minutes, MS_PER_MINUTE, lo, hi)

    restroom_rooms = [r.room_id for r in layout.rooms if r.role is RoomRole.RESTROOM]

    activity = np.empty(n_minutes, dtype=np.uint8)
    previous = ActivityLabel.NOT_AT_HOME
    for m in range(n_minutes):
        rest = sum(room_secs[r][m] for r in restroom_rooms)
        label: ActivityLabel
        if rest >= 3.0:
            label = ActivityLabel.RESTROOM
        elif visitor_secs[m] >= 30.0:
            label = ActivityLabel.VISITORS
        elif away_secs[m] >= 30.0:
            label = ActivityLabel.NOT_AT_HOME
        else:
            best_room = None
            best_secs = 0.0
            for room_id, secs in room_secs.items():
                if secs[m] > best_secs:
                    best_room, best_secs = room_id, secs[m]
            if best_room is not None and best_secs >= 30.0:
                role = role_of_room[best_room]
                label = _ROOM_ACTIVITY.get(role, previous)
            else:
                label = previous
        activity[m] = label.value
        previous = label

    return GroundTruthTimeline(
        start=start,
        end=end,
        posture_truth=posture_truth,
        activity_truth=activity,
        away_intervals=script.away_intervals(),
    )
