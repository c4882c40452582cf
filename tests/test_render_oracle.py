"""Differential tests of the render path against the code it replaced.

The oracles below are the former render code, kept here in behaviour:

- `oracle_blob_images` evaluates a blob over all n frames at once and
  returns the [n, r, r] array that callers added into their pixels.
- `oracle_fidget_offsets` runs both per-frame loops over numpy arrays and
  draws each shift's uniform pair with two scalar `uniform` calls.
- `oracle_quantize_pixels` is `core.quantize_pixels`: three whole-array
  temporaries.
- `oracle_render_sensor` renders each hour-long chunk as one float64 stack:
  ambient, `pixels[lo:hi] += blob` per body and patch, sunlight, one noise
  draw for the chunk, clip and quantize.  It draws residents and visitors
  with a loop each, from visitors in their former tuple form
  (`oracle_visitor_tracks`) and patches from two loops
  (`oracle_patch_schedule`).
- `oracle_render_window` builds the pixel grid for every window.

The blocked, in-place code must give the same bytes and leave every
generator in the same state.
"""

import math

import numpy as np
import pytest

import hometwin.simulate.engine as engine
from hometwin.config import PipelineConfig
from hometwin.core import (
    FRAME_PERIOD_MS,
    MS_PER_MINUTE,
    TEMP_MAX_C,
    TEMP_MIN_C,
    WINDOW_FRAMES,
    FrameBlock,
    PostureLabel,
    in_clock_window,
    parse_clock,
    parse_epoch,
)
from hometwin.layout import ModulePlacement, ModuleType, RoomRole, default_layout, lite_layout
from hometwin.posture.data import (
    AMPLITUDE_SCALE_RANGE,
    FRAME_PERIOD_S,
    LIE_DOWN_SCALE_RANGE,
    generate_posture_dataset,
    render_window,
)
from hometwin.simulate import OccupyRoom, ScenarioScript, SunlightPatch, VisitorEnter, VisitorLeave
from hometwin.simulate.engine import (
    MIN_PATCH_DWELL_MS,
    PATCH_CUTOFF_TAUS,
    RENDER_CHUNK_FRAMES,
    VISITOR_SLOTS,
    _build_truth,
    _event_frame_range,
    _finish_block,
    _Patch,
    _ResidentModel,
    _room_anchor,
    simulate,
)
from hometwin.simulate.render import (
    BLOB_PARAMS,
    FIDGET_JITTER_M,
    FIDGET_PARAMS,
    FIDGET_RAMP_FRAMES,
    FLICKER_RHO,
    RESIDUAL_AMPLITUDE_FRAC,
    RESIDUAL_TAU_MIN,
    SETTLE_FRAMES,
    SETTLE_PARAMS,
    add_blobs,
    block_frames,
    event_rng,
    fidget_offsets,
    sensor_grid,
)
from hometwin.simulate.truth import POSTURE_INTERVAL_MS


def oracle_blob_images(xs, ys, cx, cy, sigma_major, sigma_minor, amplitude, orientation_rad=0.0):
    dx = xs[None, :, :] - np.asarray(cx)[:, None, None]
    dy = ys[None, :, :] - np.asarray(cy)[:, None, None]
    cos_t, sin_t = math.cos(orientation_rad), math.sin(orientation_rad)
    u = dx * cos_t + dy * sin_t
    v = -dx * sin_t + dy * cos_t
    quad = (u * u) / (2.0 * sigma_major**2) + (v * v) / (2.0 * sigma_minor**2)
    return np.asarray(amplitude)[:, None, None] * np.exp(-quad)


def oracle_fidget_offsets(posture, n, rng):
    base = FIDGET_PARAMS.get(posture, (0.0, 0.0, 0.0))
    if posture is PostureLabel.LIE_DOWN and n > 0:
        settle = min(SETTLE_FRAMES, n)
        p_shift = np.full(n, base[0])
        radius = np.full(n, base[1])
        flicker_std = np.full(n, base[2])
        p_shift[:settle], radius[:settle], flicker_std[:settle] = SETTLE_PARAMS
    else:
        p_shift = np.full(n, base[0])
        radius = np.full(n, base[1])
        flicker_std = np.full(n, base[2])

    offsets = np.zeros((n, 2))
    if base[1] > 0.0 or posture is PostureLabel.LIE_DOWN:
        starts = rng.random(n) < p_shift * (FRAME_PERIOD_MS / 1000.0)
        target = np.zeros(2)
        current = np.zeros(2)
        ramp_left = 0
        step = np.zeros(2)
        for i in range(n):
            if starts[i] and ramp_left == 0 and radius[i] > 0.0:
                angle = rng.uniform(0.0, 2.0 * math.pi)
                r = radius[i] * math.sqrt(rng.uniform(0.2, 1.0))
                target = np.array([r * math.cos(angle), r * math.sin(angle)])
                ramp_left = FIDGET_RAMP_FRAMES
                step = (target - current) / ramp_left
            if ramp_left > 0:
                current = current + step
                ramp_left -= 1
            offsets[i] = current
    offsets += rng.normal(0.0, FIDGET_JITTER_M, size=(n, 2))

    flicker = np.empty(n)
    state = 0.0
    innovations = rng.normal(0.0, math.sqrt(1 - FLICKER_RHO**2), size=n) * flicker_std
    for i in range(n):
        state = FLICKER_RHO * state + innovations[i]
        flicker[i] = 1.0 + state
    return offsets, np.clip(flicker, 0.55, 1.45)


def oracle_quantize_pixels(celsius):
    return np.clip(np.rint(np.asarray(celsius) * 100.0), -32768, 32767).astype(np.int16)


def _oracle_fidget_span(posture, offset, n, rng):
    offsets, flicker = oracle_fidget_offsets(posture, offset + n, rng)
    return offsets[offset:], flicker[offset:]


def oracle_visitor_tracks(layout, script, seed):
    """(start, end, slot index, base position) for every visitor body."""
    living = layout.rooms_with_role(RoomRole.LIVING_ROOM)
    if not living:
        return []
    anchor = _room_anchor(layout, living[0].room_id)
    tracks = []
    for span_idx, (lo, hi, count) in enumerate(script.visitor_intervals()):
        for v in range(min(count, len(VISITOR_SLOTS))):
            rng = event_rng(seed, "visitors", span_idx, 100 + v)
            base = anchor + np.asarray(VISITOR_SLOTS[v]) + rng.uniform(-0.1, 0.1, size=2)
            tracks.append((lo, hi, v, base))
    return tracks


def oracle_patch_schedule(resident, visitors, room_id, layout):
    """Residual-heat patches: the resident's seated or lying occupancies of
    the room, then, in the living room, every visitor."""
    patches = []
    for res in resident.resolved:
        ev = res.event
        if ev.room_id != room_id:
            continue
        if ev.posture not in (PostureLabel.SIT, PostureLabel.LIE_DOWN):
            continue
        if ev.end - ev.start < MIN_PATCH_DWELL_MS:
            continue
        _, _, amp = BLOB_PARAMS[ev.posture]
        patches.append(
            _Patch(
                t0=ev.end,
                center=res.positions_at(np.array([ev.end]))[0],
                posture=ev.posture,
                orientation_rad=math.radians(ev.orientation_deg),
                amplitude_c=RESIDUAL_AMPLITUDE_FRAC * amp,
            )
        )
    living = layout.rooms_with_role(RoomRole.LIVING_ROOM)
    if living and living[0].room_id == room_id:
        for lo, hi, slot, base in visitors:
            if hi - lo < MIN_PATCH_DWELL_MS:
                continue
            _, _, amp = BLOB_PARAMS[PostureLabel.SIT]
            patches.append(
                _Patch(hi, base, PostureLabel.SIT, 0.0, RESIDUAL_AMPLITUDE_FRAC * amp)
            )
    return patches


def oracle_render_sensor(layout, script, spec, resident, visitors, seed, noise_sigma):
    placement = layout.placement_of(spec.sensor_id)
    resolution = spec.kind.resolution
    xs, ys = sensor_grid(placement, resolution)
    profile = script.profile(spec.room_id)
    tz = layout.tz_offset_min
    n_frames = (script.end - script.start) // FRAME_PERIOD_MS
    nominal = script.start + FRAME_PERIOD_MS * np.arange(n_frames, dtype=np.int64)
    jitter_rng = event_rng(seed, spec.sensor_id, 0, 1)
    jitter = np.rint(
        jitter_rng.uniform(-engine.FRAME_JITTER_FRAC, engine.FRAME_JITTER_FRAC, n_frames)
        * FRAME_PERIOD_MS
    ).astype(np.int64)
    timestamps = nominal + jitter
    if len(timestamps):
        timestamps[0] = max(timestamps[0], script.start)
    living = layout.rooms_with_role(RoomRole.LIVING_ROOM)
    in_living = bool(living) and living[0].room_id == spec.room_id
    patches = oracle_patch_schedule(resident, visitors, spec.room_id, layout)
    noise_rng = event_rng(seed, spec.sensor_id, 0, 2)
    tau_ms = RESIDUAL_TAU_MIN * MS_PER_MINUTE

    blocks = []
    for lo in range(0, n_frames, RENDER_CHUNK_FRAMES):
        hi = min(lo + RENDER_CHUNK_FRAMES, n_frames)
        ts = timestamps[lo:hi]
        nom = nominal[lo:hi]
        pixels = np.empty((hi - lo, resolution, resolution))
        pixels[:] = np.asarray(profile.temperature(ts, script.start, tz))[:, None, None]
        for res in resident.resolved:
            if res.room_id != spec.room_id:
                continue
            ev = res.event
            a, b = _event_frame_range(nom, ev.start, ev.end)
            if b <= a:
                continue
            centers = resident.positions_at(np.clip(ts[a:b], ev.start, ev.end - 1))
            rng = event_rng(seed, spec.sensor_id, res.index, 3)
            first_idx = -((ev.start - script.start) // -FRAME_PERIOD_MS)
            offset0 = int((nom[a] - script.start) // FRAME_PERIOD_MS - first_idx)
            offsets, flicker = _oracle_fidget_span(ev.posture, offset0, b - a, rng)
            centers = centers + offsets
            sx, sy, amp = BLOB_PARAMS[ev.posture]
            pixels[a:b] += oracle_blob_images(
                xs, ys, centers[:, 0], centers[:, 1], sx, sy, amp * flicker,
                math.radians(ev.orientation_deg),
            )
        for track_idx, (lo_ms, hi_ms, _, base) in enumerate(visitors if in_living else []):
            a, b = _event_frame_range(nom, lo_ms, hi_ms)
            if b <= a:
                continue
            rng = event_rng(seed, spec.sensor_id, track_idx, 4)
            first_idx = -((lo_ms - script.start) // -FRAME_PERIOD_MS)
            offset0 = int((nom[a] - script.start) // FRAME_PERIOD_MS - first_idx)
            offsets, flicker = _oracle_fidget_span(PostureLabel.SIT, offset0, b - a, rng)
            centers = base[None, :] + offsets
            sx, sy, amp = BLOB_PARAMS[PostureLabel.SIT]
            pixels[a:b] += oracle_blob_images(
                xs, ys, centers[:, 0], centers[:, 1], sx, sy, amp * flicker
            )
        for patch in patches:
            a = int(np.searchsorted(ts, patch.t0, side="left"))
            b = int(np.searchsorted(ts, patch.t0 + PATCH_CUTOFF_TAUS * tau_ms, side="left"))
            if b <= a:
                continue
            amp = patch.amplitude_c * np.exp(-(ts[a:b] - patch.t0) / tau_ms)
            sx, sy, _ = BLOB_PARAMS[patch.posture]
            centers = np.repeat(patch.center[None, :], b - a, axis=0)
            pixels[a:b] += oracle_blob_images(
                xs, ys, centers[:, 0], centers[:, 1], sx, sy, amp, patch.orientation_rad
            )
        sun = script.sunlight
        if sun is not None and sun.room_id == spec.room_id:
            active = np.array(
                [in_clock_window(int(t), sun.clock_start, sun.clock_end, tz) for t in ts]
            )
            if active.any():
                pixels[active, sun.row0 : sun.row1, sun.col0 : sun.col1] += sun.delta_c
        if noise_sigma > 0:
            pixels += noise_rng.normal(0.0, noise_sigma, size=pixels.shape)
        np.clip(pixels, TEMP_MIN_C, TEMP_MAX_C, out=pixels)
        blocks.append(
            FrameBlock(spec.sensor_id, resolution, ts.copy(), oracle_quantize_pixels(pixels))
        )
    return blocks


def _oracle_grid(resolution):
    hw = 2.0 if resolution == 32 else 1.0
    placement = ModulePlacement(
        ModuleType.D if resolution == 32 else ModuleType.C, "room", (0.0, 0.0), fov_half_width=hw
    )
    xs, ys = sensor_grid(placement, resolution)
    return xs, ys, hw


def oracle_render_window(label, resolution, rng, noise_sigma=PipelineConfig.pixel_noise_sigma):
    xs, ys, hw = _oracle_grid(resolution)
    residual = np.zeros((WINDOW_FRAMES, resolution, resolution))
    if label is not PostureLabel.NOT_HERE:
        scale_range = (
            LIE_DOWN_SCALE_RANGE if label is PostureLabel.LIE_DOWN else AMPLITUDE_SCALE_RANGE
        )
        scale = rng.uniform(*scale_range)
        if label is PostureLabel.WALK:
            sx, sy, amp = BLOB_PARAMS[PostureLabel.WALK]
            theta = rng.uniform(0.0, 2.0 * math.pi)
            speed = rng.uniform(0.6, 1.3)
            crossing = rng.uniform(-0.4 * hw, 0.4 * hw, size=2)
            t = (np.arange(WINDOW_FRAMES) - WINDOW_FRAMES / 2.0) * FRAME_PERIOD_S
            cx = crossing[0] + speed * t * math.cos(theta)
            cy = crossing[1] + speed * t * math.sin(theta)
            residual += oracle_blob_images(
                xs, ys, cx, cy, sx, sy, np.full(WINDOW_FRAMES, amp * scale)
            )
        else:
            sx, sy, amp = BLOB_PARAMS[label]
            center = rng.uniform(-0.7 * hw, 0.7 * hw, size=2)
            orientation = rng.uniform(0.0, math.pi) if label is PostureLabel.LIE_DOWN else 0.0
            phase = int(rng.integers(0, 480)) if label is PostureLabel.LIE_DOWN else 0
            offsets, flicker = oracle_fidget_offsets(label, phase + WINDOW_FRAMES, rng)
            offsets, flicker = offsets[phase:], flicker[phase:]
            residual += oracle_blob_images(
                xs, ys, center[0] + offsets[:, 0], center[1] + offsets[:, 1],
                sx, sy, amp * scale * flicker, orientation,
            )
    if noise_sigma > 0:
        residual += rng.normal(0.0, noise_sigma, size=residual.shape)
    np.maximum(residual, 0.0, out=residual)
    return residual


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- add_blobs ------------------------------------------------------------------

PLACEMENTS = {
    4: ModulePlacement(ModuleType.C, "room", (2.0, 1.75), fov_half_width=1.0),
    32: ModulePlacement(ModuleType.D, "room", (6.0, 4.5), fov_half_width=2.0),
}


@pytest.mark.parametrize("resolution", [4, 32])
@pytest.mark.parametrize("n", [0, 1, 7, "block+3"])
@pytest.mark.parametrize("orientation", [0.0, -0.0, 0.7, math.pi / 2])
def test_add_blobs_matches_whole_array_sum(resolution, n, orientation):
    if n == "block+3":  # three blocks and a ragged tail
        n = 2 * block_frames(resolution) + 3
    placement = PLACEMENTS[resolution]
    xs, ys = sensor_grid(placement, resolution)
    rng = np.random.default_rng([resolution, n, 7])
    cx = placement.position[0] + rng.uniform(-1.5, 1.5, n)
    cy = placement.position[1] + rng.uniform(-1.5, 1.5, n)
    amplitude = rng.uniform(2.0, 9.0, n)
    for posture in (PostureLabel.LIE_DOWN, PostureLabel.SIT):
        sx, sy, _ = BLOB_PARAMS[posture]
        base = rng.uniform(15.0, 30.0, (n, resolution, resolution))
        want = base + oracle_blob_images(xs, ys, cx, cy, sx, sy, amplitude, orientation)
        add_blobs(base, xs, ys, cx, cy, sx, sy, amplitude, orientation)
        assert same_bytes(base, want)


@pytest.mark.parametrize("orientation", [0.0, -0.0, 0.7, math.pi / 2])
def test_add_blobs_far_off_the_grid_underflows_to_nothing(orientation):
    xs, ys = sensor_grid(PLACEMENTS[32], 32)
    n = block_frames(32) + 5
    cx = np.full(n, 400.0)
    cy = np.linspace(-300.0, 300.0, n)
    amplitude = np.full(n, 8.0)
    assert not oracle_blob_images(xs, ys, cx, cy, 0.9, 0.35, amplitude, orientation).any()
    base = np.random.default_rng(3).uniform(15.0, 30.0, (n, 32, 32))
    want = base + oracle_blob_images(xs, ys, cx, cy, 0.9, 0.35, amplitude, orientation)
    add_blobs(base, xs, ys, cx, cy, 0.9, 0.35, amplitude, orientation)
    assert same_bytes(base, want)


def test_add_blobs_into_zeros_matches_the_returned_images():
    # render_window adds into a zeroed window, as `residual += blob` did
    xs, ys = sensor_grid(PLACEMENTS[4], 4)
    cx, cy, amplitude = [1.9, 2.3], [1.6, 1.7], [6.0, 7.0]
    out = np.zeros((2, 4, 4))
    add_blobs(out, xs, ys, cx, cy, 0.35, 0.35, amplitude)
    assert same_bytes(out, 0.0 + oracle_blob_images(xs, ys, cx, cy, 0.35, 0.35, amplitude))


# -- fidget_offsets -------------------------------------------------------------

FIDGET_CASES = [
    (PostureLabel.SIT, 0),
    (PostureLabel.SIT, 1),
    (PostureLabel.SIT, 2),
    (PostureLabel.SIT, 3001),
    (PostureLabel.STAND, 777),
    (PostureLabel.LIE_DOWN, 0),
    (PostureLabel.LIE_DOWN, 1),
    (PostureLabel.LIE_DOWN, SETTLE_FRAMES - 1),
    (PostureLabel.LIE_DOWN, SETTLE_FRAMES),
    (PostureLabel.LIE_DOWN, 5000),
    (PostureLabel.WALK, 500),  # radius 0: no shift draws at all
    (PostureLabel.NOT_HERE, 400),  # not in FIDGET_PARAMS
]


@pytest.mark.parametrize("posture,n", FIDGET_CASES)
@pytest.mark.parametrize("key", [0, 1, 2])
def test_fidget_offsets_match_the_per_frame_loops(posture, n, key):
    mine, theirs = np.random.default_rng([key, n]), np.random.default_rng([key, n])
    offsets, flicker = fidget_offsets(posture, n, mine)
    want_offsets, want_flicker = oracle_fidget_offsets(posture, n, theirs)
    assert same_bytes(offsets, want_offsets)
    assert same_bytes(flicker, want_flicker)
    assert mine.bit_generator.state == theirs.bit_generator.state


def test_walk_and_unknown_postures_draw_no_shifts():
    assert PostureLabel.NOT_HERE not in FIDGET_PARAMS
    assert FIDGET_PARAMS[PostureLabel.WALK][1] == 0.0
    for posture in (PostureLabel.WALK, PostureLabel.NOT_HERE):
        rng, jitter_only = np.random.default_rng(9), np.random.default_rng(9)
        offsets, _ = fidget_offsets(posture, 50, rng)
        assert same_bytes(offsets, 0.0 + jitter_only.normal(0.0, FIDGET_JITTER_M, size=(50, 2)))


def test_a_longer_draw_is_not_the_shorter_one_extended():
    # the fidget of a chunk is redrawn from the event's start, so where a
    # chunk boundary falls is part of the output
    for posture in (PostureLabel.SIT, PostureLabel.LIE_DOWN):
        short = fidget_offsets(posture, 60, event_rng(1, "s", 0, 3))
        long = fidget_offsets(posture, 100, event_rng(1, "s", 0, 3))
        assert not np.array_equal(long[0][:60], short[0])
        assert not np.array_equal(long[1][:60], short[1])


# -- noise, clip and quantize -----------------------------------------------------


@pytest.mark.parametrize("sigma", [0.0, 0.12, 3.0])
@pytest.mark.parametrize("n,step", [(0, 4), (1, 4), (11, 4), (64, 64)])
def test_finish_block_matches_one_noise_draw_per_chunk(sigma, n, step):
    base = np.random.default_rng([n, 5]).uniform(5.0, 50.0, (n, 4, 4))
    base[:1] = [[TEMP_MIN_C, TEMP_MAX_C, -0.0, 0.0]]  # bounds and signed zeros
    mine, theirs = event_rng(1, "x", 0, 2), event_rng(1, "x", 0, 2)
    want = base.copy()
    if sigma > 0:
        want += theirs.normal(0.0, sigma, size=want.shape)
    np.clip(want, TEMP_MIN_C, TEMP_MAX_C, out=want)
    want = oracle_quantize_pixels(want)

    got = np.empty((n, 4, 4), dtype=np.int16)
    scratch = np.empty((step, 4, 4))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        _finish_block(base[lo:hi], scratch[: hi - lo], mine, sigma, got[lo:hi])
    assert same_bytes(got, want)
    assert mine.bit_generator.state == theirs.bit_generator.state


# -- whole sensors ----------------------------------------------------------------


def _minutes(epoch):
    return lambda minutes: epoch + int(minutes * MS_PER_MINUTE)


def _lie_down_across_the_hour():
    """A 75-minute bedroom night whose lie-down spans the first render chunk's
    end, with visitors in the 32x32 living room and sunlight on the bedroom
    for its last 15 minutes."""
    layout = default_layout()
    epoch = parse_epoch("2024-03-04T22:30:00")
    m = _minutes(epoch)
    events = [
        OccupyRoom(start=m(1), end=m(9), room_id="living", posture=PostureLabel.SIT),
        VisitorEnter(at=m(2), count=2),
        VisitorLeave(at=m(6)),
        OccupyRoom(
            start=m(12), end=m(71), room_id="bedroom", posture=PostureLabel.LIE_DOWN,
            orientation_deg=30.0, turnovers=(m(40), m(61)),
        ),
    ]
    # 23:30-00:10 wraps midnight and starts an hour into the 22:30 scenario
    sun = SunlightPatch(
        "bedroom", 0, 1, 2, 3, parse_clock("23:30"), parse_clock("00:10"), delta_c=2.5
    )
    return layout, ScenarioScript(epoch=epoch, duration_min=75, events=events, sunlight=sun)


def _visitors_across_the_hour():
    """A 70-minute evening: five visitors (four seats) in the 32x32 living
    room from minute 50 to 66, across the first render chunk's end, and the
    resident standing among them for part of the stay."""
    epoch = parse_epoch("2024-03-05T19:00:00")
    m = _minutes(epoch)
    events = [
        OccupyRoom(start=m(1), end=m(20), room_id="kitchen", posture=PostureLabel.STAND),
        VisitorEnter(at=m(50), count=5),
        OccupyRoom(start=m(52), end=m(58), room_id="living", posture=PostureLabel.STAND),
        OccupyRoom(start=m(58), end=m(69), room_id="dining", posture=PostureLabel.SIT),
        VisitorLeave(at=m(66)),
    ]
    return default_layout(), ScenarioScript(epoch=epoch, duration_min=70, events=events)


def _two_visits_in_the_lite_home():
    """Two visits to the lite home's 4x4 living room: one visitor stays just
    under the residual-heat dwell, then three stay just over it, while the
    resident stands among them."""
    epoch = parse_epoch("2024-03-06T15:00:00")
    m = _minutes(epoch)
    events = [
        VisitorEnter(at=m(1), count=1),
        VisitorLeave(at=m(1) + MIN_PATCH_DWELL_MS - 1),
        OccupyRoom(start=m(2), end=m(9), room_id="living", posture=PostureLabel.STAND),
        VisitorEnter(at=m(6), count=3),
        VisitorLeave(at=m(6) + MIN_PATCH_DWELL_MS + 1),
        OccupyRoom(start=m(10), end=m(18), room_id="bedroom", posture=PostureLabel.LIE_DOWN),
    ]
    return lite_layout(), ScenarioScript(epoch=epoch, duration_min=25, events=events)


def _compare_with_oracle(layout, script, seed, noise_sigma):
    """Assert every rendered block equals the oracle's; returns the count."""
    bundle = simulate(layout, script, seed, PipelineConfig(pixel_noise_sigma=noise_sigma))
    resident = _ResidentModel(layout, script, seed)
    visitors = oracle_visitor_tracks(layout, script, seed)
    got = {(b.sensor_id, int(b.timestamps[0])): b for b in bundle.frames}
    compared = 0
    for spec in layout.thermal_sensors():
        for want in oracle_render_sensor(
            layout, script, spec, resident, visitors, seed, noise_sigma
        ):
            block = got[(spec.sensor_id, int(want.timestamps[0]))]
            assert same_bytes(block.timestamps, want.timestamps)
            assert same_bytes(block.pixels_centi, want.pixels_centi)
            compared += 1
    return compared


@pytest.mark.parametrize("noise_sigma", [0.0, PipelineConfig.pixel_noise_sigma])
def test_render_sensor_matches_whole_chunk_oracle(noise_sigma):
    layout, script = _lie_down_across_the_hour()
    bed = script.events[-1]
    chunk_end = script.start + RENDER_CHUNK_FRAMES * FRAME_PERIOD_MS
    assert bed.start < chunk_end < bed.end
    compared = _compare_with_oracle(layout, script, 41, noise_sigma)
    assert compared == 2 * len(layout.thermal_sensors())


VISIT_SCRIPTS = {
    "across_the_hour": _visitors_across_the_hour,
    "two_visits_lite": _two_visits_in_the_lite_home,
}


def test_visit_scripts_cover_the_edges():
    layout, script = _visitors_across_the_hour()
    (lo, hi, count), = script.visitor_intervals()
    chunk_end = script.start + RENDER_CHUNK_FRAMES * FRAME_PERIOD_MS
    assert lo < chunk_end < hi
    assert count > len(VISITOR_SLOTS) == len(oracle_visitor_tracks(layout, script, 3))

    layout, script = _two_visits_in_the_lite_home()
    (living,) = [s for s in layout.thermal_sensors() if s.room_id == "living"]
    assert living.kind.resolution == 4
    under, over = script.visitor_intervals()
    assert under[1] - under[0] < MIN_PATCH_DWELL_MS < over[1] - over[0]
    resident = _ResidentModel(layout, script, 3)
    visitors = oracle_visitor_tracks(layout, script, 3)
    # only the three visitors over the dwell leave heat
    assert len(oracle_patch_schedule(resident, visitors, "living", layout)) == 3


@pytest.mark.parametrize("noise_sigma", [0.0, PipelineConfig.pixel_noise_sigma])
@pytest.mark.parametrize("scenario", sorted(VISIT_SCRIPTS))
def test_visitors_render_like_the_whole_chunk_oracle(scenario, noise_sigma):
    layout, script = VISIT_SCRIPTS[scenario]()
    n_chunks = -(-script.duration_min * MS_PER_MINUTE // (RENDER_CHUNK_FRAMES * FRAME_PERIOD_MS))
    compared = _compare_with_oracle(layout, script, 17, noise_sigma)
    assert compared == n_chunks * len(layout.thermal_sensors())


@pytest.mark.parametrize(
    "scenario", ["lie_down_across_the_hour", *sorted(VISIT_SCRIPTS)]
)
def test_visitors_sit_only_where_the_resident_is_not_seen(scenario):
    layout, script = {"lie_down_across_the_hour": _lie_down_across_the_hour,
                      **VISIT_SCRIPTS}[scenario]()
    seed = 5
    truth = simulate(layout, script, seed).truth
    resident = _ResidentModel(layout, script, seed)
    alone = _build_truth(layout, script, resident, []).posture_truth
    n = (script.end - script.start) // POSTURE_INTERVAL_MS
    mids = script.start + POSTURE_INTERVAL_MS * np.arange(n) + POSTURE_INTERVAL_MS // 2
    visited = np.zeros(len(mids), dtype=bool)
    for lo, hi, count in script.visitor_intervals():
        visited |= (count > 0) & (mids >= lo) & (mids < hi)
    not_here = PostureLabel.NOT_HERE.value
    for spec in layout.thermal_sensors():
        want = alone[spec.sensor_id].copy()
        if spec.room_id == "living":
            # every script has the resident seen among the visitors for a while:
            # seated in the first, standing in the others
            assert (visited & (want != not_here)).any()
            seated = visited & (want == not_here)
            assert seated.any() or scenario == "lie_down_across_the_hour"
            want[seated] = PostureLabel.SIT.value
        assert same_bytes(truth.posture_truth[spec.sensor_id], want)


# -- training windows ---------------------------------------------------------------


@pytest.mark.parametrize("resolution", [4, 32])
@pytest.mark.parametrize("noise_sigma", [0.0, PipelineConfig.pixel_noise_sigma])
def test_render_window_matches_oracle(resolution, noise_sigma):
    for label in PostureLabel:
        for i in range(6):
            mine = np.random.default_rng([i, label.value, resolution])
            theirs = np.random.default_rng([i, label.value, resolution])
            got = render_window(label, resolution, mine, noise_sigma)
            want = oracle_render_window(label, resolution, theirs, noise_sigma)
            assert same_bytes(got, want)
            assert mine.bit_generator.state == theirs.bit_generator.state


def test_dataset_matches_oracle_windows():
    seeds = (3, 4)
    x, y = generate_posture_dataset(32, 3, seeds=seeds)
    row = 0
    for label in PostureLabel:
        for i in range(3):
            rng = np.random.default_rng([seeds[i % 2], label.value, i, 32])
            want = oracle_render_window(label, 32, rng)
            assert same_bytes(x[row], want.astype(np.float32))
            assert y[row] == label.value
            row += 1
