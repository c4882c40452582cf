"""Synthetic heat-map building blocks.

The engine (`simulate.engine._render_sensor`) renders whole frame stacks
additively: room ambient + one 2D Gaussian blob per occupant (`add_blobs`)
+ decaying residual-heat patches + an optional sunlight patch + per-pixel
Gaussian noise.  Blob shape and amplitude depend on posture; lying down is an
elongated anisotropic ellipse, standing is compact and hottest.

Rendering runs in cache-sized blocks of frames (`block_frames`): the engine
fills one float64 block, adds every term into it in place and quantizes it
before it moves to the next, and `add_blobs` evaluates a blob with a few
block-sized scratch buffers and `out=` ufuncs.  No array of a whole chunk's
float pixels is made, and the float operations and their order are those of
the plain whole-array formulas, so the frames are the same bytes.

Live bodies also carry micro-motion ("fidget": occasional posture shifts plus
amplitude flicker) so that occupied rooms separate from static residual heat
in the motion index.  Fidget is thermal texture only -- the binary motion
sensors see scripted macro-positions, not fidget.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from ..core import FRAME_PERIOD_MS, PostureLabel
from ..layout import ModulePlacement

# posture -> (sigma_major m, sigma_minor m, amplitude degrees C)
BLOB_PARAMS: dict[PostureLabel, tuple[float, float, float]] = {
    PostureLabel.LIE_DOWN: (0.90, 0.35, 6.0),
    PostureLabel.SIT: (0.35, 0.35, 7.0),
    PostureLabel.STAND: (0.25, 0.25, 8.0),
    PostureLabel.WALK: (0.25, 0.25, 8.0),
}
WALK_SPEED_MPS = 1.0
# the heat a seated or lying body leaves behind: a blob of this fraction of
# the body's amplitude that decays with this time constant
RESIDUAL_AMPLITUDE_FRAC = 0.4
RESIDUAL_TAU_MIN = 10.0

# fidget behaviour per posture: (shift probability per second, shift radius m,
# amplitude flicker std).  Shifts move the blob; flicker wobbles its whole
# radiant output (trunk lean, limb motion).  Together a live body clears the
# activity threshold that static residual heat cannot reach -- flicker
# matters especially at 32x32, where localized motion dilutes over 1024
# pixels but a whole-blob gain wobble does not.
FIDGET_PARAMS: dict[PostureLabel, tuple[float, float, float]] = {
    PostureLabel.SIT: (2.0, 0.45, 0.22),
    PostureLabel.STAND: (2.0, 0.38, 0.22),
    PostureLabel.WALK: (0.0, 0.0, 0.10),
    PostureLabel.LIE_DOWN: (0.01, 0.04, 0.03),
}
# getting comfortable in bed: the first stretch of a lie-down is restless
SETTLE_FRAMES = 300  # 75 s
SETTLE_PARAMS = (1.2, 0.18, 0.12)
FIDGET_RAMP_FRAMES = 2
FIDGET_JITTER_M = 0.01
FLICKER_RHO = 0.5

# a roll-over moves the body mass fast enough to spike the frame difference
# well above the sleep-quality stillness threshold
TURNOVER_SHIFT_M = 0.30
TURNOVER_RAMP_MS = 500


def sensor_grid(placement: ModulePlacement, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel-center world coordinates (xs[r, r], ys[r, r]) of a thermal FOV."""
    hw = placement.fov_half_width
    pitch = 2.0 * hw / resolution
    coords = -hw + pitch * (np.arange(resolution) + 0.5)
    xs = placement.position[0] + coords[None, :].repeat(resolution, axis=0)
    ys = placement.position[1] + coords[:, None].repeat(resolution, axis=1)
    return xs, ys


# each float64 block buffer holds about this many bytes, so that a block and
# the scratch of `add_blobs` stay in a core's L2 cache
BLOCK_BYTES = 1 << 18


def block_frames(resolution: int) -> int:
    """Frames per cache-sized block of [r, r] float64 frames."""
    return max(1, BLOCK_BYTES // (8 * resolution * resolution))


def add_blobs(
    out: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    cx,
    cy,
    sigma_major: float,
    sigma_minor: float,
    amplitude,
    orientation_rad: float = 0.0,
) -> None:
    """Add one Gaussian blob per frame into out[n, r, r] (float64), in place.

    xs, ys are a pixel grid as `sensor_grid` makes it: xs varies along
    columns only and ys along rows only.  cx, cy, amplitude are per-frame
    arrays; the major axis is rotated by orientation_rad from the x axis.
    Frame i gains amplitude[i] * exp(-((u*u) / (2 sx^2) + (v*v) / (2 sy^2))),
    with dx = xs - cx[i], dy = ys - cy[i], u = dx cos + dy sin and
    v = -dx sin + dy cos.  Every pixel's value takes those operations in
    that order, but each term is formed once per row or column where it can
    be, and the rest one `out=` ufunc at a time over blocks of frames:

    - dx and dy, and their products with cos and sin, are [n, r] tables;
    - dividing by -2 sx^2 negates exactly, and (-a) + (-b) is -(a + b) up to
      the sign of a zero that exp maps to 1, so no negation pass is needed;
    - at orientation 0 (or -0.0) the rotation is skipped, since for finite
      inputs dx*1.0 + dy*0.0 is dx and -dx*0.0 + dy*1.0 is dy, up to the
      sign of a zero that is squared next; then the two quotients are
      [n, r] tables too and one broadcast add forms each frame.
    """
    n = len(out)
    if n == 0:
        return
    dx = xs[0] - np.asarray(cx, dtype=np.float64)[:, None]  # [n, columns]
    dy = ys[:, 0] - np.asarray(cy, dtype=np.float64)[:, None]  # [n, rows]
    amplitude = np.asarray(amplitude, dtype=np.float64)[:, None, None]
    neg_two_sx2 = -(2.0 * sigma_major**2)
    neg_two_sy2 = -(2.0 * sigma_minor**2)
    rotate = orientation_rad != 0.0
    if rotate:
        cos_t, sin_t = math.cos(orientation_rad), math.sin(orientation_rad)
        u_x, u_y = dx * cos_t, dy * sin_t
        v_x, v_y = dx * -sin_t, dy * cos_t  # (-dx)*sin, exactly
    else:
        neg_a = (dx * dx) / neg_two_sx2
        neg_b = (dy * dy) / neg_two_sy2
    step = min(n, block_frames(xs.shape[0]))
    q_buffer = np.empty((step,) + xs.shape)
    v_buffer = np.empty_like(q_buffer) if rotate else None
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        q = q_buffer[: hi - lo]
        if rotate:
            v = v_buffer[: hi - lo]
            np.add(u_x[lo:hi, None, :], u_y[lo:hi, :, None], out=q)
            np.multiply(q, q, out=q)
            np.divide(q, neg_two_sx2, out=q)
            np.add(v_x[lo:hi, None, :], v_y[lo:hi, :, None], out=v)
            np.multiply(v, v, out=v)
            np.divide(v, neg_two_sy2, out=v)
            np.add(q, v, out=q)
        else:
            np.add(neg_a[lo:hi, None, :], neg_b[lo:hi, :, None], out=q)
        np.exp(q, out=q)
        np.multiply(amplitude[lo:hi], q, out=q)
        np.add(out[lo:hi], q, out=out[lo:hi])


def event_rng(seed: int, sensor_id: str, event_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed & 0xFFFFFFFF, zlib.crc32(sensor_id.encode()), event_index, stream]
    )


def _uniform(low: float, high: float, u: float) -> float:
    """`Generator.uniform(low, high)` from the double u it would draw."""
    return low + (high - low) * u


def fidget_offsets(
    posture: PostureLabel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame fidget (offsets[n, 2], amplitude factors[n]) for a live body.

    Offsets follow occasional sub-second shifts to a fresh point within the
    fidget radius plus small continuous jitter; amplitude factors are an AR(1)
    flicker around 1.0.  The generator yields, in order: random(n) for the
    shift starts, a uniform (angle, radius) pair per shift taken,
    normal((n, 2)) jitter and normal(n) flicker innovations.  Which starts
    become shifts depends on the starts alone, so the k pairs come from one
    random(2k) call, the same doubles that k pairs of scalar `uniform` calls
    take.  The ramps and the flicker recurrence run on Python floats (the
    same IEEE doubles as numpy's, with math.cos and math.sin), and each ramp
    position is spread over the frames that hold it by one index array.
    """
    p_shift, radius, flicker_std = FIDGET_PARAMS.get(posture, (0.0, 0.0, 0.0))
    # frames [0, settle) of a lie-down use SETTLE_PARAMS, the rest the posture's
    settle = min(SETTLE_FRAMES, n) if posture is PostureLabel.LIE_DOWN else 0
    settle_shift, settle_radius, settle_std = SETTLE_PARAMS

    offsets = np.zeros((n, 2))
    if radius > 0.0 or posture is PostureLabel.LIE_DOWN:
        per_frame = FRAME_PERIOD_MS / 1000.0
        threshold = np.full(n, p_shift * per_frame)
        threshold[:settle] = settle_shift * per_frame
        # a shift starts on a start frame with a radius once the last
        # shift's ramp is over
        shifts = []
        free_from = 0
        for i in np.flatnonzero(rng.random(n) < threshold).tolist():
            if i >= free_from and (settle_radius if i < settle else radius) > 0.0:
                shifts.append(i)
                free_from = i + FIDGET_RAMP_FRAMES
        pairs = rng.random(2 * len(shifts)).tolist()
        # the positions in order, each held from the frame that sets it: a
        # shift at frame i sets one ramp step in each of frames i, i+1, ...
        px, py = [0.0], [0.0]
        cur_x = cur_y = 0.0
        for k, i in enumerate(shifts):
            angle = _uniform(0.0, 2.0 * math.pi, pairs[2 * k])
            r = (settle_radius if i < settle else radius) * math.sqrt(
                _uniform(0.2, 1.0, pairs[2 * k + 1])
            )
            step_x = (r * math.cos(angle) - cur_x) / FIDGET_RAMP_FRAMES
            step_y = (r * math.sin(angle) - cur_y) / FIDGET_RAMP_FRAMES
            for _ in range(FIDGET_RAMP_FRAMES):
                cur_x += step_x
                cur_y += step_y
                px.append(cur_x)
                py.append(cur_y)
        sets = np.zeros(n + FIDGET_RAMP_FRAMES, dtype=np.intp)
        for m in range(FIDGET_RAMP_FRAMES):
            sets[np.asarray(shifts, dtype=np.intp) + m] = 1
        held = np.cumsum(sets[:n])
        offsets[:, 0] = np.asarray(px)[held]
        offsets[:, 1] = np.asarray(py)[held]
    offsets += rng.normal(0.0, FIDGET_JITTER_M, size=(n, 2))

    std = np.full(n, flicker_std)
    std[:settle] = settle_std
    innovations = (rng.normal(0.0, math.sqrt(1 - FLICKER_RHO**2), size=n) * std).tolist()
    states = []
    state = 0.0
    for innovation in innovations:
        state = FLICKER_RHO * state + innovation
        states.append(state)
    flicker = 1.0 + np.asarray(states, dtype=np.float64)
    return offsets, np.clip(flicker, 0.55, 1.45)


def path_positions(
    path: tuple[tuple[float, float], ...],
    rel_ms: np.ndarray,
    speed_mps: float,
) -> np.ndarray:
    """Positions along a waypoint path at constant speed, ping-ponging."""
    pts = np.asarray(path, dtype=np.float64)
    if len(pts) == 1:
        return np.repeat(pts, len(rel_ms), axis=0)
    seg = np.diff(pts, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    if total <= 0.0:
        return np.repeat(pts[:1], len(rel_ms), axis=0)
    s = np.asarray(rel_ms, dtype=np.float64) / 1000.0 * speed_mps
    s = np.abs((s + total) % (2.0 * total) - total)  # ping-pong reflection
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg_len) - 1)
    frac = (s - cum[idx]) / np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    return pts[idx] + seg[idx] * frac[:, None]


def turnover_offsets(turnovers: tuple[int, ...], ts: np.ndarray) -> np.ndarray:
    """Lateral offset in meters from scripted in-bed turnovers (alternating side)."""
    offset = np.zeros(len(ts))
    for k, at in enumerate(sorted(turnovers)):
        new_side = TURNOVER_SHIFT_M if k % 2 == 0 else 0.0
        ramp = np.clip((np.asarray(ts) - at) / TURNOVER_RAMP_MS, 0.0, 1.0)
        offset = offset * (1.0 - ramp) + new_side * ramp
    return offset
