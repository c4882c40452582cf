"""Synthetic heat-map building blocks.

The engine (`simulate.engine._render_sensor`) renders whole frame stacks
additively: room ambient + one 2D Gaussian blob per occupant (`blob_images`)
+ decaying residual-heat patches + an optional sunlight patch + per-pixel
Gaussian noise.  Blob shape and amplitude depend on posture; lying down is an
elongated anisotropic ellipse, standing is compact and hottest.

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


def blob_images(
    xs: np.ndarray,
    ys: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    sigma_major: float,
    sigma_minor: float,
    amplitude: np.ndarray,
    orientation_rad: float = 0.0,
) -> np.ndarray:
    """Evaluate a Gaussian blob at pixel centers for n frames -> [n, r, r].

    cx, cy, amplitude are per-frame arrays; the major axis is rotated by
    orientation_rad from the x axis.
    """
    dx = xs[None, :, :] - np.asarray(cx)[:, None, None]
    dy = ys[None, :, :] - np.asarray(cy)[:, None, None]
    cos_t, sin_t = math.cos(orientation_rad), math.sin(orientation_rad)
    u = dx * cos_t + dy * sin_t
    v = -dx * sin_t + dy * cos_t
    quad = (u * u) / (2.0 * sigma_major**2) + (v * v) / (2.0 * sigma_minor**2)
    return np.asarray(amplitude)[:, None, None] * np.exp(-quad)


def event_rng(seed: int, sensor_id: str, event_index: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        [seed & 0xFFFFFFFF, zlib.crc32(sensor_id.encode()), event_index, stream]
    )


def fidget_offsets(
    posture: PostureLabel, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-frame fidget (offsets[n, 2], amplitude factors[n]) for a live body.

    Offsets follow occasional sub-second shifts to a fresh point within the
    fidget radius plus small continuous jitter; amplitude factors are an AR(1)
    flicker around 1.0.
    """
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
        starts = rng.random(n) < p_shift * (FRAME_PERIOD_MS / 1000.0)  # per frame
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
