"""Synthetic labeled posture windows, rendered with the same blob physics the
simulator uses so training matches the pipeline's residual distribution."""

from __future__ import annotations

import functools
import math

import numpy as np

from ..config import PipelineConfig
from ..core import FRAME_PERIOD_MS, WINDOW_FRAMES, PostureLabel
from ..layout import ModulePlacement, ModuleType
from ..simulate.render import BLOB_PARAMS, add_blobs, fidget_offsets, sensor_grid

FRAME_PERIOD_S = FRAME_PERIOD_MS / 1000.0
# bodies vary in how warm they read; a lying body under a blanket reads far
# cooler than an upright one, so its range extends much lower
AMPLITUDE_SCALE_RANGE = (0.7, 1.15)
LIE_DOWN_SCALE_RANGE = (0.25, 1.15)


@functools.cache
def _grid(resolution: int) -> tuple[np.ndarray, np.ndarray, float]:
    """The pixel grid of a training window, made once per resolution."""
    hw = 2.0 if resolution == 32 else 1.0
    placement = ModulePlacement(
        ModuleType.D if resolution == 32 else ModuleType.C,
        "room",
        (0.0, 0.0),
        fov_half_width=hw,
    )
    xs, ys = sensor_grid(placement, resolution)
    xs.flags.writeable = ys.flags.writeable = False
    return xs, ys, hw


def render_window(
    label: PostureLabel,
    resolution: int,
    rng: np.random.Generator,
    noise_sigma: float = PipelineConfig.pixel_noise_sigma,
) -> np.ndarray:
    """One 20-frame residual window [20, r, r] for the given posture."""
    xs, ys, hw = _grid(resolution)
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
            add_blobs(residual, xs, ys, cx, cy, sx, sy, np.full(WINDOW_FRAMES, amp * scale))
        else:
            sx, sy, amp = BLOB_PARAMS[label]
            # covers bodies close to the FOV edge (beds often sit there)
            center = rng.uniform(-0.7 * hw, 0.7 * hw, size=2)
            orientation = rng.uniform(0.0, math.pi) if label is PostureLabel.LIE_DOWN else 0.0
            # sample a random phase of the fidget process so lie-down windows
            # cover both the restless settle-in and deep stillness
            phase = int(rng.integers(0, 480)) if label is PostureLabel.LIE_DOWN else 0
            offsets, flicker = fidget_offsets(label, phase + WINDOW_FRAMES, rng)
            offsets, flicker = offsets[phase:], flicker[phase:]
            add_blobs(
                residual,
                xs,
                ys,
                center[0] + offsets[:, 0],
                center[1] + offsets[:, 1],
                sx,
                sy,
                amp * scale * flicker,
                orientation,
            )

    if noise_sigma > 0:
        residual += rng.normal(0.0, noise_sigma, size=residual.shape)
    np.maximum(residual, 0.0, out=residual)
    return residual


def generate_posture_dataset(
    resolution: int,
    windows_per_class: int,
    seeds: tuple[int, ...] = tuple(range(PipelineConfig.dataset_seeds)),
    noise_sigma: float = PipelineConfig.pixel_noise_sigma,
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced dataset (x [n, 20, r, r] float32, y [n] uint8).

    Body-position variation is spread across the given seeds; output order is
    deterministic.
    """
    x = np.empty(
        (5 * windows_per_class, WINDOW_FRAMES, resolution, resolution), dtype=np.float32
    )
    y = np.empty(5 * windows_per_class, dtype=np.uint8)
    row = 0
    for label in PostureLabel:
        for i in range(windows_per_class):
            seed = seeds[i % len(seeds)]
            rng = np.random.default_rng([seed, label.value, i, resolution])
            x[row] = render_window(label, resolution, rng, noise_sigma)
            y[row] = label.value
            row += 1
    return x, y
