"""Tiling a residual frame stream into 20-frame posture windows."""

from __future__ import annotations

import numpy as np

from ..core import FRAME_PERIOD_MS, WINDOW_FRAMES

CADENCE_TOLERANCE = 0.10  # allowed inter-frame spacing error, fraction of the period


def build_windows(
    timestamps: np.ndarray,
    frames: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Tile the stream into consecutive 20-frame windows.

    Returns the indices of the kept and of the dropped tiles.  A tile whose
    inter-frame spacing strays outside FRAME_PERIOD_MS +/- CADENCE_TOLERANCE
    (a cadence gap) is dropped.  A trailing partial window is never emitted.
    Only the timestamps decide, so `frames` may be the raw frames or their
    residuals; it must hold a frame per timestamp.
    """
    if len(timestamps) != len(frames):
        raise ValueError(f"{len(timestamps)} timestamps for {len(frames)} frames")
    tiles = len(timestamps) // WINDOW_FRAMES
    spacing = np.diff(timestamps[: tiles * WINDOW_FRAMES].reshape(tiles, WINDOW_FRAMES), axis=1)
    off_cadence = (spacing.min(axis=1) < FRAME_PERIOD_MS * (1.0 - CADENCE_TOLERANCE)) | (
        spacing.max(axis=1) > FRAME_PERIOD_MS * (1.0 + CADENCE_TOLERANCE)
    )
    return np.flatnonzero(~off_cadence), np.flatnonzero(off_cadence)


def tile_stack(residuals: np.ndarray, tiles: np.ndarray) -> np.ndarray:
    """The ascending `tiles` of the stream as a [k, 20, r, r] stack: a view
    of the residuals when they are consecutive, one gather when not."""
    whole = len(residuals) // WINDOW_FRAMES
    stack = residuals[: whole * WINDOW_FRAMES].reshape(whole, WINDOW_FRAMES, *residuals.shape[1:])
    if len(tiles) and tiles[-1] - tiles[0] == len(tiles) - 1:
        return stack[tiles[0] : tiles[-1] + 1]
    return stack[tiles]


def stack_windows(residuals: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """The kept tiles as a [k, 20, r, r] float32 stack (`tile_stack`)."""
    return tile_stack(residuals, kept).astype(np.float32, copy=False)
