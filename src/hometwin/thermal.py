"""Thermal preprocessing: per-pixel baseline, noise filtering, self-calibration,
motion index, and blob counting.

The baseline is a per-pixel exponentially weighted mean/variance fed only by
frames judged unoccupied, so persistent environmental heat (sunlight patches,
slow ambient drift) is absorbed while people are not.  Self-calibration is a
hard reset of the baseline from recent unoccupied frames, triggered when the
co-located temperature sensor reports a significant ambient shift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .core import MS_PER_MINUTE, pixels_to_celsius
from .errors import DimensionError, InsufficientDataError, ResolutionError


@dataclass
class PixelBaseline:
    resolution: int
    mean: np.ndarray  # float64[res, res], degrees C
    var: np.ndarray  # float64[res, res]
    last_calibration: int
    reference_ambient: float
    frames_seen: int = 0

    @classmethod
    def from_frames(
        cls, celsius: np.ndarray, ambient: float, now: int
    ) -> "PixelBaseline":
        """Initialize from a stack of unoccupied frames (float C, [n, r, r])."""
        res = celsius.shape[-1]
        return cls(
            resolution=res,
            mean=celsius.mean(axis=0, dtype=np.float64),
            var=celsius.var(axis=0, dtype=np.float64),
            last_calibration=now,
            reference_ambient=float(ambient),
            frames_seen=celsius.shape[0],
        )

    def update(self, mean: np.ndarray, weight: float, frames: int) -> None:
        """Exponentially weighted update from the mean of `frames` unoccupied
        frames; `weight` is the combined weight of those frames."""
        delta = mean - self.mean
        self.mean = self.mean + weight * delta
        self.var = (1.0 - weight) * (self.var + weight * delta * delta)
        self.frames_seen += frames


def should_calibrate(
    baseline: PixelBaseline,
    ambient_now: float,
    now: int,
    delta_cal_c: float,
    min_recal_interval_min: float,
) -> bool:
    """Fire a self-calibration only on a significant ambient shift once the
    rate limit has elapsed.  The tracker asks only in unoccupied chunks."""
    if abs(ambient_now - baseline.reference_ambient) <= delta_cal_c:
        return False
    return now - baseline.last_calibration >= min_recal_interval_min * MS_PER_MINUTE


def apply_calibration(
    baseline: PixelBaseline,
    recent_celsius: np.ndarray,
    ambient_now: float,
    now: int,
    warmup_frames: int,
) -> bool:
    """Reset the baseline from recent unoccupied frames.

    Returns False (deferred) when fewer than `warmup_frames` frames are
    available; that is a signal, not a failure.
    """
    recent_celsius = np.asarray(recent_celsius)
    if recent_celsius.ndim != 3 or recent_celsius.shape[0] < warmup_frames:
        return False
    if recent_celsius.shape[-2:] != (baseline.resolution, baseline.resolution):
        raise DimensionError("calibration frames do not match baseline resolution")
    baseline.mean = recent_celsius.mean(axis=0, dtype=np.float64)
    baseline.var = recent_celsius.var(axis=0, dtype=np.float64)
    baseline.reference_ambient = float(ambient_now)
    baseline.last_calibration = now
    return True


# Budget for one block of float64 motion-index buffers (the cast windows and
# their frame differences): 2 windows at 32x32 and 183 at 4x4, so a block
# stays in cache.  One pass over a whole stack was slower than a loop over
# single windows.
MOTION_BLOCK_BYTES = 896 * 1024


def motion_index(windows: np.ndarray) -> np.ndarray:
    """Per window of a [k, n, r, r] stack: the mean over consecutive frame
    pairs of the mean absolute per-pixel change, as float64[k].

    Already per-pixel, so 4x4 and 32x32 values are directly comparable.
    Each window is cast to float64 and summed along its own row, the same
    reduction as `np.mean` over that window alone.
    """
    windows = np.asarray(windows)
    if windows.ndim != 4:
        raise DimensionError(f"expected a [k, n, r, r] window stack, got {windows.shape}")
    k, n, rows, cols = windows.shape
    if n < 2:
        raise InsufficientDataError("motion index needs at least 2 frames")
    step = max(1, MOTION_BLOCK_BYTES // ((2 * n - 1) * rows * cols * 8))
    cast = np.empty((min(step, k), n, rows, cols))
    diffs = np.empty((min(step, k), n - 1, rows, cols))
    sums = np.empty(k)
    for lo in range(0, k, step):
        m = min(step, k - lo)
        np.copyto(cast[:m], windows[lo : lo + m])
        np.subtract(cast[:m, 1:], cast[:m, :-1], out=diffs[:m])
        np.abs(diffs[:m], out=diffs[:m])
        np.add.reduce(diffs[:m].reshape(m, -1), axis=1, out=sums[lo : lo + m])
    return sums / ((n - 1) * rows * cols)


def count_blobs(residual_means: np.ndarray, threshold: float, min_pixels: int) -> np.ndarray:
    """Per window of a [k, 32, 32] stack: the number of 4-connected
    components with >= min_pixels pixels above threshold, as int64[k].

    Only meaningful at 32x32 (the high-resolution module); lower resolutions
    raise ResolutionError.

    Run-based two-pass labelling (Wu, Otoo & Suzuki 2009) over the whole
    stack at once: each window gets a zero row below it and each row a zero
    column after it, so one diff over the flat mask yields every row run
    and no run or link crosses a row or window edge.  Runs that overlap in
    adjacent rows are linked with two searchsorted calls, and components
    are the roots of a union-find that hooks the larger root onto the
    smaller and then jumps pointers until every run points at its root.
    """
    means = np.asarray(residual_means)
    if means.ndim != 3 or means.shape[1:] != (32, 32):
        raise ResolutionError(
            f"blob counting requires a [k, 32, 32] residual stack, got {means.shape}"
        )
    k = means.shape[0]
    side = 33  # padded row length, and padded rows per window
    mask = np.zeros((k, side, side), dtype=np.int8)
    mask[:, :32, :32] = means > threshold
    edges = np.diff(mask.ravel(), prepend=0)
    starts = np.flatnonzero(edges == 1)  # flat index of a run's first pixel
    ends = np.flatnonzero(edges == -1)  # flat index just past its last pixel

    # runs of the row above that overlap each run: [lo, hi) in run order
    lo = np.searchsorted(ends, starts - side, side="right")
    hi = np.searchsorted(starts, ends - side, side="left")
    links = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(len(starts)), links)
    above = np.repeat(lo - (np.cumsum(links) - links), links) + np.arange(links.sum())

    parent = np.arange(len(starts))
    while len(above):
        root_above = parent[above]
        root_below = parent[below]
        apart = root_above != root_below
        above, below = above[apart], below[apart]
        root_above, root_below = root_above[apart], root_below[apart]
        np.minimum.at(
            parent, np.maximum(root_above, root_below), np.minimum(root_above, root_below)
        )
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand

    sizes = np.bincount(parent, weights=ends - starts, minlength=len(starts))
    roots = np.flatnonzero((parent == np.arange(len(starts))) & (sizes >= min_pixels))
    return np.bincount(starts[roots] // (side * side), minlength=k).astype(np.int64)


class BaselineTracker:
    """Streaming baseline maintenance for one thermal sensor.

    Feed frame stacks in time order; residual stacks come back.  The first
    `warmup_frames` frames initialize the baseline and are assumed
    unoccupied.  After warmup the baseline absorbs a frame only when the
    trailing-minute motion index stays below theta_idle AND the frame's
    residual stays below presence_max_c -- a still sleeper keeps heat in the
    frame but must never be absorbed into the background.

    The tunables come from the config: warmup_frames, baseline_alpha,
    theta_idle, presence_max_c, delta_cal_c and min_recal_interval_min.

    Frames are processed in ~10 s sub-chunks with one gate decision and one
    weighted baseline update per chunk (weight 1-(1-alpha)^k for k absorbed
    frames), which keeps day-long streams cheap without changing the
    steady-state behaviour of the per-frame update.
    """

    CHUNK = 40  # frames per update decision (10 s at 4 Hz)
    AMBIENT_SMOOTH_SAMPLES = 12  # one minute of 5 s thermometer readings

    def __init__(self, resolution: int, config: PipelineConfig | None = None):
        self.resolution = resolution
        self.config = config or PipelineConfig()
        self.baseline: PixelBaseline | None = None
        self._warmup: list[np.ndarray] = []
        self._warmup_ts: list[int] = []
        # trailing-minute chunk diffs: (ts, mean abs consecutive-frame diff)
        self._recent_diff: deque[tuple[int, float]] = deque()
        self._prev_frame: np.ndarray | None = None
        # ring of recent unoccupied frames for calibration resets
        self._calib_ring: deque[np.ndarray] = deque(maxlen=240)
        self._ambient: float | None = None
        self._ambient_ts: np.ndarray | None = None
        self._ambient_values: np.ndarray | None = None
        # ambient the baseline mean currently corresponds to; the gap between
        # it and the live thermometer is subtracted from every frame, so slow
        # drift cannot fake (or erase) a warm body while updates are blocked
        self._ambient_at_mean: float | None = None
        self.calibration_events: list[int] = []

    def set_ambient_series(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        """Co-located temperature readings for continuous drift compensation."""
        self._ambient_ts = np.asarray(timestamps, dtype=np.int64)
        self._ambient_values = np.asarray(values, dtype=np.float64)

    def _ambient_at(self, ts: int) -> float | None:
        """Recent-window mean of the thermometer; the ambient signal is slow
        and the reading noise would otherwise leak into every residual."""
        if self._ambient_ts is not None and len(self._ambient_ts):
            i = int(np.searchsorted(self._ambient_ts, ts, side="right"))
            if i > 0:
                lo = max(0, i - self.AMBIENT_SMOOTH_SAMPLES)
                return float(self._ambient_values[lo:i].mean())
        return self._ambient

    def _trailing_index(self, now: int) -> float:
        while self._recent_diff and self._recent_diff[0][0] < now - MS_PER_MINUTE:
            self._recent_diff.popleft()
        if not self._recent_diff:
            return 0.0
        return float(np.mean([d for _, d in self._recent_diff]))

    def _chunk_diff(self, celsius: np.ndarray) -> float:
        """Mean abs consecutive-frame difference across the chunk, including
        the seam against the previous chunk's last frame."""
        stack = celsius
        if self._prev_frame is not None:
            stack = np.concatenate([self._prev_frame[None], celsius])
        self._prev_frame = celsius[-1]
        if stack.shape[0] < 2:
            return 0.0
        return float(np.abs(np.diff(stack, axis=0)).mean())

    def process(self, timestamps: np.ndarray, pixels_centi: np.ndarray) -> np.ndarray:
        """Consume a stack of frames; return float32 residuals [n, r, r].

        Warmup frames produce all-zero residuals (the baseline is still
        forming).
        """
        if pixels_centi.shape[1:] != (self.resolution, self.resolution):
            raise DimensionError(
                f"frame shape {pixels_centi.shape[1:]} does not match tracker "
                f"resolution {self.resolution}"
            )
        n = pixels_centi.shape[0]
        residuals = np.zeros((n, self.resolution, self.resolution), dtype=np.float32)
        p = self.config

        start = 0
        if self.baseline is None:
            take = min(p.warmup_frames - len(self._warmup), n)
            if take:
                warm = pixels_to_celsius(pixels_centi[:take]).astype(np.float64)
                self._warmup.extend(warm)
                self._warmup_ts.extend(int(t) for t in timestamps[:take])
            start = take
            if len(self._warmup) >= p.warmup_frames:
                ambient = self._ambient_at(self._warmup_ts[-1])
                if ambient is None:
                    ambient = float(np.median(self._warmup[-1]))
                stack = np.stack(self._warmup)
                self.baseline = PixelBaseline.from_frames(
                    stack, ambient, self._warmup_ts[-1]
                )
                self._ambient_at_mean = ambient
                self._calib_ring.extend(stack)
                self._prev_frame = stack[-1]
                self._warmup.clear()
                self._warmup_ts.clear()
            if start == n:
                return residuals

        base = self.baseline
        for lo in range(start, n, self.CHUNK):
            hi = min(lo + self.CHUNK, n)
            celsius = pixels_to_celsius(pixels_centi[lo:hi]).astype(np.float64)
            ts_end = int(timestamps[hi - 1])
            ambient_now = self._ambient_at(ts_end)
            if ambient_now is not None:
                self._ambient = ambient_now

            offset = 0.0
            if ambient_now is not None and self._ambient_at_mean is not None:
                offset = ambient_now - self._ambient_at_mean
            residual = celsius - (base.mean + offset)
            np.maximum(residual, 0.0, out=residual)
            residuals[lo:hi] = residual

            self._recent_diff.append((ts_end, self._chunk_diff(celsius)))
            moving = self._trailing_index(ts_end) >= p.theta_idle
            present = float(residual.max()) >= p.presence_max_c
            if moving or present:
                continue

            k = hi - lo
            weight = 1.0 - (1.0 - p.baseline_alpha) ** k
            base.update(celsius.mean(axis=0), weight, k)
            if ambient_now is not None and self._ambient_at_mean is not None:
                self._ambient_at_mean += weight * (ambient_now - self._ambient_at_mean)
            self._calib_ring.extend(celsius)

            if self._ambient is not None and should_calibrate(
                base, self._ambient, ts_end, p.delta_cal_c, p.min_recal_interval_min
            ):
                ring = np.stack(self._calib_ring)
                if apply_calibration(base, ring, self._ambient, ts_end, p.warmup_frames):
                    self.calibration_events.append(ts_end)
                    self._ambient_at_mean = self._ambient
        return residuals
