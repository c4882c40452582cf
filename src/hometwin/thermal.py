"""Thermal preprocessing: per-pixel baseline, noise filtering, self-calibration,
motion index, and blob counting.

The baseline is a per-pixel exponentially weighted mean fed only by frames
judged unoccupied, so persistent environmental heat (sunlight patches,
slow ambient drift) is absorbed while people are not.  Self-calibration is a
hard reset of the baseline from recent unoccupied frames, triggered when the
co-located temperature sensor reports a significant ambient shift.

The tracker does what does not depend on the baseline once per cache-sized
slab of chunks, and only the gate and the update chunk by chunk, with the
same bits as a chunk-by-chunk loop (`tests/test_tracker_oracle.py`).  After
each slab it can report how many residual frames are final, so that a
consumer can read them before the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import PipelineConfig
from .core import MS_PER_MINUTE
from .errors import DimensionError, InsufficientDataError, ResolutionError


@dataclass
class PixelBaseline:
    resolution: int
    mean: np.ndarray  # float64[res, res], degrees C
    last_calibration: int
    reference_ambient: float

    @classmethod
    def from_frames(
        cls, celsius: np.ndarray, ambient: float, now: int
    ) -> "PixelBaseline":
        """Initialize from a stack of unoccupied frames (float C, [n, r, r])."""
        res = celsius.shape[-1]
        return cls(
            resolution=res,
            mean=celsius.mean(axis=0, dtype=np.float64),
            last_calibration=now,
            reference_ambient=float(ambient),
        )

    def update(self, mean: np.ndarray, weight: float) -> None:
        """Exponentially weighted update from the mean of some unoccupied
        frames; `weight` is the combined weight of those frames."""
        self.mean = self.mean + weight * (mean - self.mean)


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


# Budget for one slab of float64 tracker buffers (the cast frames, then
# their consecutive differences and in turn their residuals): one chunk at
# 32x32 and 102 at 4x4, so each pass over a slab stays in cache.
TRACKER_SLAB_BYTES = 1024 * 1024


def _celsius64(pixels_centi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`pixels_to_celsius(pixels_centi).astype(np.float64)` in one pass: the
    float32 quotient is widened as it is stored into `out`."""
    return np.divide(pixels_centi, np.float32(100), dtype=np.float32, out=out)


def _diff_means(
    frames: np.ndarray, prev: np.ndarray | None, chunk: int, diff: np.ndarray, out: np.ndarray
) -> None:
    """Per `chunk`-frame run of `frames`: the mean absolute per-pixel change
    over its consecutive frame pairs, into `out`.

    The first pair is against `prev`, the frame before `frames`; without one
    the first run has a pair fewer (and a one-frame run gives 0.0).  Each
    run's differences are summed along one row of `diff`, the same reduction
    as np.mean over that run alone.
    """
    n, pixels = len(frames), frames[0].size
    diff = diff[:n]
    np.subtract(frames[1:], frames[:-1], out=diff[1:])
    if prev is None:
        diff[0] = 0.0
    else:
        np.subtract(frames[0], prev, out=diff[0])
    np.abs(diff, out=diff)
    full = n // chunk
    np.add.reduce(diff[: full * chunk].reshape(full, chunk * pixels), axis=1, out=out[:full])
    out[:full] /= chunk * pixels
    if full < len(out):
        out[full] = np.add.reduce(diff[full * chunk :].reshape(-1)) / ((n - full * chunk) * pixels)
    if prev is None:
        pairs = min(chunk, n) - 1
        out[0] = np.add.reduce(diff[1 : pairs + 1].reshape(-1)) / (pairs * pixels) if pairs else 0.0


def _clamped_residuals(
    frames: np.ndarray, levels: np.ndarray, chunk: int, scratch: np.ndarray, out: np.ndarray
) -> None:
    """Each `chunk`-frame run of `frames` less its own level, clamped at zero
    into the float32 `out`: the float64 residual, then its float32 store."""
    n, full = len(frames), len(frames) // chunk
    whole = full * chunk
    runs = (full, chunk) + frames.shape[1:]
    np.subtract(
        frames[:whole].reshape(runs), levels[:full, None], out=scratch[:whole].reshape(runs)
    )
    if whole < n:
        np.subtract(frames[whole:], levels[full], out=scratch[whole:n])
    np.maximum(scratch[:n], 0.0, out=out)


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
    steady-state behaviour of the per-frame update.  Each `process` call
    starts its own chunk grid at its first frame past warm-up.

    Per call, one searchsorted gives the thermometer mean at every chunk
    end.  Per slab of chunks (TRACKER_SLAB_BYTES), into buffers reused for
    the whole call: the cast to float64 degrees, the consecutive-frame
    differences (the first against the last frame before the slab) with one
    row sum per chunk, and at the end the residuals against each chunk's
    level, clamped straight into the float32 output.  Per chunk: the
    trailing-minute motion index, the level (baseline mean plus ambient
    offset), the presence gate from each pixel's peak over the chunk, and
    the update.  The calibration ring is a fixed circular buffer of the
    last RING_FRAMES absorbed frames as int16, filled once per call or
    before a calibration and cast only when one fires.

    `progress`, when given, is called as `progress(residuals, hi)` after
    each slab, once the residuals of the call's frames [0, hi) are final:
    nothing later in the call writes them.  The pipeline uses it to start
    posture inference on the first windows while the tracker still runs.
    """

    CHUNK = 40  # frames per update decision (10 s at 4 Hz)
    AMBIENT_SMOOTH_SAMPLES = 12  # one minute of 5 s thermometer readings
    RING_FRAMES = 240  # recent unoccupied frames a calibration resets from

    def __init__(
        self,
        resolution: int,
        config: PipelineConfig,
        progress: Callable[[np.ndarray, int], None] | None = None,
    ):
        self.resolution = resolution
        self.config = config
        self._progress = progress
        self.baseline: PixelBaseline | None = None
        self._warmup: list[np.ndarray] = []  # int16 frames until the baseline forms
        self._warmup_end = 0  # timestamp of the last warm-up frame
        # trailing-minute chunk diffs: chunk end timestamps and the mean abs
        # consecutive-frame diff of each chunk
        self._recent_ts = np.empty(0, dtype=np.int64)
        self._recent_diff = np.empty(0)
        self._prev_frame: np.ndarray | None = None  # float64 degrees
        # ring of recent unoccupied frames for calibration resets
        self._ring = np.empty((self.RING_FRAMES, resolution, resolution), dtype=np.int16)
        self._ring_next = 0  # slot the next frame goes to
        self._ring_count = 0
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

    def _ambient_means(self, ts: np.ndarray) -> list[float | None]:
        """Recent-window mean of the thermometer at each timestamp, None before
        its first reading; the ambient signal is slow and the reading noise
        would otherwise leak into every residual."""
        if self._ambient_ts is None or not len(self._ambient_ts):
            return [None] * len(ts)
        values, k = self._ambient_values, self.AMBIENT_SMOOTH_SAMPLES
        return [
            float(np.add.reduce(values[max(0, i - k) : i])) / min(i, k) if i else None
            for i in np.searchsorted(self._ambient_ts, ts, side="right").tolist()
        ]

    def _ring_push(self, pixels_centi: np.ndarray, spans: list[tuple[int, int]]) -> None:
        """Append the int16 frames of `spans`, [a, b) ranges of `pixels_centi`
        in time order, to the calibration ring, overwriting the oldest, and
        empty `spans`."""
        size, parts, kept = self.RING_FRAMES, [], 0
        for a, b in reversed(spans):
            if kept >= size:
                break
            parts.append(pixels_centi[a:b])
            kept += b - a
        if not parts:
            return
        frames = np.concatenate(parts[::-1])[-size:]
        k, at = len(frames), self._ring_next
        head = min(k, size - at)
        self._ring[at : at + head] = frames[:head]
        self._ring[: k - head] = frames[head:]
        self._ring_next = (at + k) % size
        self._ring_count = min(size, self._ring_count + k)
        spans.clear()

    def _warm_up(self, timestamps: np.ndarray, pixels_centi: np.ndarray) -> int:
        """Collect warm-up frames and form the baseline once there are
        enough; returns the number of frames taken."""
        need = self.config.warmup_frames - sum(len(w) for w in self._warmup)
        take = min(need, len(pixels_centi))
        if take:
            self._warmup.append(pixels_centi[:take].copy())
            self._warmup_end = int(timestamps[take - 1])
        if take == need:
            frames = np.concatenate(self._warmup)
            stack = _celsius64(frames, np.empty(frames.shape))
            (ambient,) = self._ambient_means([self._warmup_end])
            if ambient is None:
                ambient = self._ambient
            if ambient is None:
                ambient = float(np.median(stack[-1]))
            self.baseline = PixelBaseline.from_frames(stack, ambient, self._warmup_end)
            self._ambient_at_mean = ambient
            self._ring_push(frames, [(0, len(frames))])
            self._prev_frame = stack[-1].copy()
            self._warmup.clear()
        return take

    def process(self, timestamps: np.ndarray, pixels_centi: np.ndarray) -> np.ndarray:
        """Consume a stack of int16 centi-degree frames; return float32
        residuals [n, r, r].

        Warmup frames produce all-zero residuals (the baseline is still
        forming).
        """
        res = self.resolution
        if pixels_centi.shape[1:] != (res, res):
            raise DimensionError(
                f"frame shape {pixels_centi.shape[1:]} does not match tracker "
                f"resolution {res}"
            )
        if pixels_centi.dtype != np.int16:  # the calibration ring keeps them as such
            raise DimensionError(f"frames must be int16 centi-degrees, got {pixels_centi.dtype}")
        n = pixels_centi.shape[0]
        residuals = np.zeros((n, res, res), dtype=np.float32)
        start = 0 if self.baseline is not None else self._warm_up(timestamps, pixels_centi)
        if start == n:
            return residuals
        p, base, chunk = self.config, self.baseline, self.CHUNK

        # per call: chunk ends, and the ambient at each (the last one known
        # where the thermometer has not read yet)
        ends = np.minimum(np.arange(start + chunk, n + chunk, chunk), n)
        chunks, bounds = len(ends), ends.tolist()
        end_ts = np.asarray(timestamps, dtype=np.int64)[ends - 1]
        ambients = self._ambient_means(end_ts)
        for j, ambient in enumerate(ambients):
            if ambient is None:
                ambients[j] = self._ambient
            else:
                self._ambient = ambient
        # trailing-minute history: what earlier calls left, then this call's
        # chunks; `left` is the oldest entry still inside the minute
        carried = len(self._recent_ts)
        history_ts = np.concatenate((self._recent_ts, end_ts))
        history_diff = np.concatenate((self._recent_diff, np.empty(chunks)))
        ts_end = history_ts.tolist()
        left = 0

        per_slab = max(1, TRACKER_SLAB_BYTES // (2 * chunk * res * res * 8))
        slab = min(per_slab * chunk, n - start)
        cast = np.empty((slab, res, res))
        diffs = np.empty((slab, res, res))  # then the residuals
        levels = np.empty((per_slab, res, res))  # baseline mean plus ambient offset
        absorbed: list[tuple[int, int]] = []  # frames for the ring, not yet in it
        for c0 in range(0, chunks, per_slab):
            c1 = min(c0 + per_slab, chunks)
            lo, hi = start + c0 * chunk, bounds[c1 - 1]
            frames = _celsius64(pixels_centi[lo:hi], cast[: hi - lo])
            _diff_means(
                frames, self._prev_frame, chunk, diffs, history_diff[carried + c0 : carried + c1]
            )
            self._prev_frame = frames[-1].copy()

            # per chunk: the gate and the update against the live baseline.
            # Rounding is monotone, so the largest residual is the largest
            # of each pixel's peak over the chunk less the level.
            for j in range(c0, c1):
                a, b = start + j * chunk - lo, bounds[j] - lo
                now = ts_end[carried + j]
                while ts_end[left] < now - MS_PER_MINUTE:
                    left += 1
                trailing = float(np.add.reduce(history_diff[left : carried + j + 1]))
                moving = trailing / (carried + j + 1 - left) >= p.theta_idle

                ambient = ambients[j]
                offset = 0.0
                if ambient is not None and self._ambient_at_mean is not None:
                    offset = ambient - self._ambient_at_mean
                level = np.add(base.mean, offset, out=levels[j - c0])
                if moving:
                    continue
                celsius = frames[a:b]
                excess = np.maximum.reduce(celsius, axis=0) - level
                if max(float(np.maximum.reduce(excess, axis=None)), 0.0) >= p.presence_max_c:
                    continue

                k = b - a
                weight = 1.0 - (1.0 - p.baseline_alpha) ** k
                base.update(np.add.reduce(celsius, axis=0) / k, weight)
                if ambient is not None and self._ambient_at_mean is not None:
                    self._ambient_at_mean += weight * (ambient - self._ambient_at_mean)
                absorbed.append((lo + a, lo + b))

                if ambient is not None and should_calibrate(
                    base, ambient, now, p.delta_cal_c, p.min_recal_interval_min
                ):
                    self._ring_push(pixels_centi, absorbed)
                    ring = np.roll(self._ring[: self._ring_count], -self._ring_next, axis=0)
                    ring = _celsius64(ring, np.empty(ring.shape))  # oldest first
                    if apply_calibration(base, ring, ambient, now, p.warmup_frames):
                        self.calibration_events.append(now)
                        self._ambient_at_mean = ambient

            _clamped_residuals(frames, levels, chunk, diffs, residuals[lo:hi])
            if self._progress is not None:
                self._progress(residuals, hi)
        self._ring_push(pixels_centi, absorbed)
        self._recent_ts = history_ts[left:].copy()
        self._recent_diff = history_diff[left:].copy()
        return residuals
