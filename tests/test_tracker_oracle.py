"""Differential tests of `BaselineTracker.process` against the code it replaced.

The oracle below is the former tracker, kept here in behaviour: every
40-frame chunk was cast to float64 on its own, its consecutive-frame
differences were taken after concatenating the previous chunk's last
frame, the thermometer mean at its end came from its own searchsorted, and
the calibration ring was a deque of float64 frames stacked when a
calibration fired.  The slab-wise tracker must give the same residual
bytes, the same baseline state and the same calibration events after every
`process` call, for any sequence of calls.
"""

from __future__ import annotations

import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, FrameBlock, pixels_to_celsius
from hometwin.errors import DimensionError
from hometwin.pipeline import _ambient_lookup
from hometwin.simulate import simulate
from hometwin.simulate.scripts import mixed_day, sunlight_scenario
from hometwin.thermal import (
    TRACKER_SLAB_BYTES,
    BaselineTracker,
    PixelBaseline,
    apply_calibration,
    should_calibrate,
)

from conftest import bundle_frames, bundle_readings, concat_blocks, store_source
from test_acceptance import drift_scenario

ROOT = Path(__file__).resolve().parent.parent

# -- the per-chunk oracle ------------------------------------------------------


class OracleTracker:
    """Former `BaselineTracker`: one cast, diff and ambient lookup per chunk."""

    CHUNK = 40
    AMBIENT_SMOOTH_SAMPLES = 12

    def __init__(self, resolution: int, config: PipelineConfig):
        self.resolution = resolution
        self.config = config
        self.baseline: PixelBaseline | None = None
        self._warmup: list[np.ndarray] = []
        self._warmup_ts: list[int] = []
        self._recent_diff: deque[tuple[int, float]] = deque()
        self._prev_frame: np.ndarray | None = None
        self._calib_ring: deque[np.ndarray] = deque(maxlen=240)
        self._ambient: float | None = None
        self._ambient_ts: np.ndarray | None = None
        self._ambient_values: np.ndarray | None = None
        self._ambient_at_mean: float | None = None
        self.calibration_events: list[int] = []
        self.absorbed_frames = 0  # frames the baseline updates took in

    def set_ambient_series(self, timestamps: np.ndarray, values: np.ndarray) -> None:
        self._ambient_ts = np.asarray(timestamps, dtype=np.int64)
        self._ambient_values = np.asarray(values, dtype=np.float64)

    def _ambient_at(self, ts: int) -> float | None:
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
        stack = celsius
        if self._prev_frame is not None:
            stack = np.concatenate([self._prev_frame[None], celsius])
        self._prev_frame = celsius[-1]
        if stack.shape[0] < 2:
            return 0.0
        return float(np.abs(np.diff(stack, axis=0)).mean())

    def process(self, timestamps: np.ndarray, pixels_centi: np.ndarray) -> np.ndarray:
        if pixels_centi.shape[1:] != (self.resolution, self.resolution):
            raise DimensionError("frame shape does not match tracker resolution")
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
                self.baseline = PixelBaseline.from_frames(stack, ambient, self._warmup_ts[-1])
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
            base.update(celsius.mean(axis=0), weight)
            self.absorbed_frames += k
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


# -- comparison ----------------------------------------------------------------


def assert_same_state(tracker: BaselineTracker, oracle: OracleTracker) -> None:
    assert (tracker.baseline is None) == (oracle.baseline is None)
    if tracker.baseline is not None:
        got, want = tracker.baseline, oracle.baseline
        assert got.mean.dtype == want.mean.dtype and got.mean.tobytes() == want.mean.tobytes()
        assert got.reference_ambient == want.reference_ambient
        assert got.last_calibration == want.last_calibration
    assert tracker.calibration_events == oracle.calibration_events
    # what the next call starts from: the trailing-minute history, the last
    # frame, and the ambient values
    assert list(zip(tracker._recent_ts.tolist(), tracker._recent_diff.tolist())) == list(
        oracle._recent_diff
    )
    assert (tracker._prev_frame is None) == (oracle._prev_frame is None)
    if tracker._prev_frame is not None:
        assert tracker._prev_frame.tobytes() == oracle._prev_frame.tobytes()
    assert tracker._ambient == oracle._ambient
    assert tracker._ambient_at_mean == oracle._ambient_at_mean
    # the calibration ring holds the same number of absorbed frames
    assert tracker._ring_count == len(oracle._calib_ring)


def run_both(block: FrameBlock, config: PipelineConfig, cuts=(), ambient=None, baseline=None):
    """Feed the block to both trackers, split at `cuts`, checking residuals
    and state after every call.  Returns the oracle."""
    tracker = BaselineTracker(block.resolution, config)
    oracle = OracleTracker(block.resolution, config)
    if ambient is not None:
        tracker.set_ambient_series(*ambient)
        oracle.set_ambient_series(*ambient)
    if baseline is not None:
        tracker.baseline, oracle.baseline = baseline(), baseline()
    bounds = [0, *cuts, len(block)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        got = tracker.process(block.timestamps[lo:hi], block.pixels_centi[lo:hi])
        want = oracle.process(block.timestamps[lo:hi], block.pixels_centi[lo:hi])
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"residuals differ in call [{lo}, {hi})"
        assert_same_state(tracker, oracle)
    return oracle


# -- inputs ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def day_blocks():
    """The benchmark day workload's thermal blocks (mixed_day 19:40-20:20),
    each with the thermometer series the pipeline gives its tracker."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from hbench import day, inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    layout, script = mixed_day()
    bundle = simulate(layout, inputs.window(script, *day.WINDOW_MIN), seed=3001)
    source = store_source(layout, bundle)
    out = {}
    for spec in layout.thermal_sensors():
        (block,) = source.frame_blocks(spec.sensor_id)
        series = _ambient_lookup(source, spec.room_id)
        out[spec.sensor_id] = (block, (series.timestamps, series.values))
    return out


def _scenario_input(layout, script, seed):
    bundle = simulate(layout, script, seed=seed, config=PipelineConfig(pixel_noise_sigma=0.0))
    blocks = bundle_frames(bundle, "dining/C0/thermal")
    ambient = bundle_readings(bundle, "dining/C0/temperature")
    return blocks, (ambient.timestamps, ambient.values)


@pytest.fixture(scope="module")
def drift_inputs():
    """Criterion 4's drift scenario, empty and occupied, as the hour blocks
    the simulator renders."""
    return {occupied: _scenario_input(*drift_scenario(occupied), 3) for occupied in (False, True)}


# -- cases ---------------------------------------------------------------------


def test_day_workload_blocks(day_blocks):
    resolutions = set()
    for block, ambient in day_blocks.values():
        run_both(block, PipelineConfig(), ambient=ambient)
        resolutions.add(block.resolution)
        # every block spans several slabs, so the seams between slabs count
        frames_per_slab = BaselineTracker.CHUNK * max(
            1, TRACKER_SLAB_BYTES // (2 * BaselineTracker.CHUNK * block.resolution**2 * 8)
        )
        assert 2 * frames_per_slab < len(block)
    assert resolutions == {4, 32} and len(day_blocks) == 4


@pytest.mark.parametrize("occupied, fired", [(False, 2), (True, 0)])
def test_drift_scenario(drift_inputs, occupied, fired):
    blocks, ambient = drift_inputs[occupied]
    block = concat_blocks(blocks)
    cuts = np.cumsum([len(b) for b in blocks[:-1]]).tolist()  # one call per rendered hour
    oracle = run_both(block, PipelineConfig(), cuts=cuts, ambient=ambient)
    assert len(oracle.calibration_events) == fired


def test_sunlight_scenario():
    layout, script = sunlight_scenario()
    bundle = simulate(layout, script, seed=0)
    ambient = bundle_readings(bundle, "dining/C0/temperature")
    block = concat_blocks(bundle_frames(bundle, "dining/C0/thermal"))
    run_both(block, PipelineConfig(), ambient=(ambient.timestamps, ambient.values))


def test_no_ambient_series(day_blocks):
    for block, _ in day_blocks.values():
        run_both(block[:2400], PipelineConfig())


def test_sparse_ambient_series(drift_inputs):
    """Fewer than 12 thermometer readings before the first chunk end, and
    none at all for the first chunks (the last known value carries)."""
    blocks, (ts, values) = drift_inputs[False]
    block = concat_blocks(blocks)
    config = PipelineConfig(warmup_frames=40)
    first_end = int(block.timestamps[40 + 39])
    run_both(block, config, ambient=(ts[ts > first_end - 20_000], values[ts > first_end - 20_000]))
    late = ts > int(block.timestamps[400])
    run_both(block, config, ambient=(ts[late], values[late]))
    run_both(block, config, ambient=(ts[:0], values[:0]))


def test_ambient_series_replaced_between_calls(drift_inputs):
    """A series set between calls that starts after the next chunk ends:
    those chunks keep the last ambient the tracker knew."""
    blocks, (ts, values) = drift_inputs[False]
    block = concat_blocks(blocks)
    config = PipelineConfig(warmup_frames=40)
    tracker, oracle = BaselineTracker(4, config), OracleTracker(4, config)
    cut = 2000
    later = ts > int(block.timestamps[cut + 400])
    for lo, hi, keep in ((0, cut, ts > 0), (cut, len(block), later)):
        for t in (tracker, oracle):
            t.set_ambient_series(ts[keep], values[keep])
        got = tracker.process(block.timestamps[lo:hi], block.pixels_centi[lo:hi])
        want = oracle.process(block.timestamps[lo:hi], block.pixels_centi[lo:hi])
        assert got.tobytes() == want.tobytes()
        assert_same_state(tracker, oracle)
    assert oracle._ambient is not None


@pytest.mark.parametrize("warmup", [1, 40, 120, 300])
def test_warmup_lengths(drift_inputs, warmup):
    blocks, ambient = drift_inputs[False]
    oracle = run_both(concat_blocks(blocks), PipelineConfig(warmup_frames=warmup), ambient=ambient)
    if warmup > BaselineTracker.RING_FRAMES:  # the ring never holds enough frames
        assert oracle.calibration_events == []
    else:
        assert oracle.calibration_events


@pytest.mark.parametrize("length", [50, 120, 137, 160])
def test_blocks_around_warmup(day_blocks, length):
    """A block shorter than warm-up, exactly warm-up long, warm-up plus a
    partial chunk and plus a whole one, then the rest of the stream."""
    for block, ambient in day_blocks.values():
        run_both(block[:1200], PipelineConfig(), cuts=[length], ambient=ambient)


def _cut_sequences(n: int, seed: int):
    rng = np.random.default_rng(seed)
    on_grid = sorted(set((120 + 40 * rng.integers(1, n // 40, size=6)).tolist()) - {n})
    off_grid = sorted(set(rng.integers(1, n, size=8).tolist()))
    one_frame = list(range(100, 130)) + list(range(400, 445)) + [n - 1]
    return {"on_grid": on_grid, "off_grid": off_grid, "one_frame": one_frame}


@pytest.mark.parametrize("kind", ["on_grid", "off_grid", "one_frame"])
def test_call_sequences(day_blocks, drift_inputs, kind):
    blocks, ambient = drift_inputs[False]
    drift = concat_blocks(blocks)
    cuts = _cut_sequences(len(drift), 1)[kind]
    oracle = run_both(drift, PipelineConfig(), cuts=cuts, ambient=ambient)
    assert oracle.calibration_events
    for i, (block, ambient) in enumerate(day_blocks.values()):
        part = block[:3000]
        cuts = _cut_sequences(len(part), 10 + i)[kind]
        run_both(part, PipelineConfig(), cuts=cuts, ambient=ambient)


def test_cadence_gap(day_blocks):
    for block, ambient in day_blocks.values():
        keep = np.r_[0:700, 1180:2600, 2603:2700]  # a two-minute gap and a dropped frame
        run_both(block[keep], PipelineConfig(), cuts=[690, 1000], ambient=ambient)


def flat_baseline() -> PixelBaseline:
    return PixelBaseline(4, np.full((4, 4), 28.0), 0, 28.0)


def test_injected_baseline_without_a_previous_frame():
    """A baseline set from outside leaves no previous frame: the first chunk
    of the call has one pair of frames fewer, and a one-frame chunk none."""
    rng = np.random.default_rng(4)
    n = 4 * 40 + 1
    pixels = (2800 + rng.normal(0, 30, size=(n, 4, 4))).astype(np.int16)
    pixels[90:, 1, 1] += 600
    block = FrameBlock("s", 4, 250 * np.arange(n, dtype=np.int64), pixels)

    for cuts in ([], [1, 2], [10, 11, 41], [41, 81]):
        run_both(block, PipelineConfig(warmup_frames=1), cuts=cuts, baseline=flat_baseline)


def test_gate_at_its_thresholds():
    """A residual of exactly presence_max_c is presence; with presence_max_c
    at 0 nothing is absorbed, and with theta_idle at 0 everything moves."""
    n = 200
    pixels = np.full((n, 4, 4), 2800, dtype=np.int16)
    pixels[40:80, 2, 1] = 2950  # 29.5 C over a 28 C baseline: exactly 1.5
    pixels[120:] = 2790  # below the baseline
    block = FrameBlock("s", 4, 250 * np.arange(n, dtype=np.int64), pixels)

    # absorbed by default: every chunk but the one with the 1.5 C pixel
    for changes, absorbed in (({}, 160), ({"presence_max_c": 0.0}, 0), ({"theta_idle": 0.0}, 0)):
        config = PipelineConfig(warmup_frames=1, **changes)
        oracle = run_both(block, config, baseline=flat_baseline)
        assert oracle.absorbed_frames == absorbed


def test_synthetic_step_calibrates():
    """test_thermal's empty room under a 2 C ambient step, with noise, then a
    still body after the first calibration."""
    rng = np.random.default_rng(5)
    n = 35 * 240
    ts = np.arange(n, dtype=np.int64) * 250
    ambient_ts = np.arange(0, int(ts[-1]) + 5000, 5000, dtype=np.int64)
    ambient = np.where(ambient_ts < 60_000, 28.0, 30.0)
    pixels = 2800 + rng.normal(0, 30, size=(n, 4, 4))
    pixels[7800:, 2, 2] += 600
    block = FrameBlock("s", 4, ts, pixels.astype(np.int16))
    config = PipelineConfig(warmup_frames=40)
    oracle = run_both(block, config, cuts=[3333, 3334, 5000], ambient=(ambient_ts, ambient))
    assert oracle.calibration_events


def test_calibration_before_the_ring_fills():
    """With no rate limit a calibration fires soon after a 4 C ambient step,
    from warm-up frames and a few absorbed ones; then a steady ramp keeps
    recalibrating while the ring wraps."""
    rng = np.random.default_rng(6)
    n = 3000
    ts = np.arange(n, dtype=np.int64) * 250
    ambient_ts = np.arange(0, int(ts[-1]) + 5000, 5000, dtype=np.int64)
    ramp = 32.0 + 2.0 * (ambient_ts - 32_000) / MS_PER_MINUTE
    ambient = np.where(ambient_ts < 32_000, 28.0, ramp)
    pixels = (2800 + rng.normal(0, 30, size=(n, 4, 4))).astype(np.int16)
    block = FrameBlock("s", 4, ts, pixels)
    config = PipelineConfig(warmup_frames=120, min_recal_interval_min=0.0)
    oracle = run_both(block, config, cuts=[150, 700, 701], ambient=(ambient_ts, ambient))
    assert oracle.calibration_events[0] < 120 * 250 + 240 * 250  # before 240 absorbed frames
    assert len(oracle.calibration_events) > 5
