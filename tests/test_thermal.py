import numpy as np
import pytest

from hometwin.config import PipelineConfig
from hometwin.core import pixels_to_celsius, quantize_pixels
from hometwin.errors import DimensionError, InsufficientDataError, ResolutionError
from hometwin.thermal import (
    BaselineTracker,
    PixelBaseline,
    apply_calibration,
    count_blobs,
    motion_index,
    should_calibrate,
)

CONFIG = PipelineConfig()
THRESHOLD, MIN_PIXELS = CONFIG.blob_threshold_c, CONFIG.blob_min_pixels
RECAL = (CONFIG.delta_cal_c, CONFIG.min_recal_interval_min)


def flat_baseline(res=4, mean=28.0, ambient=28.0, at=0):
    return PixelBaseline(
        resolution=res,
        mean=np.full((res, res), mean),
        last_calibration=at,
        reference_ambient=ambient,
    )


def filter_frame(celsius, baseline):
    """The tracker's residual for frames against a fixed baseline: frame
    minus baseline mean, clamped at zero (one chunk, no ambient series)."""
    celsius = np.asarray(celsius, dtype=np.float64)
    frames = celsius.reshape((-1,) + celsius.shape[-2:])
    tracker = BaselineTracker(baseline.resolution, PipelineConfig(warmup_frames=1))
    tracker.baseline = baseline
    residual = tracker.process(
        250 * np.arange(len(frames), dtype=np.int64), quantize_pixels(frames)
    )
    return residual.reshape(celsius.shape)


class TestFilterFrame:
    def test_frame_equal_to_baseline_gives_zero(self):
        base = flat_baseline()
        residual = filter_frame(np.full((4, 4), 28.0), base)
        assert np.all(residual == 0.0)

    def test_single_hot_pixel(self):
        base = flat_baseline()
        frame = np.full((4, 4), 28.0)
        frame[1, 2] = 34.0
        residual = filter_frame(frame, base)
        assert residual[1, 2] == pytest.approx(6.0)
        off = residual.copy()
        off[1, 2] = 0.0
        assert np.all(off == 0.0)

    def test_clamped_at_zero(self):
        base = flat_baseline(mean=30.0)
        residual = filter_frame(np.full((4, 4), 28.0), base)
        assert np.all(residual == 0.0)

    def test_reconstruction_bound(self):
        # residual + baseline >= frame, with equality wherever nothing clamps
        rng = np.random.default_rng(0)
        base = flat_baseline()
        frame = 28.0 + rng.normal(0, 1, size=(4, 4))
        residual = filter_frame(frame, base)
        seen = pixels_to_celsius(quantize_pixels(frame))  # the frame on the wire grid
        assert np.all(residual + base.mean >= seen - 1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            filter_frame(np.zeros((8, 8)), flat_baseline(res=4))


class TestShouldCalibrate:
    def test_fires_on_significant_drift(self):
        base = flat_baseline(ambient=28.0, at=0)
        assert should_calibrate(base, 30.0, 31 * 60_000, *RECAL)

    def test_never_fires_occupied(self):
        # the tracker asks only in unoccupied chunks: a 2 C ambient shift
        # recalibrates an empty room after the rate limit, never an occupied one
        rng = np.random.default_rng(5)
        n = 35 * 240  # 35 minutes at 4 Hz
        ts = np.arange(n, dtype=np.int64) * 250
        ambient_ts = np.arange(0, int(ts[-1]) + 5000, 5000, dtype=np.int64)
        ambient = np.where(ambient_ts < 60_000, 28.0, 30.0)
        empty = 2800 + rng.normal(0, 30, size=(n, 4, 4))
        occupied = empty.copy()
        occupied[200:, 1, 1] += 600  # a still 6 C body from frame 200 on
        events = {}
        for name, frames in (("empty", empty), ("occupied", occupied)):
            tracker = BaselineTracker(4, PipelineConfig(warmup_frames=40))
            tracker.set_ambient_series(ambient_ts, ambient)
            tracker.process(ts, frames.astype(np.int16))
            events[name] = tracker.calibration_events
        assert events["empty"]
        assert events["occupied"] == []

    def test_below_threshold_no_fire(self):
        base = flat_baseline(ambient=28.0, at=0)
        assert not should_calibrate(base, 28.5, 31 * 60_000, *RECAL)

    def test_rate_limited(self):
        base = flat_baseline(ambient=28.0, at=0)
        assert not should_calibrate(base, 30.0, 10 * 60_000, *RECAL)


class TestApplyCalibration:
    def test_resets_mean_and_reference(self):
        base = flat_baseline(mean=28.0, ambient=28.0)
        frames = np.full((150, 4, 4), 30.0)
        assert apply_calibration(base, frames, ambient_now=30.0, now=99, warmup_frames=120)
        assert np.allclose(base.mean, 30.0)
        assert base.reference_ambient == 30.0
        assert base.last_calibration == 99

    def test_deferred_with_too_few_frames(self):
        base = flat_baseline()
        assert not apply_calibration(base, np.zeros((10, 4, 4)), 30.0, 99, warmup_frames=120)
        assert not apply_calibration(base, np.zeros((0, 4, 4)), 30.0, 99, warmup_frames=120)
        assert base.reference_ambient == 28.0


class TestMotionIndex:
    def test_identical_frames_zero(self):
        frames = np.full((5, 4, 4), 3.0)
        assert motion_index(frames[None])[0] == 0.0

    def test_single_pixel_change_analytic(self):
        frames = np.zeros((2, 4, 4))
        frames[1, 0, 0] = 1.0
        assert motion_index(frames[None])[0] == pytest.approx(1.0 / 16.0)

    def test_insufficient_frames(self):
        with pytest.raises(InsufficientDataError):
            motion_index(np.zeros((1, 1, 4, 4)))

    def test_scales_linearly_with_uniform_difference(self):
        rng = np.random.default_rng(1)
        base = rng.uniform(0, 1, size=(4, 4))
        for scale in (0.5, 1.0, 2.0, 7.0):
            frames = np.stack([base, base + scale])
            assert motion_index(frames[None])[0] == pytest.approx(scale)

    def test_time_translation_invariance(self):
        # the index depends on frame content only, not on when frames occur
        rng = np.random.default_rng(2)
        frames = rng.uniform(0, 2, size=(12, 4, 4))
        assert motion_index(frames[None])[0] == motion_index(frames[None].copy())[0]

    def test_resolution_comparability(self):
        # a uniform +1 change reads the same at both resolutions
        small = np.stack([np.zeros((4, 4)), np.ones((4, 4))])
        big = np.stack([np.zeros((32, 32)), np.ones((32, 32))])
        assert motion_index(small[None])[0] == pytest.approx(motion_index(big[None])[0])


class TestCountBlobs:
    @staticmethod
    def blob(center, radius=2.0, amp=5.0):
        yy, xx = np.mgrid[0:32, 0:32]
        return amp * np.exp(-(((yy - center[0]) ** 2 + (xx - center[1]) ** 2) / (2 * radius**2)))

    def test_empty_zero(self):
        assert count_blobs(np.zeros((1, 32, 32)), THRESHOLD, MIN_PIXELS)[0] == 0

    def test_single_blob(self):
        assert count_blobs(self.blob((16, 16))[None], THRESHOLD, MIN_PIXELS)[0] == 1

    def test_two_separated_blobs(self):
        residual = self.blob((8, 8)) + self.blob((24, 24))
        assert count_blobs(residual[None], THRESHOLD, MIN_PIXELS)[0] == 2

    def test_min_pixel_filter(self):
        residual = np.zeros((32, 32))
        residual[3, 3] = 9.0  # single-pixel speck
        assert count_blobs(residual[None], THRESHOLD, 3)[0] == 0
        assert count_blobs(residual[None], THRESHOLD, 1)[0] == 1

    def test_resolution_guard(self):
        with pytest.raises(ResolutionError):
            count_blobs(np.zeros((1, 4, 4)), THRESHOLD, MIN_PIXELS)

    def test_noise_invariance_below_threshold(self):
        base = self.blob((10, 20)) + self.blob((24, 6))
        for seed in range(10):
            noisy = base + np.random.default_rng(seed).normal(0, 0.3, size=(32, 32))
            assert count_blobs(noisy[None], THRESHOLD, MIN_PIXELS)[0] == 2

    def test_four_connectivity_oracle(self):
        # brute-force oracle: label by flood fill on a fixed pattern with a
        # diagonal-only join, which 4-connectivity must keep separate
        residual = np.zeros((32, 32))
        residual[5:8, 5:8] = 9.0
        residual[8, 8] = 9.0  # touches (7,7) only diagonally
        residual[9:11, 9:11] = 9.0
        assert count_blobs(residual[None], THRESHOLD, 1)[0] == 3


class TestBaselineTracker:
    def test_warmup_then_tracks(self):
        rng = np.random.default_rng(3)
        tracker = BaselineTracker(4, PipelineConfig(warmup_frames=40))
        ts = np.arange(400, dtype=np.int64) * 250
        frames = (2800 + rng.normal(0, 30, size=(400, 4, 4))).astype(np.int16)
        residuals = tracker.process(ts, frames)
        assert np.all(residuals[:40] == 0.0)  # warmup yields zeros
        assert tracker.baseline is not None
        assert np.abs(tracker.baseline.mean - 28.0).max() < 0.2

    def test_frames_must_be_int16(self):
        tracker = BaselineTracker(4, PipelineConfig(warmup_frames=1))
        with pytest.raises(DimensionError, match="int16"):
            tracker.process(np.zeros(3, dtype=np.int64), np.full((3, 4, 4), 2800.5))

    def test_still_occupant_never_absorbed(self):
        rng = np.random.default_rng(4)
        tracker = BaselineTracker(4, PipelineConfig(warmup_frames=40))
        n = 4800  # 20 minutes
        frames = 2800 + rng.normal(0, 30, size=(n, 4, 4))
        frames[200:, 1, 1] += 600  # a still 6 C body from frame 200 on
        residuals = tracker.process(
            np.arange(n, dtype=np.int64) * 250, frames.astype(np.int16)
        )
        # the body is still fully visible at the end
        assert residuals[-1, 1, 1] > 5.0
