"""Differential tests of streamed posture inference: the pipeline starts a
thermal sensor's inference before the tracker has made its residuals, and
the helper thread runs blocks as the tracker reports them final.

The oracle is the pipeline's sensor step before streaming: the tracker
first, then the windows, then inference per 256-window batch in the serial
block loop (`test_infer_split.serial_infer`).  Every streamed track must
match it: logits and labels bit for bit, and the motion index, blob count,
drops and calibrations the same.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import hometwin.pipeline as pipeline
import hometwin.posture.net as net
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, FrameBlock, ReadingSeries, SensorKind, parse_epoch
from hometwin.pipeline import INFER_BATCH, StreamSource, _ambient_lookup, _process_thermal_sensor
from hometwin.posture.net import PostureNet, config_for_resolution, softmax
from hometwin.posture.windows import build_windows, stack_windows
from hometwin.thermal import BaselineTracker, count_blobs, motion_index

from test_infer_split import serial_infer
from test_thermal_batched import shared_role_layout

EPOCH = parse_epoch("2024-03-04T10:00:00")
SENSOR = {32: "living/D0/thermal", 4: "living/C0/thermal"}


# -- inputs --------------------------------------------------------------------


def frames(resolution: int, tiles: int, seed: int, dropped=(), period: int = 250, extra: int = 7):
    """A `tiles`-window stream (and `extra` frames more) of one sensor:
    noise around 28 C, a 6 C body that moves every 10 s from a tenth of the
    way in to seven tenths, and a cadence gap inside each tile of `dropped`."""
    n = tiles * 20 + extra
    rng = np.random.default_rng(seed)
    pixels = (2800 + rng.integers(-40, 41, size=(n, resolution, resolution))).astype(np.int16)
    side = max(1, resolution // 8)
    for lo in range(n // 10, 7 * n // 10, 40):
        y, x = rng.integers(0, resolution - side + 1, size=2)
        pixels[lo : lo + 40, y : y + side, x : x + side] += 600
    step = np.full(n, period, dtype=np.int64)
    for tile in dropped:
        step[20 * tile + 10] += 1000
    timestamps = EPOCH + np.cumsum(step) - period
    return FrameBlock(SENSOR[resolution], resolution, timestamps, pixels)


class FrameSource(StreamSource):
    """One thermal sensor's frames and its room's thermometer, with no store."""

    def __init__(self, block: FrameBlock, ambient_shift_min: float | None = None):
        end = int(block.timestamps[-1]) + 250 if len(block) else EPOCH + MS_PER_MINUTE
        super().__init__(shared_role_layout(), None, EPOCH, end)
        self.block = block
        ts = np.arange(EPOCH, end, 5000, dtype=np.int64)
        values = np.full(len(ts), 28.0)
        if ambient_shift_min is not None:  # a 2 C step of the room temperature
            values[ts >= EPOCH + ambient_shift_min * MS_PER_MINUTE] = 30.0
        self.ambient = values

    def frame_blocks(self, sensor_id):
        return [self.block]

    def readings(self, sensor_id):
        ts = np.arange(EPOCH, self.end, 5000, dtype=np.int64)
        return ReadingSeries(sensor_id, SensorKind.TEMP_HUMIDITY, ts, self.ambient)


@pytest.fixture(scope="module")
def models():
    # untrained nets: their labels vary from window to window
    return {r: PostureNet(config_for_resolution(r), seed=r) for r in (4, 32)}


@pytest.fixture(params=[True, False], ids=["engaged", "serial"])
def engaged(request, monkeypatch):
    """The helper forced on (one BLAS thread, two usable cores) with a fresh
    helper, or the engage rule off (BLAS a thread per core)."""
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if request.param:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(net, "_helper", None)
    yield request.param
    if request.param and net._helper is not None:
        net._helper.shutdown()


# -- the oracle ----------------------------------------------------------------


def reference(source, sensor_id, model, config) -> dict:
    """The sensor step before streaming, with the logits it classified."""
    spec = source.layout.sensor(sensor_id)
    tracker = BaselineTracker(spec.kind.resolution, config)
    ambient = _ambient_lookup(source, spec.room_id)
    tracker.set_ambient_series(ambient.timestamps, ambient.values)
    (block,) = source.frame_blocks(sensor_id)
    residuals = tracker.process(block.timestamps, block.pixels_centi)
    kept, dropped = build_windows(block.timestamps, residuals)
    windows = stack_windows(residuals, kept)
    logits = [serial_infer(model, windows[lo : lo + INFER_BATCH]) for lo in range(0, len(kept), INFER_BATCH)]
    logits = np.concatenate(logits) if logits else np.empty((0, 5), dtype=model.dtype)
    return {
        "start": block.timestamps[kept * 20],
        "motion_index": motion_index(windows) if len(kept) else np.empty(0),
        "blob_count": (
            count_blobs(windows.mean(axis=1), config.blob_threshold_c, config.blob_min_pixels)
            if spec.kind.resolution == 32 and len(kept)
            else np.zeros(len(kept), dtype=np.int64)
        ),
        "posture": softmax(logits).argmax(axis=1),
        "logits": logits,
        "dropped_windows": len(dropped),
        "calibration_events": tracker.calibration_events,
    }


# -- the streamed path, watched ------------------------------------------------


class Watch:
    """Captures the run that `run_ahead` starts and the logits of every
    later `_infer` call on the model, and can hold the tracker back.

    `step` replays the real tracker's residuals `step` frames per progress
    report (None keeps the tracker's own reports, one per slab).  Up to
    `lockstep` final frames, each report waits until the helper has claimed
    every final block.  `fail_at` raises once that many frames are final."""

    def __init__(self, monkeypatch, model, step=None, lockstep=0, fail_at=None):
        self.runs, self.infer_logits = [], []
        self.step, self.lockstep, self.fail_at = step, lockstep, fail_at
        watch = self
        start, infer = model.run_ahead, model._infer

        def run_ahead(*args):
            watch.runs.append(start(*args))
            return watch.runs[-1]

        def recorded_infer(x):
            watch.infer_logits.append(infer(x))
            return watch.infer_logits[-1]

        monkeypatch.setattr(model, "run_ahead", run_ahead)
        monkeypatch.setattr(model, "_infer", recorded_infer)

        class Tracker(BaselineTracker):
            def process(self, timestamps, pixels_centi):
                report = self._progress

                def progress(residuals, final):
                    if watch.fail_at is not None and final >= watch.fail_at:
                        raise RuntimeError("tracker failed")
                    report(residuals, final)
                    if final <= watch.lockstep:
                        watch.settle()

                self._progress = progress
                if watch.step is None:
                    return super().process(timestamps, pixels_centi)
                self._progress = None
                made = super().process(timestamps, pixels_centi)
                out = np.zeros_like(made)
                for lo in range(0, len(made), watch.step):
                    out[lo : lo + watch.step] = made[lo : lo + watch.step]
                    progress(out, min(lo + watch.step, len(made)))
                return out

        monkeypatch.setattr(pipeline, "BaselineTracker", Tracker)

    def settle(self, timeout: float = 30.0) -> None:
        """Wait until the helper, if engaged, has claimed every final block."""
        if not self.runs or self.runs[-1]._helper is None:
            return
        run, deadline = self.runs[-1], time.monotonic() + timeout
        while True:
            with run._cond:
                final_blocks = sum(b <= run._final for _, b in run._grid)
                if run._next >= final_blocks:
                    return
            assert time.monotonic() < deadline, "the helper did not claim the final blocks"
            time.sleep(0.0005)

    def logits(self) -> np.ndarray:
        """The streamed logits: what the run did ahead, then the rest."""
        parts = [self.runs[-1].out[: self.runs[-1].stop()]] if self.runs else []
        return np.concatenate(parts + self.infer_logits)


def assert_same_track(track, want: dict, watch: Watch | None = None) -> None:
    for column in ("start", "motion_index", "blob_count", "posture"):
        got = getattr(track, column)
        assert got.dtype == want[column].dtype, column
        assert got.tobytes() == want[column].tobytes(), column
    assert track.dropped_windows == want["dropped_windows"]
    assert track.calibration_events == want["calibration_events"]
    if watch is not None and len(want["logits"]):
        logits = watch.logits()
        assert logits.dtype == want["logits"].dtype
        assert logits.tobytes() == want["logits"].tobytes()


def check(monkeypatch, model, source, config=PipelineConfig(), **watch_args) -> tuple[Watch, dict]:
    sensor_id = SENSOR[model.config.resolution]
    want = reference(source, sensor_id, model, config)
    watch = Watch(monkeypatch, model, **watch_args)
    track = _process_thermal_sensor(source, sensor_id, model, config)
    assert_same_track(track, want, watch)
    return watch, want


# -- cases ---------------------------------------------------------------------

# 300 windows: one full batch and one of 44; at 32x32 a block is 3 windows
EDGES = (0, 2, 3, 5, 6, 11, 254, 255, 256, 257, 299)  # at block and batch edges


@pytest.mark.parametrize("step", [1, None, "jump"], ids=["frame_by_frame", "slabs", "one_jump"])
def test_reports_of_any_size(models, engaged, monkeypatch, step):
    block = frames(32, 300, seed=1)
    check(monkeypatch, models[32], FrameSource(block), step=len(block) if step == "jump" else step)


@pytest.mark.parametrize("resolution", [32, 4])
def test_tiles_dropped_at_block_and_batch_edges(models, engaged, monkeypatch, resolution):
    rows = models[resolution]._block_rows
    dropped = EDGES if resolution == 32 else (0, rows - 1, rows, 255, 256, 299)
    block = frames(resolution, 300 + len(dropped), seed=2, dropped=dropped)
    source = FrameSource(block)
    lockstep = 2 * len(block) // 3  # a 4x4 block is 182 windows
    watch, _ = check(monkeypatch, models[resolution], source, step=40, lockstep=lockstep)
    assert not engaged or watch.runs[-1].stop() >= 182


def test_every_tile_dropped(models, engaged, monkeypatch):
    block = frames(32, 12, seed=3, period=500)  # twice the frame period
    watch, _ = check(monkeypatch, models[32], FrameSource(block))
    assert watch.runs == []  # no inference to start


@pytest.mark.parametrize("extra", [0, 7])
def test_one_window(models, engaged, monkeypatch, extra):
    check(monkeypatch, models[32], FrameSource(frames(32, 1, seed=4, extra=extra)))


@pytest.mark.parametrize("warmup", [1, 137, 300])
def test_warmup_straddles_slabs(models, engaged, monkeypatch, warmup):
    # a 32x32 slab is 40 frames past warm-up, so tiles straddle slabs
    config = PipelineConfig(warmup_frames=warmup)
    check(monkeypatch, models[32], FrameSource(frames(32, 120, seed=5)), config)


@pytest.mark.parametrize("resolution", [32, 4])
def test_calibration_inside_a_block(models, engaged, monkeypatch, resolution):
    config = PipelineConfig(min_recal_interval_min=1.0)
    block = frames(resolution, 400, seed=6)
    source = FrameSource(block, ambient_shift_min=1.5)
    _, want = check(monkeypatch, models[resolution], source, config, lockstep=len(block))
    events = want["calibration_events"]
    assert events, "no calibration"
    # each calibration falls inside a window, and so inside a block
    assert np.all(np.searchsorted(block.timestamps, events) < 20 * len(want["start"]))


def test_helper_runs_every_block_ahead(models, helper_on, monkeypatch):
    block = frames(32, 300, seed=7)
    watch, _ = check(monkeypatch, models[32], FrameSource(block), step=40, lockstep=len(block))
    assert watch.runs[-1].stop() == 300
    assert watch.infer_logits == []  # nothing left for the join


@pytest.mark.parametrize("final", [0, 1, 2, 3, 4, 100, 255, 256, 257, 299, 300])
@pytest.mark.parametrize("resolution", [32, 4])
def test_join_mid_stream(models, engaged, monkeypatch, resolution, final):
    """The run stops where the helper got to, and the join runs the rest
    from that block on, to the end of its batch and then batch by batch."""
    model = models[resolution]
    rng = np.random.default_rng([resolution, final])
    x = rng.uniform(0, 4, size=(300, 20, resolution, resolution)).astype(np.float32)
    want = np.concatenate([serial_infer(model, x[lo : lo + INFER_BATCH]) for lo in (0, INFER_BATCH)])
    watch = Watch(monkeypatch, model)
    run = model.run_ahead(len(x), INFER_BATCH, lambda a, b: x[a:b])
    run.advance(final)
    if engaged:
        watch.settle()
    labels = model.predict_labels(x, INFER_BATCH, ahead=run)
    done = run.stop()
    assert done == (max((b for _, b in run._grid if b <= final), default=0) if engaged else 0)
    assert watch.logits().tobytes() == want.tobytes()
    assert labels.dtype == np.int64
    assert labels.tobytes() == softmax(want).argmax(axis=1).tobytes()


# -- failure and fork safety ---------------------------------------------------


@pytest.fixture
def helper_on(monkeypatch):
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(net, "_helper", None)
    yield
    if net._helper is not None:
        net._helper.shutdown()


def test_tracker_failure_stops_the_helper(models, helper_on, monkeypatch):
    model, block = models[32], frames(32, 300, seed=8)
    source = FrameSource(block)
    Watch(monkeypatch, model, step=40, lockstep=len(block), fail_at=len(block) // 2)
    with pytest.raises(RuntimeError, match="tracker failed"):
        _process_thermal_sensor(source, SENSOR[32], model, PipelineConfig())
    helper = net._helper
    assert helper.submit(int).result(timeout=10) == 0  # it waits for nothing
    monkeypatch.undo()  # the real tracker and model, the helper kept
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(net, "_helper", helper)
    watch, _ = check(monkeypatch, model, source, step=40, lockstep=len(block))
    assert net._helper is helper and watch.runs[-1].stop() == 300


def _stream_in_child(model, source, want) -> None:
    track = _process_thermal_sensor(source, SENSOR[32], model, PipelineConfig())
    same = all(getattr(track, c).tobytes() == want[c].tobytes() for c in ("posture", "motion_index"))
    os._exit(0 if same and net._helper is not None else 1)


def test_forked_child_streams(models, helper_on, monkeypatch):
    model, source = models[32], FrameSource(frames(32, 300, seed=9))
    want = reference(source, SENSOR[32], model, PipelineConfig())
    check(monkeypatch, model, source)  # the helper exists
    assert net._helper is not None
    child = multiprocessing.get_context("fork").Process(target=_stream_in_child, args=(model, source, want))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("streamed inference in a forked child hung")
    assert child.exitcode == 0


def test_numpy_error_state_reaches_the_streaming_helper(models, helper_on, monkeypatch):
    model = models[32]
    x = np.zeros((30, 20, 32, 32), dtype=np.float32)
    x[-1] = 3e38  # the last block overflows
    seen = []
    run_block = net.BlockRun._run_block

    def record(run, a, b):
        if threading.current_thread() is not threading.main_thread():
            seen.append(np.geterr()["over"])
        run_block(run, a, b)

    monkeypatch.setattr(net.BlockRun, "_run_block", record)
    with np.errstate(over="raise"):
        run = model.run_ahead(len(x), INFER_BATCH, lambda a, b: x[a:b])
    run.advance(len(x))  # outside the errstate: the helper keeps the run's
    run._helper.exception(timeout=30)  # it has claimed every block
    with pytest.raises(FloatingPointError):
        model.predict_labels(x, INFER_BATCH, ahead=run)
    assert seen and set(seen) == {"raise"}
