import numpy as np
import pytest

from hometwin.posture.windows import build_windows, stack_windows


def cadence(n, period=250, start=0):
    return start + period * np.arange(n, dtype=np.int64)


def test_sixty_seconds_tiles_into_twelve_windows():
    ts = cadence(240)  # 60 s at 4 Hz
    frames = np.zeros((240, 4, 4), dtype=np.float32)
    kept, dropped = build_windows(ts, frames)
    assert len(kept) == 12
    assert dropped.tolist() == []
    assert ts[kept[0] * 20] == 0
    assert ts[kept[1] * 20] == 5000


def test_trailing_partial_window_not_emitted():
    ts = cadence(39)  # one full window plus 19 frames
    frames = np.zeros((39, 4, 4), dtype=np.float32)
    kept, dropped = build_windows(ts, frames)
    assert len(kept) == 1
    assert stack_windows(frames, kept).shape == (1, 20, 4, 4)


def test_gap_drops_overlapping_window():
    ts = np.concatenate([cadence(30), cadence(50, start=30 * 250 + 2000)])
    frames = np.zeros((80, 4, 4), dtype=np.float32)
    kept, dropped = build_windows(ts, frames)
    assert dropped.tolist() == [1]  # second window spans the 2 s dropout
    assert kept.tolist() == [0, 2, 3]


def test_jitter_within_tolerance_kept():
    rng = np.random.default_rng(0)
    ts = cadence(40) + rng.integers(-20, 21, size=40)
    ts = np.sort(ts)
    frames = np.zeros((40, 4, 4), dtype=np.float32)
    kept, dropped = build_windows(ts, frames)
    assert len(kept) + len(dropped) == 2


def test_stack_windows_shape_and_dtype():
    ts = cadence(40)
    frames = np.random.default_rng(0).uniform(0, 5, size=(40, 4, 4)).astype(np.float32)
    kept, _ = build_windows(ts, frames)
    batch = stack_windows(frames, kept)
    assert batch.shape == (2, 20, 4, 4)
    assert batch.dtype == np.float32
    assert np.array_equal(batch[0], frames[:20])


def test_stack_windows_gathers_kept_tiles_only():
    ts = np.concatenate([cadence(30), cadence(50, start=30 * 250 + 2000)])
    frames = np.random.default_rng(1).uniform(0, 5, size=(80, 4, 4)).astype(np.float32)
    kept, _ = build_windows(ts, frames)
    batch = stack_windows(frames, kept)
    assert batch.shape == (3, 20, 4, 4)
    assert np.array_equal(batch[1], frames[40:60])
    assert not np.shares_memory(batch, frames)


def test_empty_stream():
    kept, dropped = build_windows(np.zeros(0, dtype=np.int64), np.zeros((0, 4, 4)))
    assert len(kept) == len(dropped) == 0
    with pytest.raises(ValueError):
        build_windows(cadence(20), np.zeros((21, 4, 4)))


@pytest.mark.parametrize(
    "spacing, kept", [(224, False), (225, True), (275, True), (276, False)]
)
def test_cadence_tolerance_edges(spacing, kept):
    # period 250 ms +/- 10%: a window with one step outside [225, 275] drops
    ts = cadence(20)
    ts[10:] += spacing - 250
    frames = np.zeros((20, 4, 4), dtype=np.float32)
    got_kept, got_dropped = build_windows(ts, frames)
    assert (len(got_kept), len(got_dropped)) == ((1, 0) if kept else (0, 1))
