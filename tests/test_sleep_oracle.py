"""Differential test of the sleep analytics against the code they replaced.

`analytics.sleep_quality` and `analytics.auto_theta_move` read one
frame-motion column: for each pair of consecutive frames inside a block,
the float32 mean absolute difference and the pair's two timestamps.  The
oracle below is the code they replaced, which cast and diffed the frames
per segment (`sleep_quality`, after joining the blocks) and per block
(`auto_theta_move`).  On one block both give the same bits.  On a list of
blocks the column holds no pair across a seam; the old `sleep_quality`
counted the pair that spans each seam, the old `auto_theta_move` did not.
"""

from __future__ import annotations

import numpy as np
import pytest

from hometwin import analytics
from hometwin.analytics import SleepSegment
from hometwin.core import MS_PER_MINUTE, FrameBlock
from hometwin.errors import InsufficientDataError

from conftest import concat_blocks

# -- oracle: the replaced code -------------------------------------------------


def oracle_sleep_quality(frame_blocks, segments, theta_move):
    if not frame_blocks or all(not len(b) for b in frame_blocks):
        raise InsufficientDataError("no bedroom frames for sleep quality")
    block = concat_blocks([b for b in frame_blocks if len(b)])
    out = []
    for seg in segments:
        sub = block.slice(seg.start, seg.end)
        if len(sub) < 2:
            out.append(SleepSegment(seg.start, seg.end, 0, 1.0))
            continue
        celsius = sub.pixels_centi.astype(np.float32) / 100.0
        diffs = np.abs(np.diff(celsius, axis=0)).mean(axis=(1, 2))
        moving = diffs >= theta_move
        events = int(np.count_nonzero(moving[1:] & ~moving[:-1]) + (1 if moving[0] else 0))
        out.append(
            SleepSegment(
                seg.start,
                seg.end,
                movement_events=events,
                still_fraction=float(1.0 - moving.mean()),
            )
        )
    return out


def oracle_auto_theta_move(frame_blocks, segments):
    diffs = []
    for block in frame_blocks:
        if len(block) < 2:
            continue
        celsius = block.pixels_centi.astype(np.float32) / 100.0
        d = np.abs(np.diff(celsius, axis=0)).mean(axis=(1, 2))
        mid = (block.timestamps[:-1] + block.timestamps[1:]) // 2
        outside = np.ones(len(d), dtype=bool)
        for seg in segments:
            outside &= ~((mid >= seg.start) & (mid < seg.end))
        diffs.append(d[outside])
    if not diffs:
        return 1.0
    stacked = np.concatenate(diffs)
    if not len(stacked):
        return 1.0
    return 3.0 * float(np.median(stacked))


# -- inputs --------------------------------------------------------------------

# frames per block: more than one float32 slab of the column at each resolution
FRAMES = {4: 20_000, 32: 700}


def bedroom_block(resolution: int, n: int, seed: int, t0: int = 0) -> FrameBlock:
    """A noisy bed scene with still stretches (repeated frames, so exact zero
    differences and tied medians), body shifts and cadence gaps."""
    rng = np.random.default_rng(seed)
    steps = np.where(rng.random(n) < 0.002, rng.integers(500, 20_000, n), 250)
    ts = t0 + np.cumsum(steps).astype(np.int64)
    base = 2600 + 60 * rng.standard_normal((resolution, resolution))
    frames = base + 25 * rng.standard_normal((n, resolution, resolution))
    body = slice(resolution // 4, 3 * resolution // 4)
    frames[:, body, body] += 500
    shifts = rng.choice(n, size=max(n // 400, 2), replace=False)
    for i in shifts:
        frames[i : i + int(rng.integers(1, 12)), body, body] += rng.uniform(50, 400)
    still = rng.choice(n - 50, size=max(n // 500, 2), replace=False)
    for i in still:
        frames[i + 1 : i + int(rng.integers(2, 50))] = frames[i]
    return FrameBlock("bed", resolution, ts, np.rint(frames).astype(np.int16))


def random_segments(rng: np.random.Generator, ts: np.ndarray) -> list[SleepSegment]:
    """0-4 segments whose ends are frame timestamps, a millisecond off one,
    or anywhere from before the first frame to after the last."""

    def point():
        pick = rng.integers(3)
        if pick == 0:
            return int(rng.integers(ts[0] - 10_000, ts[-1] + 10_000))
        t = int(ts[rng.integers(len(ts))])
        return t if pick == 1 else t + int(rng.choice([-1, 1]))

    segments = []
    for _ in range(rng.integers(5)):
        a, b = sorted((point(), point()))
        segments.append(SleepSegment(a, b))
    return segments


def pair_diffs(block: FrameBlock) -> np.ndarray:
    celsius = block.pixels_centi.astype(np.float32) / 100.0
    return np.abs(np.diff(celsius, axis=0)).mean(axis=(1, 2))


def thresholds(rng, blocks) -> list[float]:
    """Zero, a column value itself (ties with >=), and a random level."""
    d = pair_diffs(blocks[0][:200])
    return [0.0, float(d[rng.integers(len(d))]), float(rng.uniform(0.0, 2.0 * d.max()))]


def assert_same(blocks, segments, theta):
    assert analytics.sleep_quality(blocks, segments, theta) == oracle_sleep_quality(
        blocks, segments, theta
    )
    got = analytics.auto_theta_move(blocks, segments)
    assert got == oracle_auto_theta_move(blocks, segments)


# -- cases ---------------------------------------------------------------------


@pytest.mark.parametrize("resolution", [4, 32])
def test_random_segments_and_thresholds_match_the_oracle(resolution):
    block = bedroom_block(resolution, FRAMES[resolution], seed=resolution)
    rng = np.random.default_rng(100 + resolution)
    for _ in range(30):
        segments = random_segments(rng, block.timestamps)
        for theta in thresholds(rng, [block]):
            assert_same([block], segments, theta)


@pytest.mark.parametrize("resolution", [4, 32])
def test_edge_segments_match_the_oracle(resolution):
    block = bedroom_block(resolution, FRAMES[resolution], seed=7 + resolution)
    ts = block.timestamps
    first, last, mid = int(ts[0]), int(ts[-1]), int(ts[len(ts) // 2])
    cases = [
        [],  # no segments
        [SleepSegment(mid, mid)],  # no frames
        [SleepSegment(mid, mid + 1)],  # one frame
        [SleepSegment(int(ts[5]), int(ts[7]))],  # two frames, one pair
        [SleepSegment(first - 60_000, first)],  # ends at the first frame
        [SleepSegment(first - 60_000, first + 1)],  # holds only the first frame
        [SleepSegment(last + 1, last + 60_000)],  # after the last frame
        [SleepSegment(last, last + 60_000)],  # holds only the last frame
        [SleepSegment(first, last)],  # all but the last frame
        [SleepSegment(first, last + 1)],  # the whole block
        [SleepSegment(first - MS_PER_MINUTE, last + MS_PER_MINUTE)],  # beyond both ends
        [SleepSegment(first, mid), SleepSegment(mid, last + 1)],  # touching at mid
    ]
    rng = np.random.default_rng(resolution)
    for segments in cases:
        for theta in thresholds(rng, [block]):
            assert_same([block], segments, theta)


def test_theta_zero_marks_every_pair_moving():
    block = bedroom_block(4, 2000, seed=3)
    ts = block.timestamps
    segments = [SleepSegment(int(ts[10]), int(ts[500])), SleepSegment(int(ts[900]), int(ts[1500]))]
    out = analytics.sleep_quality([block], segments, 0.0)
    assert out == oracle_sleep_quality([block], segments, 0.0)
    assert [(s.movement_events, s.still_fraction) for s in out] == [(1, 0.0), (1, 0.0)]


@pytest.mark.parametrize("resolution", [4, 32])
def test_all_static_block(resolution):
    n = FRAMES[resolution]
    pixels = np.full((n, resolution, resolution), 2750, dtype=np.int16)
    block = FrameBlock("bed", resolution, 250 * np.arange(n, dtype=np.int64), pixels)
    segments = [SleepSegment(10_000, 200_000)]
    for theta in (0.0, 0.5):
        assert_same([block], segments, theta)
    out = analytics.sleep_quality([block], segments, 0.5)
    assert (out[0].movement_events, out[0].still_fraction) == (0, 1.0)
    assert analytics.auto_theta_move([block], segments) == 0.0


def test_no_pairs_gives_the_default_threshold():
    one = FrameBlock("bed", 4, np.array([0], dtype=np.int64), np.zeros((1, 4, 4), dtype=np.int16))
    for blocks in ([], [one]):
        assert analytics.auto_theta_move(blocks, []) == oracle_auto_theta_move(blocks, []) == 1.0
    with pytest.raises(InsufficientDataError):
        analytics.sleep_quality([one.slice(1, 1)], [SleepSegment(0, 1)], 1.0)


def quiet_block(n: int, seed: int, t0: int, offset: int) -> FrameBlock:
    rng = np.random.default_rng(seed)
    pixels = 2600 + offset + np.rint(10 * rng.standard_normal((n, 4, 4)))
    return FrameBlock("bed", 4, t0 + 250 * np.arange(n, dtype=np.int64), pixels.astype(np.int16))


def test_no_pair_spans_two_blocks():
    """The seam between two blocks carries no pair.  Here the second block is
    3 degrees warmer, so the old sleep_quality saw one movement at the seam."""
    a = quiet_block(3000, seed=11, t0=0, offset=0)
    b = quiet_block(3000, seed=12, t0=int(a.timestamps[-1]) + 1000, offset=300)
    blocks = [a, b]
    seam = int(b.timestamps[0])
    theta = 1.0  # above every in-block difference, below the seam's
    assert max(pair_diffs(a).max(), pair_diffs(b).max()) < theta
    whole = [SleepSegment(int(a.timestamps[0]), int(b.timestamps[-1]) + 1)]
    across = [SleepSegment(seam - 5_000, seam + 5_000)]
    for segments in (whole, across):
        got = analytics.sleep_quality(blocks, segments, theta)
        assert (got[0].movement_events, got[0].still_fraction) == (0, 1.0)
        old = oracle_sleep_quality(blocks, segments, theta)
        assert old[0].movement_events == 1 and old[0].still_fraction < 1.0

    rng = np.random.default_rng(12)
    # a segment inside one block reads that block's pairs only
    for part in blocks:
        lo, hi = int(part.timestamps[0]), int(part.timestamps[-1]) + 1
        for _ in range(10):
            segments = [
                SleepSegment(max(s.start, lo), min(s.end, hi))
                for s in random_segments(rng, part.timestamps)
            ]
            for t in thresholds(rng, [part]):
                assert analytics.sleep_quality(blocks, segments, t) == oracle_sleep_quality(
                    [part], segments, t
                )
    # a segment across the seam reads both blocks' pairs, joined
    lo, hi = seam - 100_000, seam + 100_000
    pairs = np.concatenate([pair_diffs(part.slice(lo, hi)) for part in blocks])
    for t in thresholds(rng, blocks) + [float(pairs.max())]:
        moving = pairs >= t
        events = int(np.count_nonzero(moving[1:] & ~moving[:-1]) + (1 if moving[0] else 0))
        got = analytics.sleep_quality(blocks, [SleepSegment(lo, hi)], t)[0]
        assert (got.movement_events, got.still_fraction) == (events, float(1.0 - moving.mean()))
    # the empty-bed threshold never read a seam pair
    both = np.concatenate([a.timestamps, b.timestamps])
    for _ in range(10):
        segments = random_segments(rng, both)
        assert analytics.auto_theta_move(blocks, segments) == oracle_auto_theta_move(
            blocks, segments
        )
