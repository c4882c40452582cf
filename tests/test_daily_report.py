"""`analytics.daily_report` against the benchmark's own copy of the report
steps (`perfbench/hbench/day.py` `report()`): the same store, window and
models give the same report text, JSON and CSV.  `posture_hits` against the
benchmark's per-window posture grading (`accuracy()`)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from hometwin import analytics
from hometwin.activity.evaluate import posture_hits
from hometwin.pipeline import StreamSource
from hometwin.simulate.scripts import sleep_day

from test_sleep_oracle import oracle_auto_theta_move, oracle_sleep_quality

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
try:
    from hbench import day, inputs
finally:
    sys.path.remove(str(ROOT / "perfbench"))

# 00:40-03:00 of the sleep day: the dining room, a toilet visit, then the
# first sleep with one roll-over
NIGHT_MIN = (400, 540)


def library_report(layout, rep) -> tuple[analytics.DailyReport, tuple[str, str, str]]:
    source = StreamSource(layout, store=rep.store, start=rep.start, end=rep.end)
    daily = analytics.daily_report(source, rep.result, day.CONFIG)
    texts = (
        analytics.report_to_text(daily),
        analytics.report_to_json(daily),
        analytics.environment_csv(daily),
    )
    return daily, texts


@pytest.fixture(scope="module")
def day_window():
    """The benchmark's report of its day workload window (seed 3)."""
    inp = day.setup(3)
    return inp, day.report(inp)


def test_day_workload_window(day_window):
    inp, rep = day_window
    _, texts = library_report(inp.layout, rep)
    assert texts == (rep.text, rep.json_text, rep.csv)


def test_no_sleep_sets_no_movement_threshold(day_window, monkeypatch):
    # the window holds no sleep, so no threshold is read and none is computed
    inp, rep = day_window

    def refuse(*args):
        raise AssertionError("auto_theta_move ran with no sleep segment")

    monkeypatch.setattr(analytics, "auto_theta_move", refuse)
    daily, texts = library_report(inp.layout, rep)
    assert not daily.sleep_segments
    assert texts == (rep.text, rep.json_text, rep.csv)


def test_posture_hits_equal_the_per_window_count(day_window):
    # the benchmark's `accuracy()` grades through `SensorTrack.windows`
    inp, rep = day_window
    graded = posture_hits(rep.result.tracks, inp.truth)
    assert sorted(graded) == sorted(inp.truth.posture_truth) == sorted(rep.result.tracks)
    for sensor_id, track in rep.result.tracks.items():
        codes = inp.truth.posture_truth[sensor_id]
        hits = total = 0
        for rec in track.windows:
            if 0 <= rec.interval_index < len(codes):
                hits += int(rec.posture.value == int(codes[rec.interval_index]))
                total += 1
        assert graded[sensor_id] == (hits, total)
    hits = sum(h for h, _ in graded.values())
    total = sum(n for _, n in graded.values())
    assert 0 < hits < total
    assert hits / total == day.accuracy(inp, rep)[1]


@pytest.fixture(scope="module")
def night(small_models):
    """The benchmark's report of a sleep-day night window, with the small models."""
    models, _ = small_models
    layout, script = sleep_day()
    packets, _, truth = inputs.home_wire(layout, inputs.window(script, *NIGHT_MIN), seed=5)
    inp = day.DayInputs(layout, b"".join(packets), truth, models, len(packets))
    return layout, day.report(inp)


def test_sleep_day_night_window(night):
    layout, rep = night
    daily, texts = library_report(layout, rep)
    assert texts == (rep.text, rep.json_text, rep.csv)
    # sleep quality ran on the bedroom's frames and saw the roll-over
    assert daily.sleep_segments
    assert any(s.movement_events for s in daily.sleep_segments)


def test_fixed_movement_threshold_is_used_as_given(night):
    layout, rep = night
    source = StreamSource(layout, store=rep.store, start=rep.start, end=rep.end)
    config = day.CONFIG.override(theta_move=0.05)
    daily = analytics.daily_report(source, rep.result, config)
    (bedroom,) = [s for s in layout.thermal_sensors() if s.room_id == "bedroom"]
    frames = source.frame_blocks(bedroom.sensor_id)
    segments, _ = analytics.extract_sleep(rep.result.timeline, rep.start, rep.end, config.k_rest)
    assert daily.sleep_segments == oracle_sleep_quality(frames, segments, 0.05)
    # the simulated bedroom frames, against the replaced code
    theta = analytics.auto_theta_move(frames, segments)
    assert theta == oracle_auto_theta_move(frames, segments)
    assert analytics.sleep_quality(frames, segments, theta) == oracle_sleep_quality(
        frames, segments, theta
    )
