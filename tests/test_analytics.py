import numpy as np
import pytest

from hometwin import analytics
from hometwin.config import PipelineConfig
from hometwin.core import (
    MS_PER_HOUR,
    MS_PER_MINUTE,
    ActivityLabel,
    FrameBlock,
    ReadingSeries,
    SensorKind,
    UNKNOWN_ACTIVITY,
    parse_clock,
)
from hometwin.errors import CoverageError, InsufficientDataError, WindowMismatchError
from hometwin.layout import lite_layout

from test_rules_oracle import MinuteEvidence, frame_of, labelled_timeline

K_REST = PipelineConfig().k_rest

SLEEP = ActivityLabel.SLEEPING.value
REST = ActivityLabel.RESTROOM.value
AWAY = ActivityLabel.NOT_AT_HOME.value
DINING = ActivityLabel.DINING_ROOM_ACTIVITY.value


def timeline_of(labels, start=0, rest_triggers=None, light_steps=None, away=None):
    records = [
        MinuteEvidence(
            start + i * MS_PER_MINUTE,
            False,
            restroom_triggers=(rest_triggers or {}).get(i, 0),
            light_step_max=(light_steps or {}).get(i, 0.0),
        )
        for i in range(len(labels))
    ]
    return labelled_timeline(frame_of(records), labels, away or [])


class TestExtractSleep:
    def test_two_segments_kept_separate(self):
        labels = [DINING] * 5 + [SLEEP] * 390 + [REST] * 10 + [SLEEP] * 60 + [DINING] * 5
        timeline = timeline_of(labels)
        segments, total = analytics.extract_sleep(timeline, 0, len(labels) * MS_PER_MINUTE, K_REST)
        assert [s.minutes for s in segments] == [390.0, 60.0]
        assert total == 450.0

    def test_no_sleep_empty(self):
        timeline = timeline_of([DINING] * 30)
        segments, total = analytics.extract_sleep(timeline, 0, 30 * MS_PER_MINUTE, K_REST)
        assert segments == [] and total == 0.0

    def test_uninterrupted_block(self):
        timeline = timeline_of([SLEEP] * 480)
        segments, total = analytics.extract_sleep(timeline, 0, 480 * MS_PER_MINUTE, K_REST)
        assert len(segments) == 1
        assert total == 480.0

    def test_window_not_covered(self):
        timeline = timeline_of([SLEEP] * 10)
        with pytest.raises(CoverageError):
            analytics.extract_sleep(timeline, 0, 20 * MS_PER_MINUTE, K_REST)

    def test_clipped_to_window(self):
        timeline = timeline_of([SLEEP] * 60)
        segments, total = analytics.extract_sleep(
            timeline, 10 * MS_PER_MINUTE, 20 * MS_PER_MINUTE, K_REST
        )
        assert total == 10.0


class TestSleepQuality:
    @staticmethod
    def frames_with_events(n_minutes, event_minutes, amp=3.0):
        """Static bedroom frames with short bright shifts at the given minutes."""
        n = n_minutes * 240
        ts = np.arange(n, dtype=np.int64) * 250
        celsius = np.full((n, 4, 4), 28.0)
        celsius[:, 1:3, 1:3] = 33.0  # sleeping blob
        for minute in event_minutes:
            i = minute * 240
            celsius[i, 1:3, 1:3] += amp  # single-frame shift: one event
        rng = np.random.default_rng(0)
        celsius = celsius + rng.normal(0, 0.3, size=celsius.shape)
        return [FrameBlock("bed", 4, ts, np.round(celsius * 100).astype(np.int16))]

    def test_perfectly_static_frames(self):
        n = 10 * 240
        ts = np.arange(n, dtype=np.int64) * 250
        blocks = [FrameBlock("bed", 4, ts, np.full((n, 4, 4), 2800, dtype=np.int16))]
        segments = [analytics.SleepSegment(0, 10 * MS_PER_MINUTE)]
        out = analytics.sleep_quality(blocks, segments, theta_move=1.0)
        assert out[0].movement_events == 0
        assert out[0].still_fraction == 1.0

    def test_counts_discrete_events(self):
        events = (5, 12, 20, 33, 41, 50)
        blocks = self.frames_with_events(60, events)
        segments = [analytics.SleepSegment(0, 60 * MS_PER_MINUTE)]
        out = analytics.sleep_quality(blocks, segments, theta_move=1.0)
        assert abs(out[0].movement_events - len(events)) <= 1
        assert 0.9 < out[0].still_fraction < 1.0

    def test_zero_threshold_degenerate(self):
        blocks = self.frames_with_events(5, ())
        segments = [analytics.SleepSegment(0, 5 * MS_PER_MINUTE)]
        out = analytics.sleep_quality(blocks, segments, theta_move=0.0)
        assert out[0].still_fraction == 0.0

    def test_no_frames_raises(self):
        with pytest.raises(InsufficientDataError):
            analytics.sleep_quality([], [analytics.SleepSegment(0, 60_000)], 1.0)

    def test_auto_threshold_from_empty_bed(self):
        blocks = self.frames_with_events(30, ())
        segments = [analytics.SleepSegment(0, 10 * MS_PER_MINUTE)]
        theta = analytics.auto_theta_move(blocks, segments)
        # 3x the noise-floor median of the out-of-segment frames
        assert 0.7 < theta < 1.4


class TestNightToileting:
    NIGHT = (parse_clock("21:00"), parse_clock("08:00"))

    def start_at(self, clock):
        return parse_clock(clock)  # day 0, naive local clock

    def test_confirmed_transitions_counted(self):
        # 23:00 start: sleep, restroom with triggers, sleep, restroom with lamp
        labels = [SLEEP] * 60 + [REST] * 5 + [SLEEP] * 120 + [REST] * 5 + [SLEEP] * 30
        rest_triggers = {60: 10, 185: 0}
        light_steps = {186: 200.0}
        timeline = timeline_of(
            labels, start=self.start_at("23:00"), rest_triggers=rest_triggers, light_steps=light_steps
        )
        count = analytics.night_toileting(timeline, self.NIGHT, lamp_delta=150.0)
        assert count == 2

    def test_unconfirmed_transition_ignored(self):
        labels = [SLEEP] * 30 + [REST] * 5 + [SLEEP] * 30
        timeline = timeline_of(labels, start=self.start_at("23:00"))
        assert analytics.night_toileting(timeline, self.NIGHT, 150.0) == 0

    def test_uninterrupted_sleep_zero(self):
        timeline = timeline_of([SLEEP] * 200, start=self.start_at("23:00"))
        assert analytics.night_toileting(timeline, self.NIGHT, 150.0) == 0

    def test_daytime_transition_not_counted(self):
        labels = [SLEEP] * 30 + [REST] * 5
        timeline = timeline_of(
            labels, start=self.start_at("13:00"), rest_triggers={30: 10}
        )
        assert analytics.night_toileting(timeline, self.NIGHT, 150.0) == 0

    def test_count_bounded_by_sleep_exits(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            labels = [int(rng.choice([SLEEP, REST, DINING, UNKNOWN_ACTIVITY])) for _ in range(240)]
            rest_triggers = {i: 5 for i in range(240)}
            timeline = timeline_of(labels, start=self.start_at("22:00"), rest_triggers=rest_triggers)
            count = analytics.night_toileting(timeline, self.NIGHT, 150.0)
            exits = sum(
                1
                for a, b in zip(labels, labels[1:])
                if a == SLEEP and b != SLEEP
            )
            assert count <= exits


class TestOutdoorTime:
    def test_single_outing(self):
        away = [(10 * MS_PER_MINUTE, 100 * MS_PER_MINUTE)]
        timeline = timeline_of([AWAY] * 120, away=away)
        intervals, total = analytics.outdoor_time(timeline, 0, 120 * MS_PER_MINUTE)
        assert intervals == away
        assert total == pytest.approx(1.5)

    def test_never_leaves(self):
        timeline = timeline_of([DINING] * 60)
        intervals, total = analytics.outdoor_time(timeline, 0, 60 * MS_PER_MINUTE)
        assert intervals == [] and total == 0.0

    def test_two_outings_sum(self):
        away = [(0, 60 * MS_PER_MINUTE), (120 * MS_PER_MINUTE, 240 * MS_PER_MINUTE)]
        timeline = timeline_of([AWAY] * 300, away=away)
        intervals, total = analytics.outdoor_time(timeline, 0, 300 * MS_PER_MINUTE)
        assert len(intervals) == 2
        assert total == pytest.approx(3.0)

    def test_clipping(self):
        away = [(0, 120 * MS_PER_MINUTE)]
        timeline = timeline_of([AWAY] * 120, away=away)
        intervals, total = analytics.outdoor_time(
            timeline, 60 * MS_PER_MINUTE, 120 * MS_PER_MINUTE
        )
        assert total == pytest.approx(1.0)


def series(sensor_id, kind, t0, t1, values_fn, period=5000):
    ts = np.arange(t0, t1, period, dtype=np.int64)
    values = np.round(np.asarray([values_fn(t) for t in ts]) * 100) / 100
    return ReadingSeries(sensor_id, kind, ts, values)


class TestEnvironmentSummary:
    def test_constant_channel_aggregates(self):
        layout = lite_layout()
        config = PipelineConfig()
        day = (0, 4 * MS_PER_HOUR)
        all_series = {
            "dining/A0/noise": series("dining/A0/noise", SensorKind.NOISE, *day, lambda t: 28.0)
        }
        env, alerts = analytics.environment_summary(layout, all_series, *day, config)
        aggs = env["dining"]["noise"]
        assert len(aggs) == 4
        for agg in aggs:
            assert (agg.minimum, agg.mean, agg.maximum) == (28.0, 28.0, 28.0)
        assert alerts == []

    def test_aggregates_match_brute_force(self):
        layout = lite_layout()
        config = PipelineConfig()
        day = (0, 6 * MS_PER_HOUR)
        rng = np.random.default_rng(5)
        values = {}

        def noisy(t):
            return float(rng.uniform(10, 50))

        s = series("dining/A0/noise", SensorKind.NOISE, *day, noisy)
        env, _ = analytics.environment_summary(layout, {s.sensor_id: s}, *day, config)

        # independent brute-force recomputation, same timestamp order
        for h, agg in enumerate(env["dining"]["noise"]):
            lo, hi = h * MS_PER_HOUR, (h + 1) * MS_PER_HOUR
            inside = [(t, v) for t, v in zip(s.timestamps, s.values) if lo <= t < hi]
            total = 0.0
            for _, v in inside:
                total += v
            assert agg.minimum == min(v for _, v in inside)
            assert agg.maximum == max(v for _, v in inside)
            assert agg.mean == total / len(inside)  # exact, same accumulation order
            assert agg.count == len(inside)

    def test_hourly_aggregates_on_random_series(self):
        # gaps, equal timestamps, empty hours and readings outside the window
        layout = lite_layout()
        config = PipelineConfig()
        day = (MS_PER_HOUR, 5 * MS_PER_HOUR)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 6000))
            ts = np.sort(rng.integers(0, 6 * MS_PER_HOUR, size=n))
            s = ReadingSeries("dining/A0/noise", SensorKind.NOISE, ts, np.round(rng.uniform(-40, 90, n), 2))
            env, _ = analytics.environment_summary(layout, {s.sensor_id: s}, *day, config)
            for agg in env["dining"]["noise"]:
                inside = s.values[(ts >= agg.hour_start) & (ts < agg.hour_start + MS_PER_HOUR)]
                assert agg.count == len(inside)
                if not len(inside):
                    assert np.isnan(agg.mean)
                    continue
                total = 0.0
                for v in inside:
                    total += float(v)
                assert (agg.minimum, agg.mean, agg.maximum) == (inside.min(), total / len(inside), inside.max())

    def test_noise_burst_single_alert_spanning(self):
        layout = lite_layout()
        config = PipelineConfig()
        day = (0, 6 * MS_PER_HOUR)
        burst_lo, burst_hi = int(2.5 * MS_PER_HOUR), int(3.7 * MS_PER_HOUR)

        def with_burst(t):
            return 75.0 if burst_lo <= t < burst_hi else 40.0

        s = series("dining/A0/noise", SensorKind.NOISE, *day, with_burst)
        _, alerts = analytics.environment_summary(layout, {s.sensor_id: s}, *day, config)
        noise_alerts = [a for a in alerts if a.kind == "noise"]
        assert len(noise_alerts) == 1
        assert abs(noise_alerts[0].start - burst_lo) <= 5000
        assert abs(noise_alerts[0].end - burst_hi) <= 5000

    def test_humidity_band_alert(self):
        layout = lite_layout()
        config = PipelineConfig()
        day = (0, 3 * MS_PER_HOUR)
        s = series(
            "dining/A0/humidity", SensorKind.TEMP_HUMIDITY, *day,
            lambda t: 90.0 if t < 2 * MS_PER_HOUR else 70.0,
        )
        _, alerts = analytics.environment_summary(layout, {s.sensor_id: s}, *day, config)
        assert [a.kind for a in alerts] == ["humidity"]

    def test_short_excursion_below_dwell_no_alert(self):
        layout = lite_layout()
        config = PipelineConfig()
        day = (0, 2 * MS_PER_HOUR)
        s = series(
            "dining/A0/noise", SensorKind.NOISE, *day,
            lambda t: 90.0 if t < 10 * MS_PER_MINUTE else 30.0,
        )
        _, alerts = analytics.environment_summary(layout, {s.sensor_id: s}, *day, config)
        assert alerts == []

    def test_missing_hours_marked_no_data(self):
        layout = lite_layout()
        config = PipelineConfig()
        s = series("dining/A0/noise", SensorKind.NOISE, 0, MS_PER_HOUR, lambda t: 30.0)
        env, _ = analytics.environment_summary(layout, {s.sensor_id: s}, 0, 3 * MS_PER_HOUR, config)
        aggs = env["dining"]["noise"]
        assert aggs[0].count > 0
        assert aggs[1].count == 0 and np.isnan(aggs[1].mean)


def oracle_dwell_alerts(room_id, channel, series, day_start, day_end, config):
    """Former `analytics._dwell_alerts`: one pass over the readings, a run
    open from its first out-of-band reading to the last before an in-band
    one (or the window's last reading)."""
    sub = series.slice(day_start, day_end)
    if not len(sub):
        return []
    bad = analytics._out_of_band(channel, sub.values, config)
    alerts = []
    run_start = None
    last_ts = None
    for ts, flag in zip(sub.timestamps, bad):
        if flag and run_start is None:
            run_start = int(ts)
        elif not flag and run_start is not None:
            if last_ts - run_start >= config.dwell_min * MS_PER_MINUTE:
                alerts.append(analytics.Alert(channel, room_id, run_start, int(last_ts)))
            run_start = None
        last_ts = int(ts)
    if run_start is not None and last_ts - run_start >= config.dwell_min * MS_PER_MINUTE:
        alerts.append(analytics.Alert(channel, room_id, run_start, last_ts))
    return alerts


class TestDwellAlertsOracle:
    DWELL = PipelineConfig().dwell_min * MS_PER_MINUTE

    def check(self, timestamps, loud, config=PipelineConfig()):
        ts = np.array(timestamps, dtype=np.int64)
        values = np.where(np.array(loud, dtype=bool), 75.0, 30.0)
        s = ReadingSeries("dining/A0/noise", SensorKind.NOISE, ts, values)
        day = (int(ts.min()) if len(ts) else 0, int(ts.max()) + 1 if len(ts) else MS_PER_HOUR)
        got = analytics._dwell_alerts("dining", "noise", s, *day, config)
        want = oracle_dwell_alerts("dining", "noise", s, *day, config)
        assert got == want
        assert all(type(a.start) is int and type(a.end) is int for a in got)
        return got

    def test_run_at_the_series_end(self):
        ts = np.arange(0, 2 * self.DWELL, 5000)
        alerts = self.check(ts, ts >= self.DWELL // 2)
        assert [(a.start, a.end) for a in alerts] == [(self.DWELL // 2, int(ts[-1]))]

    def test_run_of_exactly_the_dwell(self):
        ts = np.arange(0, 3 * self.DWELL, 5000)
        alerts = self.check(ts, (ts >= 5000) & (ts <= 5000 + self.DWELL))
        assert [(a.start, a.end) for a in alerts] == [(5000, 5000 + self.DWELL)]
        assert self.check(ts, (ts >= 5000) & (ts < 5000 + self.DWELL)) == []

    def test_one_sample_runs(self):
        ts = np.arange(0, 20) * 5000
        assert self.check(ts, np.arange(20) % 2 == 0) == []
        assert len(self.check(ts, np.arange(20) % 2 == 0, PipelineConfig(dwell_min=0))) == 10

    def test_all_and_no_flags(self):
        ts = np.arange(0, 2 * self.DWELL, 5000)
        assert len(self.check(ts, np.ones(len(ts)))) == 1
        assert self.check(ts, np.zeros(len(ts))) == []
        assert self.check([], []) == []

    def test_equal_timestamps(self):
        ts = np.repeat(np.arange(0, 2 * self.DWELL, 60_000), 3)
        loud = np.zeros(len(ts), dtype=bool)
        loud[4:-2] = True
        alerts = self.check(ts, loud)
        assert len(alerts) == 1 and alerts[0].start == alerts[0].end - (ts[-3] - ts[4])

    def test_random_series(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 400))
            ts = np.cumsum(rng.choice([0, 5000, 60_000, 10 * MS_PER_MINUTE], size=n))
            config = PipelineConfig(dwell_min=int(rng.choice([0, 1, 10, 30])))
            self.check(ts, rng.random(n) < rng.uniform(0.1, 0.95), config)


class TestDailyReport:
    def build(self, sleep_minutes=420, with_alerts=False):
        config = PipelineConfig()
        segments = (
            [analytics.SleepSegment(0, sleep_minutes * MS_PER_MINUTE)] if sleep_minutes else []
        )
        return analytics.build_daily_report(
            day_start=0,
            day_end=24 * MS_PER_HOUR,
            sleep_segments=segments,
            sleep_total_min=float(sleep_minutes),
            toileting_night=2,
            outdoor_intervals=[(13 * MS_PER_HOUR, 14 * MS_PER_HOUR)],
            outdoor_total_h=1.0,
            environment={},
            alerts=[],
            config=config,
        )

    def test_totals_consistent(self):
        report = self.build()
        assert report.sleep_total_min == sum(s.minutes for s in report.sleep_segments)
        assert report.outdoor_total_h == pytest.approx(
            sum(hi - lo for lo, hi in report.outdoor_intervals) / MS_PER_HOUR
        )

    def test_inconsistent_totals_rejected(self):
        config = PipelineConfig()
        with pytest.raises(WindowMismatchError):
            analytics.build_daily_report(
                0, MS_PER_HOUR, [analytics.SleepSegment(0, MS_PER_MINUTE)],
                99.0, 0, [], 0.0, {}, [], config,
            )

    def test_component_outside_window_rejected(self):
        config = PipelineConfig()
        with pytest.raises(WindowMismatchError):
            analytics.build_daily_report(
                0, MS_PER_HOUR, [analytics.SleepSegment(0, 2 * MS_PER_HOUR)],
                120.0, 0, [], 0.0, {}, [], config,
            )

    def test_sleep_extremes_raise_flags(self):
        short = self.build(sleep_minutes=200)
        assert any(a.kind == "sleep_short" for a in short.alerts)
        long = self.build(sleep_minutes=660)
        assert any(a.kind == "sleep_long" for a in long.alerts)
        normal = self.build(sleep_minutes=450)
        assert not any(a.kind.startswith("sleep") for a in normal.alerts)

    def test_serializations_deterministic(self):
        a, b = self.build(), self.build()
        assert analytics.report_to_text(a) == analytics.report_to_text(b)
        assert analytics.report_to_json(a) == analytics.report_to_json(b)
        assert analytics.environment_csv(a) == analytics.environment_csv(b)

    def test_empty_day_markers_not_zeros(self):
        config = PipelineConfig()
        report = analytics.build_daily_report(
            0, 24 * MS_PER_HOUR, [], 0.0, 0, [], 0.0, {}, [], config, has_data=False
        )
        text = analytics.report_to_text(report)
        assert "no data" in text
        assert not any(a.kind == "sleep_short" for a in report.alerts)
