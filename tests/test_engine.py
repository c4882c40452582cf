import numpy as np
import pytest

from hometwin.config import PipelineConfig
from hometwin.core import (
    MS_PER_MINUTE,
    ActivityLabel,
    PostureLabel,
    SensorKind,
    parse_epoch,
)
from hometwin.errors import ConfigError
from hometwin.layout import lite_layout
from hometwin.simulate import (
    LeaveHome,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    simulate,
)
from hometwin.simulate.scripts import restroom_visit

from conftest import bundle_frames, bundle_readings, concat_blocks

EPOCH = parse_epoch("2024-03-04T10:00:00")


def minutes(n):
    return EPOCH + n * MS_PER_MINUTE


class TestEmptyScenario:
    def test_streams_cover_and_truth_is_trivial(self, layout):
        script = ScenarioScript(EPOCH, 60, [])
        bundle = simulate(layout, script, seed=1)
        # frames are ambient-only plus noise
        block = bundle_frames(bundle, "dining/C0/thermal")[0]
        celsius = block.pixels_centi / 100.0
        assert abs(celsius.std() - 0.3) < 0.05
        # posture truth all NotHere, activity truth all NotAtHome
        for codes in bundle.truth.posture_truth.values():
            assert np.all(codes == PostureLabel.NOT_HERE.value)
        assert np.all(bundle.truth.activity_truth == ActivityLabel.NOT_AT_HOME.value)
        assert bundle.truth.away_intervals == []
        # no motion triggers anywhere
        for series in bundle.readings:
            if series.kind is SensorKind.MOTION:
                assert np.all(series.values == 0.0)


class TestDeterminism:
    def test_identical_output_for_same_seed(self):
        layout = lite_layout()
        script = ScenarioScript(
            EPOCH,
            30,
            [
                OccupyRoom(minutes(2), minutes(12), "dining", PostureLabel.SIT),
                restroom_visit(EPOCH, 14, 18),
            ],
        )
        a = simulate(layout, script, seed=99)
        b = simulate(layout, script, seed=99)
        assert len(a.frames) == len(b.frames)
        for blk_a, blk_b in zip(a.frames, b.frames):
            assert blk_a == blk_b
        for s_a, s_b in zip(a.readings, b.readings):
            assert s_a == s_b
        assert np.array_equal(a.truth.activity_truth, b.truth.activity_truth)

    def test_different_seed_changes_noise(self):
        layout = lite_layout()
        script = ScenarioScript(EPOCH, 5, [])
        a = simulate(layout, script, seed=1)
        b = simulate(layout, script, seed=2)
        assert not np.array_equal(a.frames[0].pixels_centi, b.frames[0].pixels_centi)


class TestFrameStreams:
    def test_cadence_and_jitter_bounds(self, layout):
        script = ScenarioScript(EPOCH, 10, [])
        bundle = simulate(layout, script, seed=4)
        for block in bundle.frames:
            spacing = np.diff(block.timestamps)
            assert spacing.min() >= 250 * 0.9
            assert spacing.max() <= 250 * 1.1
        # pixel range stays physical
        assert bundle.frames[0].pixels_centi.min() >= 1000
        assert bundle.frames[0].pixels_centi.max() <= 4500

    def test_occupant_renders_in_room_fov_only(self, layout):
        script = ScenarioScript(
            EPOCH, 10, [OccupyRoom(minutes(1), minutes(9), "dining", PostureLabel.SIT)]
        )
        bundle = simulate(layout, script, seed=5)
        dining = bundle_frames(bundle, "dining/C0/thermal")[0]
        kitchen = bundle_frames(bundle, "kitchen/C0/thermal")[0]
        mid = len(dining) // 2
        ambient = 28.0
        assert dining.pixels_centi[mid].max() / 100.0 > ambient + 3.0
        assert kitchen.pixels_centi[mid].max() / 100.0 < ambient + 2.0

    def test_posture_truth_tracks_occupancy(self, layout):
        # conservation of truth: occupied intervals carry the posture, empty
        # ones NotHere, for each sensor separately
        script = ScenarioScript(
            EPOCH, 10, [OccupyRoom(minutes(1), minutes(9), "dining", PostureLabel.SIT)]
        )
        bundle = simulate(layout, script, seed=5)
        dining_truth = bundle.truth.posture_truth["dining/C0/thermal"]
        kitchen_truth = bundle.truth.posture_truth["kitchen/C0/thermal"]
        assert np.all(dining_truth[13:107] == PostureLabel.SIT.value)  # 12 per minute
        assert np.all(dining_truth[:11] == PostureLabel.NOT_HERE.value)
        assert np.all(kitchen_truth == PostureLabel.NOT_HERE.value)


class TestMotionSemantics:
    def test_stationary_sit_never_triggers(self, layout):
        script = ScenarioScript(
            EPOCH, 10, [OccupyRoom(minutes(1), minutes(9), "dining", PostureLabel.SIT)]
        )
        bundle = simulate(layout, script, seed=6)
        series = bundle_readings(bundle, "dining/C0/motion")
        assert np.all(series.values == 0.0)

    def test_walking_through_radius_triggers_contiguously(self, layout):
        # path crosses within the dining sensor radius at 1 m/s
        script = ScenarioScript(
            EPOCH,
            6,
            [
                OccupyRoom(
                    minutes(1),
                    minutes(5),
                    "dining",
                    PostureLabel.WALK,
                    path=((0.5, 5.5), (3.5, 5.5)),
                )
            ],
        )
        bundle = simulate(layout, script, seed=7)
        series = bundle_readings(bundle, "dining/C0/motion")
        hot = series.values > 0.5
        assert hot.sum() >= 120  # moving the whole four minutes
        # contiguity: triggers form one dense run (allow edge samples)
        first, last = np.flatnonzero(hot)[0], np.flatnonzero(hot)[-1]
        assert hot[first : last + 1].mean() > 0.95

    def test_restroom_shuffle_produces_triggers_every_minute(self):
        layout = lite_layout()
        script = ScenarioScript(EPOCH, 12, [restroom_visit(EPOCH, 2, 10)])
        bundle = simulate(layout, script, seed=8)
        series = bundle_readings(bundle, "washroom/B0/motion")
        for minute in range(3, 9):
            lo = np.searchsorted(series.timestamps, minutes(minute))
            hi = np.searchsorted(series.timestamps, minutes(minute + 1))
            assert series.values[lo:hi].sum() >= 3


class TestDoorway:
    def test_leave_return_brackets_with_trigger_clusters(self, layout):
        script = ScenarioScript(
            EPOCH,
            120,
            [
                OccupyRoom(minutes(2), minutes(9), "dining", PostureLabel.SIT),
                LeaveHome(minutes(10)),
                ReturnHome(minutes(100)),
                OccupyRoom(minutes(102), minutes(118), "dining", PostureLabel.SIT),
            ],
        )
        bundle = simulate(layout, script, seed=9)
        assert bundle.truth.away_intervals == [(minutes(10), minutes(100))]
        series = bundle_readings(bundle, "door/B0/motion")
        hot_ts = series.timestamps[series.values > 0.5]
        # exactly two clusters: around the leave and the return
        gaps = np.diff(hot_ts)
        assert (gaps > 10_000).sum() == 1
        assert abs(int(hot_ts[0]) - minutes(10)) <= 2_500
        assert abs(int(hot_ts[-1]) - minutes(100)) <= 2_500
        # truth labels the away stretch
        truth = bundle.truth.activity_truth
        assert np.all(truth[11:99] == ActivityLabel.NOT_AT_HOME.value)


class TestValidation:
    def test_unknown_room_rejected(self, layout):
        script = ScenarioScript(
            EPOCH, 10, [OccupyRoom(minutes(1), minutes(2), "attic", PostureLabel.SIT)]
        )
        with pytest.raises(ConfigError):
            simulate(layout, script, seed=0)

    def test_invalid_layout_rejected(self):
        from hometwin.layout import HomeLayout

        bad = HomeLayout(rooms=[], placements=[])
        with pytest.raises(ConfigError):
            simulate(bad, ScenarioScript(EPOCH, 5, []), seed=0)


class TestEnvironmentChannels:
    def test_lamp_step_visible_within_one_sample(self):
        from hometwin.simulate import LampToggle

        layout = lite_layout()
        script = ScenarioScript(
            EPOCH, 20, [LampToggle(minutes(10), "washroom", True)]
        )
        bundle = simulate(layout, script, seed=10)
        series = bundle_readings(bundle, "washroom/B0/light")
        before = series.values[series.timestamps < minutes(10)][-1]
        after = series.values[series.timestamps >= minutes(10)][0]
        assert after - before > 100.0  # lamp delta 150 minus noise

    def test_noise_burst_raises_level(self):
        from hometwin.simulate import NoiseBurst

        layout = lite_layout()
        script = ScenarioScript(
            EPOCH, 30, [NoiseBurst(minutes(10), minutes(20), "dining", 30.0)]
        )
        bundle = simulate(layout, script, seed=11)
        series = bundle_readings(bundle, "dining/A0/noise")
        inside = series.values[
            (series.timestamps >= minutes(10)) & (series.timestamps < minutes(20))
        ]
        outside = series.values[series.timestamps < minutes(10)]
        assert inside.mean() - outside.mean() == pytest.approx(30.0, abs=2.0)

    def test_values_are_quantized(self):
        layout = lite_layout()
        bundle = simulate(layout, ScenarioScript(EPOCH, 5, []), seed=12)
        for series in bundle.readings:
            assert np.allclose(series.values, np.round(series.values * 100) / 100)


class TestResidualHeat:
    def test_patch_appears_then_decays(self):
        layout = lite_layout()
        script = ScenarioScript(
            EPOCH,
            80,
            [OccupyRoom(minutes(2), minutes(15), "dining", PostureLabel.SIT)],
        )
        bundle = simulate(layout, script, seed=13, config=PipelineConfig(pixel_noise_sigma=0.0))
        block = concat_blocks(bundle_frames(bundle, "dining/C0/thermal"))
        ts = block.timestamps
        celsius = block.pixels_centi / 100.0

        def excess(t):
            i = np.searchsorted(ts, t)
            return celsius[i].max() - celsius[i].min()

        just_after = excess(minutes(15) + 5_000)
        one_tau = excess(minutes(25))  # tau = 10 min
        assert just_after == pytest.approx(0.4 * 7.0, abs=0.4)
        assert one_tau == pytest.approx(just_after / np.e, abs=0.3)
        assert excess(minutes(70)) < 0.1  # five taus later
