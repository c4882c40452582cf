import numpy as np
import pytest

from hometwin.activity.evaluate import evaluate_timeline
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE, ActivityLabel, PostureLabel, parse_epoch
from hometwin.ingestion.store import RecordStore
from hometwin.layout import lite_layout
from hometwin.pipeline import StreamSource, run_pipeline
from hometwin.simulate import OccupyRoom, ScenarioScript, simulate
from hometwin.simulate.scripts import restroom_visit

from conftest import bundle_frames, bundle_readings, concat_blocks, store_source

EPOCH = parse_epoch("2024-03-04T10:00:00")


def minutes(n):
    return EPOCH + n * MS_PER_MINUTE


@pytest.fixture(scope="module")
def short_day(small_models):
    """A 50-minute scenario exercising dining, restroom, and empty stretches."""
    models, _ = small_models
    layout = lite_layout()
    script = ScenarioScript(
        EPOCH,
        50,
        [
            OccupyRoom(minutes(3), minutes(20), "dining", PostureLabel.SIT),
            restroom_visit(EPOCH, 21, 26),
            OccupyRoom(minutes(27), minutes(45), "kitchen", PostureLabel.STAND),
        ],
    )
    bundle = simulate(layout, script, seed=21)
    return layout, bundle, models


class TestStreamSource:
    def test_store_and_bundle_agree(self, short_day):
        layout, bundle, _ = short_day
        source = store_source(layout, bundle)
        sensor = "dining/C0/thermal"
        (block,) = source.frame_blocks(sensor)
        want = concat_blocks(bundle_frames(bundle, sensor))
        assert np.array_equal(block.timestamps, want.timestamps)
        assert np.array_equal(block.pixels_centi, want.pixels_centi)
        assert source.readings("dining/C0/motion") == bundle_readings(bundle, "dining/C0/motion")


class TestRunPipeline:
    def test_timeline_matches_truth(self, short_day):
        layout, bundle, models = short_day
        config = PipelineConfig()
        result = run_pipeline(store_source(layout, bundle), models, config)
        evaluation = evaluate_timeline(result.timeline, bundle.truth)
        assert evaluation.accuracy >= 0.8
        # the dining stretch is recognized
        labels = [e.label for e in result.timeline.entries]
        dining = ActivityLabel.DINING_ROOM_ACTIVITY.value
        assert sum(1 for m in range(4, 19) if labels[m] == dining) >= 13
        # the restroom visit is recognized via triggers
        rest = ActivityLabel.RESTROOM.value
        assert sum(1 for m in range(22, 25) if labels[m] == rest) >= 2

    def test_store_path_gives_identical_timeline(self, short_day, tmp_path):
        # packets delivered in reverse with retransmissions, and the store
        # saved and loaded again, give the same result as in-order delivery
        layout, bundle, models = short_day
        config = PipelineConfig()
        direct = run_pipeline(store_source(layout, bundle), models, config)
        packets = bundle.to_packets()
        store = RecordStore()
        for packet in packets[::-1] + packets[::7]:
            store.append(packet)
        store.save(tmp_path / "day.store")
        via_store = run_pipeline(
            StreamSource(
                layout, store=RecordStore.load(tmp_path / "day.store"),
                start=bundle.start, end=bundle.end,
            ),
            models,
            config,
        )
        assert [repr(e) for e in direct.timeline.entries] == [
            repr(e) for e in via_store.timeline.entries
        ]
        assert repr(direct.thetas) == repr(via_store.thetas)
        for sensor_id, track in direct.tracks.items():
            again = via_store.tracks[sensor_id]
            assert np.array_equal(track.motion_index, again.motion_index)
            assert np.array_equal(track.posture, again.posture)

    def test_posture_track_matches_truth(self, short_day):
        layout, bundle, models = short_day
        config = PipelineConfig()
        result = run_pipeline(store_source(layout, bundle), models, config)
        track = result.tracks["dining/C0/thermal"]
        truth_codes = bundle.truth.posture_truth["dining/C0/thermal"]
        hits = total = 0
        for rec in track.windows:
            if 0 <= rec.interval_index < len(truth_codes):
                hits += rec.posture.value == int(truth_codes[rec.interval_index])
                total += 1
        assert total > 500
        assert hits / total >= 0.85

    def test_theta_override_respected(self, short_day):
        layout, bundle, models = short_day
        config = PipelineConfig().override(theta_active=0.5)
        result = run_pipeline(store_source(layout, bundle), models, config)
        assert all(v == 0.5 for v in result.thetas.values())

    def test_ambient_offset_absorbs_uniform_shift(self, short_day):
        # full-pipeline posture argmax is invariant to a uniform ambient
        # offset below the calibration threshold
        layout, bundle, models = short_day
        config = PipelineConfig()
        base = run_pipeline(store_source(layout, bundle), models, config)

        import copy

        shifted = copy.deepcopy(bundle)
        for block in shifted.frames:
            block.pixels_centi = block.pixels_centi + 100  # +1.0 C everywhere
        for series in shifted.readings:
            if series.kind.value == "temp_humidity" and "temperature" in series.sensor_id:
                series.values = series.values + 1.0
        again = run_pipeline(store_source(layout, shifted), models, config)
        a = [rec.posture for rec in base.tracks["dining/C0/thermal"].windows]
        b = [rec.posture for rec in again.tracks["dining/C0/thermal"].windows]
        agree = sum(1 for x, y in zip(a, b) if x == y) / len(a)
        assert agree >= 0.98
