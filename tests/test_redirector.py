import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.errors import StalenessError
from hometwin.ingestion.packets import Redirector


def _one(sensor_id, timestamp, kind, value):
    return ReadingSeries(sensor_id, kind, np.array([timestamp]), np.array([value]))


def test_one_minute_of_cadenced_data_in_one_packet():
    r = Redirector("hub0", 0)
    r.add_series(
        ReadingSeries("bed/C0/motion", SensorKind.MOTION, 1000 * np.arange(60), np.zeros(60))
    )
    ts = np.arange(240, dtype=np.int64) * 250
    r.add_frames(FrameBlock("bed/C0/thermal", 4, ts, np.zeros((240, 4, 4), dtype=np.int16)))
    packets = r.flush(60_000)
    assert len(packets) == 1
    assert packets[0].item_count == 300
    assert packets[0].sequence_number == 0


def test_empty_minutes_still_emit_packets():
    r = Redirector("hub0", 0)
    packets = r.flush(180_000)
    assert [p.sequence_number for p in packets] == [0, 1, 2]
    assert all(p.item_count == 0 for p in packets)
    # sequence keeps counting after a flush
    assert r.flush(240_000)[0].sequence_number == 3


def test_stale_item_rejected():
    r = Redirector("hub0", 60_000)
    with pytest.raises(StalenessError):
        r.add_series(_one("a/B0/motion", 59_999, SensorKind.MOTION, 1.0))
    r.flush(120_000)
    with pytest.raises(StalenessError):
        r.add_series(_one("a/B0/motion", 60_001, SensorKind.MOTION, 1.0))


def test_series_of_unequal_columns_rejected():
    r = Redirector("hub0", 0)
    with pytest.raises(ValueError):
        r.add_series(
            ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([1_000, 2_000]), np.array([1.0]))
        )
    with pytest.raises(ValueError):
        r.add_series(
            ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([[1_000]]), np.array([[1.0]]))
        )
    assert r.flush(60_000)[0].item_count == 0


def test_future_items_stay_buffered():
    r = Redirector("hub0", 0)
    r.add_series(_one("a/A0/light", 90_000, SensorKind.LIGHT, 5.0))
    first, second = r.flush(120_000)
    assert first.item_count == 0
    assert second.item_count == 1


def test_frames_split_across_minutes():
    r = Redirector("hub0", 0)
    ts = np.array([59_900, 60_100], dtype=np.int64)
    r.add_frames(FrameBlock("s/C0/thermal", 4, ts, np.zeros((2, 4, 4), dtype=np.int16)))
    first, second = r.flush(120_000)
    assert [len(b) for b in first.frames] == [1]
    assert [len(b) for b in second.frames] == [1]


def test_misaligned_boundaries_rejected():
    with pytest.raises(ValueError):
        Redirector("h", 1234)
    r = Redirector("h", 0)
    with pytest.raises(ValueError):
        r.flush(45_000)


def test_out_of_order_items_sorted_before_splitting():
    r = Redirector("hub0", 0)
    ts = np.array([70_000, 10_000, 20_000], dtype=np.int64)
    pixels = np.arange(3, dtype=np.int16)[:, None, None] * np.ones((3, 4, 4), dtype=np.int16)
    r.add_frames(FrameBlock("s/C0/thermal", 4, ts, pixels))
    r.add_series(
        ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([90_000, 5_000]), np.array([2.0, 1.0]))
    )
    first, second = r.flush(120_000)
    assert first.frames[0].timestamps.tolist() == [10_000, 20_000]
    assert first.frames[0].pixels_centi[:, 0, 0].tolist() == [1, 2]
    assert second.frames[0].timestamps.tolist() == [70_000]
    assert second.frames[0].pixels_centi[0, 0, 0] == 0
    assert first.readings[0].values.tolist() == [1.0]
    assert second.readings[0].values.tolist() == [2.0]
