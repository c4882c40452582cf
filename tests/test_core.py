import numpy as np
import pytest

from hometwin.core import (
    ActivityLabel,
    FrameBlock,
    PostureLabel,
    ReadingSeries,
    SensorKind,
    in_clock_window,
    ms_of_day,
    parse_clock,
    parse_epoch,
    pixels_to_celsius,
    quantize_pixels,
)
from hometwin.errors import DimensionError
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.wire import decode_packet, encode_packet

from conftest import concat_blocks


def test_label_enums_are_closed():
    assert len(PostureLabel) == 5
    assert len(ActivityLabel) == 7
    assert len(SensorKind) == 6
    for label in list(PostureLabel) + list(ActivityLabel):
        assert type(label)[label.name] is label  # name round-trip


def test_thermal_kinds_have_resolutions():
    assert SensorKind.THERMAL4.resolution == 4
    assert SensorKind.THERMAL32.resolution == 32
    with pytest.raises(ValueError):
        SensorKind.LIGHT.resolution


def test_parse_clock_and_format():
    assert parse_clock("00:00") == 0
    assert parse_clock("21:00") == 21 * 3_600_000
    assert parse_clock("08:30:15") == (8 * 3600 + 30 * 60 + 15) * 1000
    with pytest.raises(ValueError):
        parse_clock("25:00")
    with pytest.raises(ValueError):
        parse_clock("noon")


def test_epoch_parse_is_naive_local():
    epoch = parse_epoch("2024-03-04T18:00:00")
    assert ms_of_day(epoch) == parse_clock("18:00")


def test_night_window_wraps_midnight():
    night = (parse_clock("21:00"), parse_clock("08:00"))
    day = parse_epoch("2024-03-04T00:00:00")
    assert in_clock_window(day + parse_clock("23:00"), *night)
    assert in_clock_window(day + parse_clock("03:00"), *night)
    assert not in_clock_window(day + parse_clock("12:00"), *night)
    assert not in_clock_window(day + parse_clock("08:00"), *night)  # end exclusive
    # timezone offset shifts the clock
    assert in_clock_window(day + parse_clock("12:00"), *night, tz_offset_min=600)
    # an int64 array gives each timestamp's answer
    ts = day + np.arange(0, 2 * 86_400_000, 250_007, dtype=np.int64)
    for window in (night, (parse_clock("08:00"), parse_clock("21:00"))):
        mask = in_clock_window(ts, *window, tz_offset_min=-90)
        assert mask.tolist() == [in_clock_window(int(t), *window, -90) for t in ts]


def _reading_packet(sensor_id, kind, value):
    series = ReadingSeries(sensor_id, kind, np.array([0]), np.array([value]))
    return HubPacket("h", 0, 0, 60_000, [series])


def test_motion_reading_values_are_binary():
    _reading_packet("a/B0/motion", SensorKind.MOTION, 1.0)
    with pytest.raises(ValueError):
        _reading_packet("a/B0/motion", SensorKind.MOTION, 0.5)


def test_thermal_kind_rejected_in_reading():
    with pytest.raises(ValueError):
        _reading_packet("x", SensorKind.THERMAL4, 1.0)


def test_quantize_round_half_even_grid():
    # the wire carries scalars as int32 centi-units
    values = np.array([1.005, 27.3349, -3.456])
    series = ReadingSeries("a/A0/light", SensorKind.LIGHT, np.array([0, 1, 2]), values)
    packet = decode_packet(encode_packet(HubPacket("h", 0, 0, 60_000, [series])))
    got = packet.readings[0].values
    assert got[0] == pytest.approx(1.0)  # banker's rounding at the grid edge
    assert got[1] == pytest.approx(27.33)
    assert got[2] == pytest.approx(-3.46)


def test_pixel_quantization_round_trips_exactly():
    rng = np.random.default_rng(0)
    celsius = rng.uniform(10.0, 45.0, size=(30, 4, 4))
    centi = quantize_pixels(celsius)
    back = pixels_to_celsius(centi)
    assert np.array_equal(quantize_pixels(back), centi)


def test_frame_block_shape_checked():
    ts = np.arange(3, dtype=np.int64)
    with pytest.raises(DimensionError):
        FrameBlock("s", 4, ts, np.zeros((3, 4, 5), dtype=np.int16))
    with pytest.raises(DimensionError):
        FrameBlock("s", 4, ts, np.zeros((2, 4, 4), dtype=np.int16))


def test_frame_block_slicing():
    ts = np.arange(0, 2500, 250, dtype=np.int64)
    block = FrameBlock("s", 4, ts, np.zeros((10, 4, 4), dtype=np.int16))
    assert len(block.slice(0, 1000)) == 4
    assert len(block.slice(250, 250)) == 0
    assert block.slice(500, 750).timestamps.tolist() == [500]
    whole = concat_blocks([block.slice(0, 1000), block.slice(1000, 9999)])
    assert whole == block
