from pathlib import Path

import pytest

from hometwin.core import SensorKind
from hometwin.errors import ConfigError, UnknownSensorError
from hometwin.layout import (
    HomeLayout,
    ModulePlacement,
    ModuleType,
    Room,
    RoomRole,
    default_layout,
    layout_from_dict,
    lite_layout,
    load_layout,
    validate_layout,
)
from hometwin.simulate.scripts import sleep_day

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_default_layout_is_valid():
    assert validate_layout(default_layout()) == []
    assert validate_layout(lite_layout()) == []


def test_empty_layout_reports_missing_rooms():
    violations = validate_layout(HomeLayout(rooms=[], placements=[]))
    joined = " ".join(violations)
    assert "Doorway" in joined
    assert "Bedroom" in joined
    assert "Restroom" in joined


def test_duplicate_module_d_reported():
    layout = default_layout()
    extra = ModulePlacement(ModuleType.D, "dining", (2.0, 5.5))
    bad = HomeLayout(layout.rooms, layout.placements + [extra])
    assert any("Module D" in v for v in validate_layout(bad))


def test_overlapping_rooms_reported():
    rooms = [
        Room("a", "A", RoomRole.BEDROOM, (0, 0, 4, 4)),
        Room("b", "B", RoomRole.RESTROOM, (3, 3, 6, 6)),
        Room("c", "C", RoomRole.DOORWAY, (7, 0, 8, 1)),
    ]
    assert any("overlap" in v for v in validate_layout(HomeLayout(rooms, [])))


def test_placement_outside_room_reported():
    layout = default_layout()
    bad_placement = ModulePlacement(ModuleType.C, "bedroom", (99.0, 99.0))
    bad = HomeLayout(layout.rooms, layout.placements + [bad_placement])
    assert any("outside" in v for v in validate_layout(bad))


def test_module_composition():
    layout = default_layout()
    # Module A: five logical channels (temp+humidity share the physical unit)
    living_a = [s for s in layout.sensors(room_id="living") if "/A0/" in s.sensor_id]
    assert {s.channel for s in living_a} == {"temperature", "humidity", "light", "motion", "noise"}
    # Module B: motion + light
    door_b = [s for s in layout.sensors(room_id="door")]
    assert {s.channel for s in door_b} == {"motion", "light"}
    # Module C: motion + temp/humidity + 4x4 thermal
    bed_c = [s for s in layout.sensors(room_id="bedroom")]
    assert {s.channel for s in bed_c} == {"motion", "temperature", "humidity", "thermal"}
    assert layout.sensor("bedroom/C0/thermal").kind is SensorKind.THERMAL4
    # Module D: 32x32 thermal only
    living_d = [s for s in layout.sensors(room_id="living") if "/D0/" in s.sensor_id]
    assert [s.kind for s in living_d] == [SensorKind.THERMAL32]


def test_room_of_sensor_lookup(layout):
    assert layout.sensor("bedroom/C0/thermal").room_id == "bedroom"
    assert layout.sensor("door/B0/motion").room_id == "door"
    with pytest.raises(UnknownSensorError):
        layout.sensor("x99")


def test_valid_layout_every_sensor_resolves(layout):
    assert validate_layout(layout) == []
    for spec in layout.sensors():
        assert layout.sensor(spec.sensor_id).room_id == spec.room_id


def test_committed_layout_configs_load_as_builtins():
    for name, layout in (("layout_1bed", default_layout()), ("layout_sleep_day", sleep_day()[0])):
        loaded = load_layout(CONFIGS / f"{name}.json")
        assert loaded == layout
        assert [s.sensor_id for s in loaded.sensors()] == [s.sensor_id for s in layout.sensors()]


def test_layout_from_dict_rejects_garbage():
    with pytest.raises(ConfigError):
        layout_from_dict({"rooms": [{"room_id": "a"}], "placements": []})
