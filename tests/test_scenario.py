from pathlib import Path

import pytest

from hometwin.core import MS_PER_MINUTE, PostureLabel, parse_epoch
from hometwin.errors import ConfigError
from hometwin.layout import default_layout
from hometwin.simulate.scenario import (
    AmbientProfile,
    LeaveHome,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    VisitorEnter,
    VisitorLeave,
    load_scenario,
    scenario_from_dict,
    validate_scenario,
)
from hometwin.simulate.scripts import mixed_day, outing_day, sleep_day

EPOCH = parse_epoch("2024-03-04T18:00:00")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def occupy(start_min, end_min, room="dining", posture=PostureLabel.SIT):
    return OccupyRoom(
        start=EPOCH + start_min * MS_PER_MINUTE,
        end=EPOCH + end_min * MS_PER_MINUTE,
        room_id=room,
        posture=posture,
    )


def test_valid_script_passes():
    script = ScenarioScript(EPOCH, 120, [occupy(5, 50), occupy(55, 100)])
    validate_scenario(script, default_layout())


def test_unknown_room_rejected():
    script = ScenarioScript(EPOCH, 60, [occupy(5, 10, room="garage")])
    with pytest.raises(ConfigError, match="garage"):
        validate_scenario(script, default_layout())


def test_overlapping_occupancy_rejected():
    script = ScenarioScript(EPOCH, 60, [occupy(5, 30), occupy(25, 40, room="kitchen")])
    with pytest.raises(ConfigError, match="overlap"):
        validate_scenario(script, default_layout())


def test_leave_return_must_alternate():
    script = ScenarioScript(
        EPOCH,
        120,
        [LeaveHome(EPOCH + 10 * MS_PER_MINUTE), LeaveHome(EPOCH + 20 * MS_PER_MINUTE)],
    )
    with pytest.raises(ConfigError):
        validate_scenario(script, default_layout())
    with pytest.raises(ConfigError):
        validate_scenario(
            ScenarioScript(EPOCH, 120, [ReturnHome(EPOCH + 10 * MS_PER_MINUTE)]),
            default_layout(),
        )


def test_occupancy_during_away_rejected():
    script = ScenarioScript(
        EPOCH,
        120,
        [
            LeaveHome(EPOCH + 10 * MS_PER_MINUTE),
            occupy(20, 30),
            ReturnHome(EPOCH + 40 * MS_PER_MINUTE),
        ],
    )
    with pytest.raises(ConfigError):
        validate_scenario(script, default_layout())


def test_visitor_intervals():
    script = ScenarioScript(
        EPOCH,
        120,
        [VisitorEnter(EPOCH + 10 * MS_PER_MINUTE, 2), VisitorLeave(EPOCH + 50 * MS_PER_MINUTE)],
    )
    assert script.visitor_intervals() == [
        (EPOCH + 10 * MS_PER_MINUTE, EPOCH + 50 * MS_PER_MINUTE, 2)
    ]


def test_committed_scenario_configs_load_as_builtins():
    for name, builder in (("scenario_sleep_day", sleep_day), ("scenario_mixed_day", mixed_day)):
        layout, script = builder()
        loaded = load_scenario(CONFIGS / f"{name}.json")
        assert loaded == script
        validate_scenario(loaded, layout)


def test_clock_times_roll_past_midnight():
    script = scenario_from_dict(
        {
            "epoch": "2024-03-04T18:00:00",
            "duration_min": 1440,
            "events": [
                {"kind": "occupy", "start": "18:05", "end": "23:30", "room": "dining", "posture": "sit"},
                {"kind": "occupy", "start": "01:10", "end": "07:40", "room": "bedroom", "posture": "lie_down"},
            ],
        }
    )
    first, second = script.events
    assert second.start - first.end == 100 * MS_PER_MINUTE  # 23:30 -> 01:10 next day


def test_ambient_profile_shapes():
    profile = AmbientProfile()
    noon = parse_epoch("2024-03-04T12:00:00")
    midnight = parse_epoch("2024-03-04T00:00:00")
    assert profile.daylight(noon) > 0.9
    assert profile.daylight(midnight) == 0.0
    assert profile.temperature(noon, noon) < profile.temperature(
        parse_epoch("2024-03-04T15:00:00"), noon
    )


def test_builtin_scripts_validate():
    for builder in (sleep_day, mixed_day):
        layout, script = builder()
        validate_scenario(script, layout)
    for seed in range(5):
        layout, script = outing_day(seed)
        validate_scenario(script, layout)
        assert 1 <= len(script.away_intervals()) <= 3
