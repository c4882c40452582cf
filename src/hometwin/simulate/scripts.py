"""Ready-made scenario scripts: the sleep-analysis day, a mixed activity day,
randomized outing days, and the sunlight stress scenario.

All times are scenario-local; layouts come from hometwin.layout.
"""

from __future__ import annotations

import numpy as np

from ..core import MS_PER_MINUTE, PostureLabel, parse_clock, parse_epoch
from ..errors import ConfigError
from ..layout import HomeLayout, default_layout, lite_layout
from .scenario import (
    LampToggle,
    LeaveHome,
    NoiseBurst,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    SunlightPatch,
    VisitorEnter,
    VisitorLeave,
)

DEFAULT_EPOCH = "2024-03-04T18:00:00"

# a small two-point shuffle keeps the washroom motion sensor triggering
RESTROOM_PATH = ((8.6, 0.9), (8.95, 1.15))


def _m(epoch: int, minutes: float) -> int:
    return epoch + int(minutes * MS_PER_MINUTE)


def restroom_visit(epoch: int, start_min: float, end_min: float) -> OccupyRoom:
    return OccupyRoom(
        start=_m(epoch, start_min),
        end=_m(epoch, end_min),
        room_id="washroom",
        posture=PostureLabel.STAND,
        path=RESTROOM_PATH,
    )


def sleep_day() -> tuple[HomeLayout, ScenarioScript]:
    """The 24-hour sleep-analysis day, 18:00 to 18:00.

    Evening seated in the dining room until about 01:00, a toilet visit, a
    6.5 h sleep, another toilet visit, one more hour in bed, then a normal
    morning and afternoon with a loud construction burst 14:00-15:10.
    """
    layout = lite_layout(night_window=(parse_clock("21:00"), parse_clock("09:30")))
    epoch = parse_epoch(DEFAULT_EPOCH)

    def m(minutes: float) -> int:
        return _m(epoch, minutes)

    # the bed has a fixed, known position near the sensor's FOV center
    bed = dict(room_id="bedroom", posture=PostureLabel.LIE_DOWN, position=(2.0, 1.85))
    events = [
        # evening: seated in the dining room until ~01:00 (minute 420)
        OccupyRoom(start=m(5), end=m(420), room_id="dining", posture=PostureLabel.SIT),
        LampToggle(at=m(420.2), room_id="washroom", on=True),
        restroom_visit(epoch, 420.5, 428.5),
        LampToggle(at=m(428.7), room_id="washroom", on=False),
        # first sleep 01:10 - 07:40 (minutes 430..820), four roll-overs
        OccupyRoom(
            start=m(430), end=m(820), turnovers=(m(520), m(610), m(700), m(780)), **bed
        ),
        LampToggle(at=m(820.3), room_id="washroom", on=True),
        restroom_visit(epoch, 820.5, 833.0),
        LampToggle(at=m(833.2), room_id="washroom", on=False),
        # second sleep 07:55 - 08:55 (minutes 835..895); the residual bed heat
        # after the final rise is the classic false lie-down source
        OccupyRoom(start=m(835), end=m(895), **bed),
        # morning: toilet, kitchen, late morning at the dining table
        restroom_visit(epoch, 895.5, 903.0),
        OccupyRoom(start=m(905), end=m(945), room_id="kitchen", posture=PostureLabel.STAND),
        OccupyRoom(start=m(947), end=m(1080), room_id="dining", posture=PostureLabel.SIT),
        # afternoon: living room, construction noise outside 14:00-15:10
        OccupyRoom(start=m(1082), end=m(1320), room_id="living", posture=PostureLabel.SIT),
        NoiseBurst(start=m(1200), end=m(1270), room_id="dining", level=30.0),
        OccupyRoom(start=m(1322), end=m(1360), room_id="kitchen", posture=PostureLabel.STAND),
        OccupyRoom(start=m(1362), end=m(1438), room_id="dining", posture=PostureLabel.SIT),
    ]
    return layout, ScenarioScript(epoch=epoch, duration_min=1440, events=events)


def mixed_day() -> tuple[HomeLayout, ScenarioScript]:
    """A 14-hour evening-to-morning scenario covering all seven activities.

    Uses the reference layout (32x32 living room) so visitor blob counting is
    exercised.
    """
    layout = default_layout()
    epoch = parse_epoch(DEFAULT_EPOCH)

    def m(minutes: float) -> int:
        return _m(epoch, minutes)

    living_sit = dict(room_id="living", posture=PostureLabel.SIT)
    events = [
        # evening meal and hosting
        OccupyRoom(start=m(8), end=m(55), room_id="kitchen", posture=PostureLabel.STAND),
        OccupyRoom(start=m(57), end=m(105), room_id="dining", posture=PostureLabel.SIT),
        VisitorEnter(at=m(110), count=2),
        OccupyRoom(start=m(111), end=m(178), position=(6.15, 4.75), **living_sit),
        VisitorLeave(at=m(170)),
        # an evening stroll 21:00 - 22:05
        LeaveHome(at=m(180)),
        ReturnHome(at=m(245)),
        OccupyRoom(start=m(247), end=m(300), **living_sit),
        restroom_visit(epoch, 302, 308),
        # to bed 23:10, one nighttime toilet visit at 02:30
        OccupyRoom(
            start=m(310),
            end=m(510),
            room_id="bedroom",
            posture=PostureLabel.LIE_DOWN,
            turnovers=(m(380), m(450)),
        ),
        LampToggle(at=m(510.2), room_id="washroom", on=True),
        restroom_visit(epoch, 510.5, 516.0),
        LampToggle(at=m(516.2), room_id="washroom", on=False),
        OccupyRoom(
            start=m(518),
            end=m(780),
            room_id="bedroom",
            posture=PostureLabel.LIE_DOWN,
            turnovers=(m(600), m(700)),
        ),
        # morning 07:00: toilet, breakfast, tidy the kitchen
        restroom_visit(epoch, 781, 788),
        OccupyRoom(start=m(790), end=m(812), room_id="kitchen", posture=PostureLabel.STAND),
        OccupyRoom(start=m(814), end=m(838), room_id="dining", posture=PostureLabel.SIT),
    ]
    return layout, ScenarioScript(epoch=epoch, duration_min=840, events=events)


def outing_day(seed: int, n_outings: int | None = None) -> tuple[HomeLayout, ScenarioScript]:
    """A daytime scenario with 1-3 randomized outings between home sitting."""
    layout = lite_layout()
    epoch = parse_epoch("2024-03-05T08:00:00")
    rng = np.random.default_rng(seed)
    if n_outings is None:
        n_outings = int(rng.integers(1, 4))

    def m(minutes: float) -> int:
        return _m(epoch, minutes)

    events = []
    cursor = 5.0
    duration = 600  # 08:00 - 18:00
    for _ in range(n_outings):
        home_span = float(rng.uniform(40, 90))
        away_span = float(rng.uniform(15, 80))
        leave_at = cursor + home_span + float(rng.uniform(0, 0.9))
        if leave_at + away_span + 40 > duration - 10:
            break
        events.append(
            OccupyRoom(
                start=m(cursor), end=m(leave_at - 1.0), room_id="dining", posture=PostureLabel.SIT
            )
        )
        events.append(LeaveHome(at=m(leave_at)))
        events.append(ReturnHome(at=m(leave_at + away_span)))
        cursor = leave_at + away_span + 2.0
    events.append(
        OccupyRoom(start=m(cursor), end=m(duration - 5), room_id="dining", posture=PostureLabel.SIT)
    )
    return layout, ScenarioScript(epoch=epoch, duration_min=duration, events=events)


def sunlight_scenario() -> tuple[HomeLayout, ScenarioScript]:
    """An empty home with a static warm sunlight patch on the dining sensor,
    present from before warmup through the whole scenario."""
    layout = lite_layout()
    epoch = parse_epoch("2024-03-07T09:00:00")
    patch = SunlightPatch(
        room_id="dining",
        row0=0,
        col0=1,
        row1=2,
        col1=3,
        clock_start=parse_clock("08:00"),
        clock_end=parse_clock("17:00"),
        delta_c=4.0,
    )
    return layout, ScenarioScript(
        epoch=epoch, duration_min=60, events=[], sunlight=patch
    )


BUILTIN_SCENARIOS = {
    "sleep_day": sleep_day,
    "mixed_day": mixed_day,
    "sunlight": sunlight_scenario,
}


def builtin(name: str) -> tuple[HomeLayout, ScenarioScript]:
    try:
        return BUILTIN_SCENARIOS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown builtin scenario {name!r}; have {sorted(BUILTIN_SCENARIOS)}"
        ) from None
