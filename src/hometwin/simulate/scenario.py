"""Scenario scripts: a wall-clock origin plus an ordered list of resident,
visitor, and environment events, with per-room ambient profiles.

Event times in JSON are minutes from scenario start (integers) or "HH:MM"
clock strings that roll over midnight as the script progresses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core import (
    MS_PER_DAY,
    MS_PER_MINUTE,
    PostureLabel,
    ms_of_day,
    parse_clock,
    parse_epoch,
)
from ..errors import ConfigError
from ..layout import HomeLayout


@dataclass(frozen=True)
class OccupyRoom:
    start: int
    end: int
    room_id: str
    posture: PostureLabel
    position: tuple[float, float] | None = None  # meters; default near the room's sensor
    path: tuple[tuple[float, float], ...] | None = None  # waypoints for Walk
    orientation_deg: float = 0.0  # lie-down major axis
    turnovers: tuple[int, ...] = ()  # timed in-place body shifts (sleep movement)


@dataclass(frozen=True)
class LeaveHome:
    at: int


@dataclass(frozen=True)
class ReturnHome:
    at: int


@dataclass(frozen=True)
class LampToggle:
    at: int
    room_id: str
    on: bool


@dataclass(frozen=True)
class NoiseBurst:
    start: int
    end: int
    room_id: str
    level: float


@dataclass(frozen=True)
class VisitorEnter:
    at: int
    count: int


@dataclass(frozen=True)
class VisitorLeave:
    at: int


Event = OccupyRoom | LeaveHome | ReturnHome | LampToggle | NoiseBurst | VisitorEnter | VisitorLeave


@dataclass(frozen=True)
class AmbientProfile:
    """Diurnal environment for one room; formulas accept scalar or array times."""

    temp_base_c: float = 28.0
    temp_amp_c: float = 1.5
    temp_peak_h: float = 15.0
    temp_ramp_c_per_h: float = 0.0  # linear drift from scenario start
    humidity_base_rh: float = 70.0
    humidity_amp_rh: float = 6.0
    light_day_peak: float = 400.0
    noise_base: float = 40.0
    noise_amp: float = 8.0

    @staticmethod
    def _hour(ts, tz_offset_min: int):
        return (np.asarray(ts) + tz_offset_min * MS_PER_MINUTE) % MS_PER_DAY / 3_600_000.0

    def temperature(self, ts, scenario_start: int, tz_offset_min: int = 0):
        hour = self._hour(ts, tz_offset_min)
        phase = 2.0 * math.pi * (hour - self.temp_peak_h) / 24.0
        ramp = self.temp_ramp_c_per_h * (np.asarray(ts) - scenario_start) / 3_600_000.0
        return self.temp_base_c + self.temp_amp_c * np.cos(phase) + ramp

    def humidity(self, ts, tz_offset_min: int = 0):
        hour = self._hour(ts, tz_offset_min)
        phase = 2.0 * math.pi * (hour - 6.0) / 24.0  # most humid near dawn
        return self.humidity_base_rh + self.humidity_amp_rh * np.cos(phase)

    def daylight(self, ts, tz_offset_min: int = 0):
        """0..1 bump between 07:00 and 19:00."""
        hour = self._hour(ts, tz_offset_min)
        bump = np.sin(math.pi * (hour - 7.0) / 12.0) ** 2
        return np.where((hour >= 7.0) & (hour <= 19.0), bump, 0.0)

    def light(self, ts, tz_offset_min: int = 0):
        return self.light_day_peak * self.daylight(ts, tz_offset_min)

    def noise(self, ts, tz_offset_min: int = 0):
        # afternoon/early-evening hump
        hour = self._hour(ts, tz_offset_min)
        hump = np.exp(-(((hour - 16.0) / 4.0) ** 2))
        return self.noise_base + self.noise_amp * hump


@dataclass(frozen=True)
class SunlightPatch:
    """A static warm rectangle on one thermal sensor's grid during a clock window."""

    room_id: str
    row0: int
    col0: int
    row1: int  # exclusive
    col1: int  # exclusive
    clock_start: int  # ms past midnight
    clock_end: int
    delta_c: float = 4.0


@dataclass
class ScenarioScript:
    epoch: int  # ms, wall-clock origin of the scenario
    duration_min: int
    events: list[Event] = field(default_factory=list)
    ambient: dict[str, AmbientProfile] = field(default_factory=dict)
    sunlight: SunlightPatch | None = None

    @property
    def start(self) -> int:
        return self.epoch

    @property
    def end(self) -> int:
        return self.epoch + self.duration_min * MS_PER_MINUTE

    def profile(self, room_id: str) -> AmbientProfile:
        return self.ambient.get(room_id, _DEFAULT_PROFILE)

    def occupy_events(self) -> list[OccupyRoom]:
        return [e for e in self.events if isinstance(e, OccupyRoom)]

    def away_intervals(self) -> list[tuple[int, int]]:
        """Away spans from strictly alternating LeaveHome/ReturnHome events."""
        intervals = []
        open_leave: int | None = None
        for e in self.events:
            if isinstance(e, LeaveHome):
                if open_leave is not None:
                    raise ConfigError("LeaveHome while already away")
                open_leave = e.at
            elif isinstance(e, ReturnHome):
                if open_leave is None:
                    raise ConfigError("ReturnHome without a preceding LeaveHome")
                intervals.append((open_leave, e.at))
                open_leave = None
        if open_leave is not None:
            intervals.append((open_leave, self.end))
        return intervals

    def visitor_intervals(self) -> list[tuple[int, int, int]]:
        """(start, end, count) spans from VisitorEnter/VisitorLeave events."""
        spans = []
        open_at: int | None = None
        count = 0
        for e in self.events:
            if isinstance(e, VisitorEnter):
                if open_at is not None:
                    raise ConfigError("VisitorEnter while visitors already present")
                open_at, count = e.at, e.count
            elif isinstance(e, VisitorLeave):
                if open_at is None:
                    raise ConfigError("VisitorLeave with no visitors present")
                spans.append((open_at, e.at, count))
                open_at = None
        if open_at is not None:
            spans.append((open_at, self.end, count))
        return spans


_DEFAULT_PROFILE = AmbientProfile()


def validate_scenario(script: ScenarioScript, layout: HomeLayout) -> None:
    """Raise ConfigError on any script invariant violation."""
    if script.duration_min < 0:
        raise ConfigError(f"scenario duration {script.duration_min} min is negative")
    room_ids = {r.room_id for r in layout.rooms}
    occupies = script.occupy_events()
    for e in occupies:
        if e.room_id not in room_ids:
            raise ConfigError(f"scenario references unknown room {e.room_id!r}")
        if e.end <= e.start:
            raise ConfigError(f"occupy event in {e.room_id!r} has end <= start")
        # the layout's bounding rectangle, not the event's room: walking paths cross rooms
        x0, y0, _, _ = np.min([r.bounds for r in layout.rooms], axis=0)
        _, _, x1, y1 = np.max([r.bounds for r in layout.rooms], axis=0)
        for x, y in ([e.position] if e.position is not None else []) + list(e.path or ()):
            if not (x0 <= x <= x1 and y0 <= y <= y1):  # NaN fails too
                raise ConfigError(
                    f"occupy event in {e.room_id!r} at minute {(e.start - script.epoch) / MS_PER_MINUTE:g}: "
                    f"point ({x!r}, {y!r}) lies outside the layout's bounds ({x0}, {y0}, {x1}, {y1})"
                )
    for a, b in zip(occupies, occupies[1:]):
        if b.start < a.end:
            raise ConfigError(
                f"overlapping occupy events: {a.room_id!r} and {b.room_id!r}"
            )
    away = script.away_intervals()  # raises on bad alternation
    for lo, hi in away:
        for e in occupies:
            if e.start < hi and lo < e.end:
                raise ConfigError("occupy event overlaps an away interval")
    script.visitor_intervals()
    for e in script.events:
        if isinstance(e, (LampToggle, NoiseBurst)) and e.room_id not in room_ids:
            raise ConfigError(f"scenario references unknown room {e.room_id!r}")


# ---------------------------------------------------------------------------
# JSON form


class _TimeParser:
    """Minutes-from-start integers, or HH:MM clock strings with midnight rollover."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.cursor = epoch

    def resolve(self, value) -> int:
        if isinstance(value, (int, float)):
            ts = self.epoch + int(value * MS_PER_MINUTE)
        else:
            clock = parse_clock(str(value))
            day_base = self.cursor - ms_of_day(self.cursor)
            ts = day_base + clock
            while ts < self.cursor:
                ts += MS_PER_DAY
        self.cursor = ts
        return ts


_POSTURES = {p.name.lower(): p for p in PostureLabel}


def _text(item: dict, key: str) -> str:
    value = item[key]
    if not isinstance(value, str):
        raise ConfigError(f"bad scenario config: {key!r} must be a string, got {value!r}")
    return value


def _numbers(value, what: str, count: int | None = None) -> tuple:
    """A JSON list of numbers (of `count` of them, when given) as a tuple."""
    numbers = isinstance(value, (list, tuple)) and all(isinstance(v, (int, float)) for v in value)
    if not numbers or count not in (None, len(value)):
        raise ConfigError(f"bad scenario config: {what} {value!r} is not {count or 'a list of'} numbers")
    return tuple(value)


def scenario_from_dict(data: dict) -> ScenarioScript:
    try:
        epoch = parse_epoch(data["epoch"])
        clock = _TimeParser(epoch)
        events: list[Event] = []
        for raw in data.get("events", []):
            kind = raw["kind"]
            if kind == "occupy":
                start = clock.resolve(raw["start"])
                end = clock.resolve(raw["end"])
                events.append(
                    OccupyRoom(
                        start=start,
                        end=end,
                        room_id=_text(raw, "room"),
                        posture=_POSTURES[_text(raw, "posture").lower()],
                        position=_numbers(raw["position"], "position", 2) if "position" in raw else None,
                        # an empty path is no path, as if the key were left out
                        path=tuple(_numbers(p, "waypoint", 2) for p in raw.get("path", ())) or None,
                        orientation_deg=float(raw.get("orientation_deg", 0.0)),
                        turnovers=tuple(
                            start + int(m * MS_PER_MINUTE)
                            for m in _numbers(raw.get("turnovers", []), "turnovers")
                        ),
                    )
                )
            elif kind == "leave_home":
                events.append(LeaveHome(clock.resolve(raw["at"])))
            elif kind == "return_home":
                events.append(ReturnHome(clock.resolve(raw["at"])))
            elif kind == "lamp":
                events.append(
                    LampToggle(clock.resolve(raw["at"]), _text(raw, "room"), bool(raw["on"]))
                )
            elif kind == "noise_burst":
                events.append(
                    NoiseBurst(
                        clock.resolve(raw["start"]),
                        clock.resolve(raw["end"]),
                        _text(raw, "room"),
                        float(raw["level"]),
                    )
                )
            elif kind == "visitor_enter":
                events.append(VisitorEnter(clock.resolve(raw["at"]), int(raw["count"])))
            elif kind == "visitor_leave":
                events.append(VisitorLeave(clock.resolve(raw["at"])))
            else:
                raise ConfigError(f"unknown scenario event kind {kind!r}")
        ambient = data.get("ambient", {})
        if not isinstance(ambient, dict) or not all(isinstance(p, dict) for p in ambient.values()):
            raise ConfigError(f"bad scenario config: 'ambient' {ambient!r} is not an object of objects")
        for room, profile in ambient.items():
            _numbers(list(profile.values()), f"ambient {room!r} values")
        ambient = {room: AmbientProfile(**profile) for room, profile in ambient.items()}
        sun = None
        if "sunlight_patch" in data:
            s = data["sunlight_patch"]
            sun = SunlightPatch(
                room_id=_text(s, "room"),
                row0=int(s["row0"]),
                col0=int(s["col0"]),
                row1=int(s["row1"]),
                col1=int(s["col1"]),
                clock_start=parse_clock(_text(s, "clock_start")),
                clock_end=parse_clock(_text(s, "clock_end")),
                delta_c=float(s.get("delta_c", 4.0)),
            )
        return ScenarioScript(
            epoch=epoch,
            duration_min=int(data["duration_min"]),
            events=events,
            ambient=ambient,
            sunlight=sun,
        )
    except ConfigError:
        raise
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad scenario config: {exc!r}") from exc


def load_scenario(path: str | Path) -> ScenarioScript:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)
