"""Home layout schema: rooms, sensor module placements, and the sensor registry.

A placement expands into concrete logical sensors with deterministic ids of
the form ``<room>/<module><ordinal>/<channel>``.  Module composition is fixed
per type:

=======  ==========================================================
Module   Sensors
=======  ==========================================================
A        temperature+humidity, light, motion, noise
B        motion, light                     (doorway / washroom entry-exit)
C        motion, temperature+humidity, 4x4 thermal array
D        32x32 thermal array only          (high data volume, one per home)
=======  ==========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import SensorKind, parse_clock
from .errors import ConfigError, UnknownSensorError


class RoomRole(Enum):
    BEDROOM = "bedroom"
    KITCHEN = "kitchen"
    DINING_ROOM = "dining_room"
    LIVING_ROOM = "living_room"
    RESTROOM = "restroom"
    DOORWAY = "doorway"


class ModuleType(Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"


# channel name -> sensor kind, per module type
MODULE_CHANNELS: dict[ModuleType, dict[str, SensorKind]] = {
    ModuleType.A: {
        "temperature": SensorKind.TEMP_HUMIDITY,
        "humidity": SensorKind.TEMP_HUMIDITY,
        "light": SensorKind.LIGHT,
        "motion": SensorKind.MOTION,
        "noise": SensorKind.NOISE,
    },
    ModuleType.B: {
        "motion": SensorKind.MOTION,
        "light": SensorKind.LIGHT,
    },
    ModuleType.C: {
        "motion": SensorKind.MOTION,
        "temperature": SensorKind.TEMP_HUMIDITY,
        "humidity": SensorKind.TEMP_HUMIDITY,
        "thermal": SensorKind.THERMAL4,
    },
    ModuleType.D: {
        "thermal": SensorKind.THERMAL32,
    },
}


@dataclass(frozen=True)
class Room:
    room_id: str
    name: str
    role: RoomRole
    # rectangle in meters: (x0, y0, x1, y1)
    bounds: tuple[float, float, float, float]

    def contains(self, x: float, y: float) -> bool:
        x0, y0, x1, y1 = self.bounds
        return x0 <= x <= x1 and y0 <= y <= y1

    def center(self) -> tuple[float, float]:
        x0, y0, x1, y1 = self.bounds
        return ((x0 + x1) / 2.0, (y0 + y1) / 2.0)


@dataclass(frozen=True)
class ModulePlacement:
    module_type: ModuleType
    room_id: str
    position: tuple[float, float]  # meters, inside the room rectangle
    fov_half_width: float = 1.0  # thermal: square field of view half-width
    sensing_radius: float = 2.5  # motion: detection radius


@dataclass(frozen=True)
class SensorSpec:
    """Registry entry for one logical sensor produced by a placement."""

    sensor_id: str
    kind: SensorKind
    channel: str
    room_id: str
    placement_index: int


@dataclass
class HomeLayout:
    rooms: list[Room]
    placements: list[ModulePlacement]
    night_window: tuple[int, int] = (parse_clock("21:00"), parse_clock("08:00"))
    tz_offset_min: int = 0

    def __post_init__(self):
        self._rooms_by_id = {r.room_id: r for r in self.rooms}
        self._registry: dict[str, SensorSpec] = {}
        counters: dict[tuple[str, ModuleType], int] = {}
        for idx, placement in enumerate(self.placements):
            key = (placement.room_id, placement.module_type)
            ordinal = counters.get(key, 0)
            counters[key] = ordinal + 1
            prefix = f"{placement.room_id}/{placement.module_type.value}{ordinal}"
            for channel, kind in MODULE_CHANNELS[placement.module_type].items():
                sensor_id = f"{prefix}/{channel}"
                self._registry[sensor_id] = SensorSpec(
                    sensor_id, kind, channel, placement.room_id, idx
                )

    def room(self, room_id: str) -> Room:
        try:
            return self._rooms_by_id[room_id]
        except KeyError:
            raise ConfigError(f"unknown room {room_id!r}") from None

    def rooms_with_role(self, role: RoomRole) -> list[Room]:
        return [r for r in self.rooms if r.role == role]

    def sensors(self, kind: SensorKind | None = None, room_id: str | None = None) -> list[SensorSpec]:
        specs = list(self._registry.values())
        if kind is not None:
            specs = [s for s in specs if s.kind == kind]
        if room_id is not None:
            specs = [s for s in specs if s.room_id == room_id]
        return specs

    def sensor(self, sensor_id: str) -> SensorSpec:
        try:
            return self._registry[sensor_id]
        except KeyError:
            raise UnknownSensorError(f"sensor {sensor_id!r} is not registered") from None

    def placement_of(self, sensor_id: str) -> ModulePlacement:
        return self.placements[self.sensor(sensor_id).placement_index]

    def thermal_sensors(self) -> list[SensorSpec]:
        return [s for s in self._registry.values() if s.kind.is_thermal]


def _rects_overlap(a, b) -> bool:
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    return ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1


def validate_layout(layout: HomeLayout) -> list[str]:
    """Check every layout invariant; returns one message per violation.

    Violations are data, not failures: an empty list means the layout is valid.
    """
    violations: list[str] = []

    seen_ids: set[str] = set()
    for room in layout.rooms:
        if room.room_id in seen_ids:
            violations.append(f"duplicate room_id {room.room_id!r}")
        seen_ids.add(room.room_id)
        x0, y0, x1, y1 = room.bounds
        if x0 >= x1 or y0 >= y1:
            violations.append(f"room {room.room_id!r} has a degenerate rectangle")

    for i, a in enumerate(layout.rooms):
        for b in layout.rooms[i + 1 :]:
            if _rects_overlap(a.bounds, b.bounds):
                violations.append(
                    f"rooms {a.room_id!r} and {b.room_id!r} overlap"
                )

    roles = [r.role for r in layout.rooms]
    if roles.count(RoomRole.DOORWAY) == 0:
        violations.append("missing Doorway room")
    elif roles.count(RoomRole.DOORWAY) > 1:
        violations.append("more than one Doorway room")
    if RoomRole.BEDROOM not in roles:
        violations.append("missing Bedroom room")
    if RoomRole.RESTROOM not in roles:
        violations.append("missing Restroom room")

    d_count = 0
    for idx, p in enumerate(layout.placements):
        if p.module_type is ModuleType.D:
            d_count += 1
        room = next((r for r in layout.rooms if r.room_id == p.room_id), None)
        if room is None:
            violations.append(f"placement {idx} references unknown room {p.room_id!r}")
        elif not room.contains(*p.position):
            violations.append(
                f"placement {idx} position {p.position} lies outside room {p.room_id!r}"
            )
    if d_count > 1:
        violations.append("duplicate Module D (at most one per home)")

    return violations


def default_layout() -> HomeLayout:
    """The reference 1-bedroom flat: B at door and washroom, C in bedroom,
    dining and kitchen, D plus A in the living room."""
    rooms = [
        Room("bedroom", "Bedroom", RoomRole.BEDROOM, (0.0, 0.0, 4.0, 3.5)),
        Room("kitchen", "Kitchen", RoomRole.KITCHEN, (4.5, 0.0, 7.5, 3.0)),
        Room("dining", "Dining room", RoomRole.DINING_ROOM, (0.0, 4.0, 4.0, 7.0)),
        Room("living", "Living room", RoomRole.LIVING_ROOM, (4.5, 3.5, 9.0, 7.0)),
        Room("washroom", "Washroom", RoomRole.RESTROOM, (8.0, 0.0, 9.5, 2.0)),
        Room("door", "Main door", RoomRole.DOORWAY, (9.5, 3.0, 10.5, 4.5)),
    ]
    placements = [
        ModulePlacement(ModuleType.B, "door", (10.0, 3.75), sensing_radius=1.5),
        ModulePlacement(ModuleType.B, "washroom", (8.75, 1.0), sensing_radius=1.5),
        ModulePlacement(ModuleType.C, "bedroom", (2.0, 1.75)),
        ModulePlacement(ModuleType.C, "dining", (2.0, 5.5)),
        ModulePlacement(ModuleType.C, "kitchen", (6.0, 1.5)),
        ModulePlacement(ModuleType.D, "living", (6.75, 5.25), fov_half_width=2.0),
        ModulePlacement(ModuleType.A, "living", (6.75, 5.25)),
    ]
    return HomeLayout(rooms, placements)


def lite_layout(night_window: tuple[int, int] | None = None) -> HomeLayout:
    """A low-volume variant: all-4x4 thermals plus a Module A in the dining
    room for environment channels.  Suited for day-long scenarios."""
    rooms = [
        Room("bedroom", "Bedroom", RoomRole.BEDROOM, (0.0, 0.0, 4.0, 3.5)),
        Room("kitchen", "Kitchen", RoomRole.KITCHEN, (4.5, 0.0, 7.5, 3.0)),
        Room("dining", "Dining room", RoomRole.DINING_ROOM, (0.0, 4.0, 4.0, 7.0)),
        Room("living", "Living room", RoomRole.LIVING_ROOM, (4.5, 3.5, 9.0, 7.0)),
        Room("washroom", "Washroom", RoomRole.RESTROOM, (8.0, 0.0, 9.5, 2.0)),
        Room("door", "Main door", RoomRole.DOORWAY, (9.5, 3.0, 10.5, 4.5)),
    ]
    placements = [
        ModulePlacement(ModuleType.B, "door", (10.0, 3.75), sensing_radius=1.5),
        ModulePlacement(ModuleType.B, "washroom", (8.75, 1.0), sensing_radius=1.5),
        ModulePlacement(ModuleType.C, "bedroom", (2.0, 1.75)),
        ModulePlacement(ModuleType.C, "dining", (2.0, 5.5)),
        ModulePlacement(ModuleType.C, "kitchen", (6.0, 1.5)),
        ModulePlacement(ModuleType.C, "living", (6.75, 5.25)),
        ModulePlacement(ModuleType.A, "dining", (2.0, 5.5)),
    ]
    kwargs = {}
    if night_window is not None:
        kwargs["night_window"] = night_window
    return HomeLayout(rooms, placements, **kwargs)


# ---------------------------------------------------------------------------
# JSON schema


def _floats(values, count: int, what: str) -> tuple[float, ...]:
    out = tuple(float(v) for v in values)
    if len(out) != count:
        raise ValueError(f"{what} must be {count} numbers, got {values!r}")
    return out


def layout_from_dict(data: dict) -> HomeLayout:
    try:
        rooms = [
            Room(
                room_id=r["room_id"],
                name=r.get("name", r["room_id"]),
                role=RoomRole(r["role"]),
                bounds=_floats(r["bounds"], 4, "bounds"),
            )
            for r in data["rooms"]
        ]
        placements = [
            ModulePlacement(
                module_type=ModuleType(p["module_type"]),
                room_id=p["room_id"],
                position=_floats(p["position"], 2, "position"),
                fov_half_width=float(p.get("fov_half_width", 1.0)),
                sensing_radius=float(p.get("sensing_radius", 2.5)),
            )
            for p in data["placements"]
        ]
        night = data.get("night_window", ["21:00", "08:00"])
        if not (
            isinstance(night, (list, tuple))
            and len(night) == 2
            and all(isinstance(t, str) for t in night)
        ):
            raise ConfigError(
                f"bad layout config: night_window must be two clock times [start, end], "
                f"got {night!r}"
            )
        return HomeLayout(
            rooms,
            placements,
            night_window=(parse_clock(night[0]), parse_clock(night[1])),
            tz_offset_min=int(data.get("tz_offset_min", 0)),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad layout config: {exc}") from exc


def load_layout(path: str | Path) -> HomeLayout:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"layout {path} is not valid JSON: {exc}") from exc
    return layout_from_dict(data)
