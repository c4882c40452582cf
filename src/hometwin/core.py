"""Shared vocabulary: time conventions, sensor kinds, labels, and the two columnar
data forms (`ReadingSeries` for scalar readings, `FrameBlock` for thermal frames).

Timestamps are integer milliseconds on a naive local clock (a configurable
wall-clock origin plus a timezone offset make clock-of-day rules such as
"nighttime" testable without real timezones).

Thermal pixels are stored as int16 centi-degrees Celsius everywhere.  That
single canonical representation is what makes the wire format round-trip
bit-exact and keeps a full day of frames affordable in memory; float views
are derived at the edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from enum import Enum

import numpy as np

from .errors import DimensionError

MS_PER_MINUTE = 60_000
MS_PER_HOUR = 3_600_000
MS_PER_DAY = 86_400_000

# Nominal thermal frame period: 20 frames make one 5-second window.
FRAME_PERIOD_MS = 250
WINDOW_FRAMES = 20
WINDOW_MS = FRAME_PERIOD_MS * WINDOW_FRAMES

TEMP_MIN_C = 10.0
TEMP_MAX_C = 45.0


def parse_epoch(text: str) -> int:
    """Parse an ISO date-time as naive local milliseconds since 1970-01-01."""
    dt = datetime.fromisoformat(text)
    return int((dt - datetime(1970, 1, 1)).total_seconds() * 1000)


def parse_clock(text: str) -> int:
    """Parse "HH:MM" or "HH:MM:SS" into milliseconds past midnight."""
    parts = text.split(":")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise ValueError(f"bad clock time {text!r}, expected HH:MM[:SS]")
    h, m = int(parts[0]), int(parts[1])
    s = int(parts[2]) if len(parts) == 3 else 0
    if h > 23 or m > 59 or s > 59:
        raise ValueError(f"bad clock time {text!r}")
    return (h * 3600 + m * 60 + s) * 1000


def ms_of_day(ts: int, tz_offset_min: int = 0) -> int:
    """Clock-of-day position of a timestamp, in milliseconds past midnight."""
    return (ts + tz_offset_min * MS_PER_MINUTE) % MS_PER_DAY


def floor_minute(ts: int) -> int:
    return ts - ts % MS_PER_MINUTE


def in_clock_window(ts, start_ms: int, end_ms: int, tz_offset_min: int = 0):
    """True if the timestamp's clock position lies in [start, end), wrapping
    midnight; for an int64 array of timestamps, a bool array."""
    t = ms_of_day(ts, tz_offset_min)
    if start_ms <= end_ms:
        return (start_ms <= t) & (t < end_ms)
    return (t >= start_ms) | (t < end_ms)


class SensorKind(Enum):
    TEMP_HUMIDITY = "temp_humidity"
    LIGHT = "light"
    NOISE = "noise"
    MOTION = "motion"
    THERMAL4 = "thermal4"
    THERMAL32 = "thermal32"

    @property
    def is_thermal(self) -> bool:
        return self in (SensorKind.THERMAL4, SensorKind.THERMAL32)

    @property
    def resolution(self) -> int:
        if self is SensorKind.THERMAL4:
            return 4
        if self is SensorKind.THERMAL32:
            return 32
        raise ValueError(f"{self} has no thermal resolution")


class PostureLabel(Enum):
    SIT = 0
    STAND = 1
    WALK = 2
    LIE_DOWN = 3
    NOT_HERE = 4


class ActivityLabel(Enum):
    SLEEPING = 0
    KITCHEN_ACTIVITY = 1
    DINING_ROOM_ACTIVITY = 2
    NOT_AT_HOME = 3
    RESTROOM = 4
    LIVING_ROOM_ACTIVITY = 5
    VISITORS = 6


# Minute slots the classifier could not attribute to any of the seven
# activities.  Kept outside the ActivityLabel enum on purpose: the label set
# is closed, and reports must distinguish "unknown" from any real activity.
UNKNOWN_ACTIVITY = 7

ACTIVITY_NAMES = [label.name for label in ActivityLabel] + ["UNKNOWN"]


def quantize_pixels(celsius: np.ndarray) -> np.ndarray:
    """Convert float degrees Celsius to the canonical int16 centi-degree grid."""
    return np.clip(np.rint(np.asarray(celsius) * 100.0), -32768, 32767).astype(np.int16)


def pixels_to_celsius(centi: np.ndarray) -> np.ndarray:
    return centi.astype(np.float32) / 100.0


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """np.array_equal for arrays, without its conversions (NaN != NaN)."""
    return a.shape == b.shape and not np.count_nonzero(a != b)


@dataclass
class FrameBlock:
    """A contiguous run of frames from one sensor, stored as bulk arrays.

    This is the one form thermal frames take, in memory and on the wire; a
    single frame is a row of `pixels_centi`.
    """

    sensor_id: str
    resolution: int
    timestamps: np.ndarray  # int64[n], strictly increasing
    pixels_centi: np.ndarray  # int16[n, res, res]

    def __post_init__(self):
        n = len(self.timestamps)
        if self.pixels_centi.shape != (n, self.resolution, self.resolution):
            raise DimensionError(
                f"pixel array {self.pixels_centi.shape} does not match "
                f"{n} frames at resolution {self.resolution}"
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FrameBlock):
            return NotImplemented
        return (
            self.sensor_id == other.sensor_id
            and self.resolution == other.resolution
            and _same_array(self.timestamps, other.timestamps)
            and _same_array(self.pixels_centi, other.pixels_centi)
        )

    def __getitem__(self, rows: slice | np.ndarray) -> "FrameBlock":
        return FrameBlock(
            self.sensor_id, self.resolution, self.timestamps[rows], self.pixels_centi[rows]
        )

    def slice(self, t0: int, t1: int) -> "FrameBlock":
        lo, hi = np.searchsorted(self.timestamps, (t0, t1), side="left")
        return self[lo:hi]


@dataclass
class ReadingSeries:
    """Bulk form of one scalar sensor's time-ordered readings."""

    sensor_id: str
    kind: SensorKind
    timestamps: np.ndarray  # int64[n]
    values: np.ndarray  # float64[n], quantized to 0.01

    def __post_init__(self):
        ts = self.timestamps
        if ts.ndim != 1 or self.values.shape != ts.shape:
            raise ValueError(
                f"series {self.sensor_id} needs 1-D timestamps and values of one length, "
                f"got {ts.shape} and {self.values.shape}"
            )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReadingSeries):
            return NotImplemented
        return (
            self.sensor_id == other.sensor_id
            and self.kind == other.kind
            and _same_array(self.timestamps, other.timestamps)
            and _same_array(self.values, other.values)
        )

    def __getitem__(self, rows: slice | np.ndarray) -> "ReadingSeries":
        return ReadingSeries(self.sensor_id, self.kind, self.timestamps[rows], self.values[rows])

    def slice(self, t0: int, t1: int) -> "ReadingSeries":
        lo, hi = np.searchsorted(self.timestamps, (t0, t1), side="left")
        return self[lo:hi]
