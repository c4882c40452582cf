"""Oracle labels derived purely from the scenario script.

Posture truth lives on a per-sensor 5-second grid, activity truth on the
minute grid; both are written to a tab-separated sidecar file next to the
simulated packet stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..core import MS_PER_MINUTE, ActivityLabel, PostureLabel, WINDOW_MS
from ..errors import ConfigError
from ..files import write_atomic

POSTURE_INTERVAL_MS = WINDOW_MS  # 5 s


@dataclass
class GroundTruthTimeline:
    start: int
    end: int
    # sensor_id -> uint8 PostureLabel values, one per 5 s interval
    posture_truth: dict[str, np.ndarray]
    # uint8 ActivityLabel values, one per minute
    activity_truth: np.ndarray
    away_intervals: list[tuple[int, int]]

    @property
    def n_minutes(self) -> int:
        return len(self.activity_truth)

    def minute_starts(self) -> np.ndarray:
        return self.start + MS_PER_MINUTE * np.arange(self.n_minutes, dtype=np.int64)


def write_truth_sidecar(truth: GroundTruthTimeline, path: str | Path) -> None:
    lines = ["record\tkey\ttimestamp\tvalue\n", f"span\t\t{truth.start}\t{truth.end}\n"]
    for minute, code in zip(truth.minute_starts(), truth.activity_truth):
        lines.append(f"activity\t\t{int(minute)}\t{ActivityLabel(int(code)).name}\n")
    for sensor_id in sorted(truth.posture_truth):
        for i, code in enumerate(truth.posture_truth[sensor_id]):
            ts = truth.start + i * POSTURE_INTERVAL_MS
            lines.append(f"posture\t{sensor_id}\t{ts}\t{PostureLabel(int(code)).name}\n")
    lines += [f"away\t\t{lo}\t{hi}\n" for lo, hi in truth.away_intervals]
    write_atomic(path, ["".join(lines).encode("utf-8")])


def load_truth_sidecar(path: str | Path) -> GroundTruthTimeline:
    start = end = None
    activity: list[tuple[int, int]] = []
    postures: dict[str, list[tuple[int, int]]] = {}
    away: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("record\t"):
            raise ConfigError(f"{path} is not a truth sidecar file")
        for line in fh:
            record, key, ts, value = line.rstrip("\n").split("\t")
            if record == "span":
                start, end = int(ts), int(value)
            elif record == "activity":
                activity.append((int(ts), ActivityLabel[value].value))
            elif record == "posture":
                postures.setdefault(key, []).append((int(ts), PostureLabel[value].value))
            elif record == "away":
                away.append((int(ts), int(value)))
            else:
                raise ConfigError(f"unknown sidecar record {record!r}")
    if start is None:
        raise ConfigError(f"{path} has no span record")
    activity.sort()
    truth_activity = np.array([code for _, code in activity], dtype=np.uint8)
    posture_truth = {}
    for sensor_id, rows in postures.items():
        rows.sort()
        posture_truth[sensor_id] = np.array([code for _, code in rows], dtype=np.uint8)
    return GroundTruthTimeline(start, end, posture_truth, truth_activity, sorted(away))
