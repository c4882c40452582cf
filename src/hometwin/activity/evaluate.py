"""Minute-level accuracy and confusion against the oracle timeline, and
posture hits per sensor against the oracle posture grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import ACTIVITY_NAMES
from ..errors import AlignmentError
from ..simulate.truth import GroundTruthTimeline
from .rules import ActivityTimeline


@dataclass
class TimelineEvaluation:
    accuracy: float
    confusion: np.ndarray  # [8, 8]: seven activities plus Unknown
    n_minutes: int

    def to_text(self) -> str:
        names = [n[:12] for n in ACTIVITY_NAMES]
        width = max(len(n) for n in names) + 1
        lines = [
            f"minute-level accuracy: {self.accuracy:.4f} over {self.n_minutes} minutes",
            "confusion matrix (rows = truth, cols = prediction):",
            " " * width + " ".join(f"{n:>12s}" for n in names),
        ]
        for i, name in enumerate(names):
            row = " ".join(f"{int(v):12d}" for v in self.confusion[i])
            lines.append(f"{name:>{width}s} {row}")
        return "\n".join(lines) + "\n"


def evaluate_timeline(
    predicted: ActivityTimeline, truth: GroundTruthTimeline
) -> TimelineEvaluation:
    """Fraction of minutes matching the oracle; Unknown always counts as wrong."""
    if predicted.start != truth.start:
        raise AlignmentError(
            f"timeline starts differ: predicted {predicted.start}, truth {truth.start}"
        )
    if len(predicted.label) != truth.n_minutes:
        raise AlignmentError(
            f"minute counts differ: predicted {len(predicted.label)}, "
            f"truth {truth.n_minutes}"
        )
    if not np.array_equal(predicted.evidence.minute_start, truth.minute_starts()):
        raise AlignmentError("minute grids are misaligned")

    confusion = np.zeros((8, 8), dtype=np.int64)
    # Unknown (UNKNOWN_ACTIVITY) is the eighth column
    np.add.at(confusion, (truth.activity_truth, predicted.label), 1)
    hits = int(np.trace(confusion))
    n = truth.n_minutes
    return TimelineEvaluation(hits / n if n else 0.0, confusion, n)


def posture_hits(tracks: dict, truth: GroundTruthTimeline) -> dict[str, tuple[int, int]]:
    """(hits, graded) per sensor of the pipeline's `SensorTrack`s: the 5 s
    windows that land on the truth's posture grid are graded, and a hit is a
    posture equal to the grid's code.  A sensor with no posture truth is left
    out."""
    out = {}
    for sensor_id, track in tracks.items():
        codes = truth.posture_truth.get(sensor_id)
        if codes is None:
            continue
        index = track.interval_index
        graded = (index >= 0) & (index < len(codes))
        hits = int((track.posture[graded] == codes[index[graded]]).sum())
        out[sensor_id] = (hits, int(graded.sum()))
    return out
