"""Priority-rule activity recognition over one-minute evidence windows."""

from .evidence import MinuteEvidence, RoomEvidence
from .rules import ActivityTimeline, TimelineEntry, classify_minute, detect_not_at_home
from .evaluate import evaluate_timeline

__all__ = [
    "ActivityTimeline",
    "MinuteEvidence",
    "RoomEvidence",
    "TimelineEntry",
    "classify_minute",
    "detect_not_at_home",
    "evaluate_timeline",
]
