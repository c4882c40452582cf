"""Priority-rule activity recognition over the columns of the minute evidence."""

from .evidence import MinuteEvidence
from .rules import ActivityTimeline, classify_timeline, detect_not_at_home
from .evaluate import evaluate_timeline, posture_hits

__all__ = [
    "ActivityTimeline",
    "MinuteEvidence",
    "classify_timeline",
    "detect_not_at_home",
    "evaluate_timeline",
    "posture_hits",
]
