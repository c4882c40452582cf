"""Per-minute evidence records fused from every sensor in the home."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core import PostureLabel
from ..layout import RoomRole


@dataclass
class RoomEvidence:
    """What one thermal room contributed during a minute."""

    majority_posture: PostureLabel = PostureLabel.NOT_HERE
    mean_motion_index: float = 0.0
    multi_blob_windows: int = 0  # windows this minute with blob count >= 2
    # the activity gate the rules compare this room's motion index with; the
    # pipeline sets it per sensor (see `run_pipeline`)
    theta_active: float = 0.0


@dataclass
class MinuteEvidence:
    minute_start: int
    is_night: bool
    # keyed by room role (one thermal room per role in supported layouts)
    rooms: dict[RoomRole, RoomEvidence] = field(default_factory=dict)
    restroom_triggers: int = 0
    doorway_triggers: int = 0
    other_motion_triggers: int = 0  # motion triggers outside restroom/doorway
    light_step_max: float = 0.0  # largest single-sample light change this minute
