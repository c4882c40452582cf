"""The minute evidence of a timeline: one frame of columns for n minutes,
fused from every sensor in the home."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(eq=False)
class MinuteEvidence:
    """Per minute `[n]`; per minute and room role `[n, 6]`, one column per
    role in `RoomRole` order; per role `[6]`.  A (minute, role) cell that no
    thermal window of the role reached is unseen: NOT_HERE, index 0, no
    multi-blob windows."""

    minute_start: np.ndarray  # int64
    is_night: np.ndarray  # bool
    restroom_triggers: np.ndarray  # int64
    doorway_triggers: np.ndarray  # int64
    other_motion_triggers: np.ndarray  # int64: motion triggers outside restroom/doorway
    light_step_max: np.ndarray  # float64: largest single-sample light change
    seen: np.ndarray  # bool [n, 6]
    majority_posture: np.ndarray  # int64 [n, 6] PostureLabel values
    mean_motion_index: np.ndarray  # float64 [n, 6]
    multi_blob_windows: np.ndarray  # int64 [n, 6]: windows with blob count >= 2
    # float64 [6]: the activity gate the rules compare each role's motion
    # index with; the pipeline sets it per sensor (see `run_pipeline`)
    theta_active: np.ndarray

    def __len__(self) -> int:
        return len(self.minute_start)
