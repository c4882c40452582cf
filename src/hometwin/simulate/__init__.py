"""Deterministic synthetic home: scripted behavior to sensor streams plus oracle labels."""

from .engine import StreamBundle, simulate
from .scenario import (
    AmbientProfile,
    LampToggle,
    LeaveHome,
    NoiseBurst,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    SunlightPatch,
    VisitorEnter,
    VisitorLeave,
    load_scenario,
)
from .truth import GroundTruthTimeline, load_truth_sidecar, write_truth_sidecar

__all__ = [
    "AmbientProfile",
    "GroundTruthTimeline",
    "LampToggle",
    "LeaveHome",
    "NoiseBurst",
    "OccupyRoom",
    "ReturnHome",
    "ScenarioScript",
    "StreamBundle",
    "SunlightPatch",
    "VisitorEnter",
    "VisitorLeave",
    "load_scenario",
    "load_truth_sidecar",
    "simulate",
    "write_truth_sidecar",
]
