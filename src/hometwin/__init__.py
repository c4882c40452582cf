"""hometwin: a privacy-preserving in-home activity monitoring stack.

A simulated smart home produces unobtrusive sensor streams (binary motion,
environment scalars, low-resolution thermal arrays); a pipeline of thermal
preprocessing, posture recognition, and priority-rule activity fusion
reconstructs the resident's day and derives wellness reports from it.
"""

from .config import PipelineConfig
from .core import (
    ActivityLabel,
    FrameBlock,
    PostureLabel,
    ReadingSeries,
    SensorKind,
)
from .layout import HomeLayout, ModulePlacement, Room, RoomRole, validate_layout

__version__ = "0.1.0"

__all__ = [
    "ActivityLabel",
    "FrameBlock",
    "HomeLayout",
    "ModulePlacement",
    "PipelineConfig",
    "PostureLabel",
    "ReadingSeries",
    "Room",
    "RoomRole",
    "SensorKind",
    "validate_layout",
    "__version__",
]
