"""Pipeline configuration: every tunable in one place, loadable from JSON.

Unknown keys are rejected so config typos fail loudly instead of silently
falling back to defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

# counts the pipeline or training divides by, indexes with or loops over, and
# the rule 1 and 2 thresholds (at 0 a rule fires on every minute): none can be 0
_AT_LEAST_ONE = (
    "warmup_frames",
    "blob_min_pixels",
    "train_iterations",
    "batch_size",
    "val_every",
    "windows_per_class",
    "dataset_seeds",
    "k_rest",
    "s_vis",
)


@dataclass
class PipelineConfig:
    seed: int = 0

    # --- simulator ---
    pixel_noise_sigma: float = 0.3  # degrees C
    lamp_delta: float = 150.0  # light units added by a lamp

    # --- thermal processing ---
    delta_cal_c: float = 1.5  # ambient shift that triggers self-calibration
    min_recal_interval_min: float = 30.0
    warmup_frames: int = 120  # 30 s at 4 Hz
    baseline_alpha: float = 0.01  # EW update weight per unoccupied frame
    theta_idle: float = 0.6  # trailing-minute motion index below which a room is idle
    presence_max_c: float = 1.5  # max residual allowed for baseline updates
    blob_threshold_c: float = 2.0
    blob_min_pixels: int = 3

    # --- posture network / training ---
    train_iterations: int = 3000
    batch_size: int = 64
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    dropout_rate: float = 0.25
    val_every: int = 100
    windows_per_class: int = 2000
    dataset_seeds: int = 4  # body-position variation seeds

    # --- activity rules ---
    k_rest: int = 3  # restroom triggers per minute
    theta_active: float = 0.0  # 0 = auto-calibrate (2x lower-quartile index)
    w_night: float = 2.0  # bedroom weight multiplier during the night window
    s_vis: int = 4  # sustained multi-blob windows for Visitors
    min_away_min: int = 5
    carry_forward_max: int = 1

    # --- wellness analytics ---
    dwell_min: int = 30  # minutes out of band before an alert fires
    temp_band_low_c: float = 22.0
    temp_band_high_c: float = 32.0
    humidity_max_rh: float = 85.0
    noise_alert_threshold: float = 60.0
    sleep_low_h: float = 5.0
    sleep_high_h: float = 10.0
    theta_move: float = 0.0  # 0 = auto (3x empty-bed frame-difference median)

    def __post_init__(self):
        for key in _AT_LEAST_ONE:
            value = getattr(self, key)
            if value < 1:
                raise ConfigError(f"config key {key!r} must be at least 1, got {value}")

    def override(self, **kwargs) -> "PipelineConfig":
        return dataclasses.replace(self, **_checked(kwargs))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _checked(data: dict) -> dict:
    """Known keys only, each value cast to its field's type.  An int key
    refuses a number with a fraction, and any key a non-numeric value."""
    types = {f.name: f.type for f in dataclasses.fields(PipelineConfig)}
    unknown = set(data) - set(types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key, value in data.items():
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad value for config key {key!r}: {value!r}") from exc
        if types[key] == "int":
            if not number.is_integer():
                raise ConfigError(f"config key {key!r} takes an integer, got {value!r}")
            out[key] = value if type(value) is int else int(number)
        else:
            out[key] = number
    return out


def config_from_dict(data: dict) -> PipelineConfig:
    return PipelineConfig(**_checked(data))


def load_config(path: str | Path) -> PipelineConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return config_from_dict(data)


def dump_config(config: PipelineConfig) -> str:
    return json.dumps(config.to_dict(), indent=2, sort_keys=True)
