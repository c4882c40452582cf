"""Posture recognition: window assembly, a from-scratch convolutional
classifier, its training loop, and model persistence."""

from .net import NetworkConfig, PostureNet, config_for_resolution
from .train import TrainReport, gradient_check, train
from .windows import build_windows
from .model_io import load_model, save_model
from .data import generate_posture_dataset

__all__ = [
    "NetworkConfig",
    "PostureNet",
    "TrainReport",
    "build_windows",
    "config_for_resolution",
    "generate_posture_dataset",
    "gradient_check",
    "load_model",
    "save_model",
    "train",
]
