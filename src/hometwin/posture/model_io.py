"""Versioned binary persistence for trained posture models.

File layout (little-endian): magic ``HTNET``, u8 version, u32 config-JSON
length + JSON, u16 tensor count, then per tensor: u16 name length + name,
u8 dtype code (0=f32, 1=f64), u8 ndim, u32 dims, raw bytes.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from ..errors import DimensionError, ModelFormatError
from ..files import write_atomic
from .net import NetworkConfig, PostureNet

_MAGIC = b"HTNET"
_VERSION = 1
_DTYPES = {0: "<f4", 1: "<f8"}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def save_model(net: PostureNet, path: str | Path) -> None:
    state = net.state_dict()
    blob = bytearray()
    blob += _MAGIC
    blob += bytes([_VERSION])
    config_json = json.dumps(net.config.to_dict(), sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(config_json))
    blob += config_json
    blob += struct.pack("<H", len(state))
    for name in sorted(state):
        arr = state[name]
        raw_name = name.encode("utf-8")
        blob += struct.pack("<H", len(raw_name))
        blob += raw_name
        code = _DTYPE_CODES[np.dtype(arr.dtype)]
        blob += struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
        blob += arr.astype(_DTYPES[code]).tobytes()
    write_atomic(path, [blob])


def _network_config(block) -> NetworkConfig:
    """The config block as a NetworkConfig, refused (ValueError or TypeError)
    unless every size a net is built from is in range."""
    if not isinstance(block, dict):
        raise TypeError(f"expected an object, got {type(block).__name__}")
    if not isinstance(block.get("layers"), list) or not all(
        isinstance(spec, dict) for spec in block["layers"]
    ):
        raise TypeError("'layers' must be a list of objects")
    config = NetworkConfig.from_dict(block)
    for name in ("resolution", "in_channels", "n_classes"):
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be positive, got {getattr(config, name)}")
    for i, spec in enumerate(config.layers):
        if spec.kind in ("conv", "fc") and spec.out < 1:
            raise ValueError(f"layer {i} ({spec.kind}) needs a positive out, got {spec.out}")
        if spec.kind == "conv" and (spec.kernel < 1 or spec.pad < 0):
            raise ValueError(f"layer {i} (conv) has kernel {spec.kernel} and pad {spec.pad}")
    return config


def load_model(path: str | Path) -> PostureNet:
    data = Path(path).read_bytes()
    if data[: len(_MAGIC)] != _MAGIC:
        raise ModelFormatError(f"{path} is not a model file")
    pos = len(_MAGIC)

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise ModelFormatError(f"{path} is truncated")
        out = data[pos : pos + n]
        pos += n
        return out

    (version,) = take(1)
    if version != _VERSION:
        raise ModelFormatError(f"unsupported model file version {version}")
    (config_len,) = struct.unpack("<I", take(4))
    try:
        config = _network_config(json.loads(take(config_len)))
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
        raise ModelFormatError(f"bad model config block: {exc}") from exc

    try:
        net = PostureNet(config)
    except DimensionError as exc:  # an unknown layer kind, or fc before flatten
        raise ModelFormatError(f"bad model config block: {exc}") from exc
    wanted = {name: arr.shape for name, arr in net.state_dict().items()}

    (n_tensors,) = struct.unpack("<H", take(2))
    state: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", take(2))
        name_at = pos
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"bad tensor name at byte {name_at}: {exc}") from exc
        if name in state:
            raise ModelFormatError(f"tensor {name!r} appears twice in {path}")
        if name not in wanted:
            raise ModelFormatError(f"tensor {name!r} is not one the model config uses")
        code, ndim = struct.unpack("<BB", take(2))
        if code not in _DTYPES:
            raise ModelFormatError(f"unknown tensor dtype code {code}")
        if ndim != len(wanted[name]):
            raise ModelFormatError(f"tensor {name!r} has {ndim} dims, the config's {wanted[name]}")
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(ndim))
        # checked before a byte is read: the config's shape bounds the read,
        # and no header can ask numpy for a shape it cannot hold
        if shape != wanted[name]:
            raise ModelFormatError(
                f"tensor {name!r} of shape {shape} does not match the config's {wanted[name]}"
            )
        nbytes = math.prod(shape) * np.dtype(_DTYPES[code]).itemsize
        state[name] = np.frombuffer(take(nbytes), dtype=_DTYPES[code]).reshape(shape).copy()
    if pos != len(data):
        raise ModelFormatError(f"{path} has {len(data) - pos} trailing bytes")
    if len(state) < len(wanted):  # every name read is one of the wanted, once
        raise ModelFormatError(f"model file missing tensor {min(wanted.keys() - state.keys())!r}")
    net.load_state_dict(state)
    return net
