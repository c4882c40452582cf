"""A small convolutional network implemented directly on numpy.

The input is a 20-frame residual stack treated as channels over an r x r
grid.  Every convolutional layer is followed by batch normalization, ReLU,
(max pooling at 32x32) and dropout; fully-connected layers finish with a
softmax over the five posture classes.

Training runs the modules below: batch statistics, inverted dropout, and
caches for backpropagation, which forms parameter gradients only (nothing
w.r.t. the input windows).  Inference is a separate plain path that folds
each batch norm's running statistics into the conv or dense layer before it,
drops dropout, and runs the batch in cache-sized blocks of windows; it writes
nothing to the model, so repeated inference on the same input is
bit-identical.

A call of two or more blocks is split between the caller and one helper
thread when more than one core is usable and BLAS runs one thread (see
`blas_threads`; `OPENBLAS_NUM_THREADS=1 hometwin run ...` gets it): the
caller runs the first half of the blocks and the helper the rest.  numpy
releases the interpreter lock in BLAS calls and array copies, so the halves
run at once, and each block is computed exactly as in the serial loop, so
the logits are the same bits.  With a BLAS that runs a thread per core, the
two would compete for the same cores, so inference stays serial.  The helper
is made on the first split call and dropped in a forked child.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from ..errors import DimensionError

BN_MOMENTUM = 0.9
BN_EPS = 1e-5
# Inference runs the batch in blocks whose largest im2col matrix fits in
# about this many bytes (near a 2 MiB per-core L2); see PostureNet._infer.
INFER_BLOCK_BYTES = 2 << 20
# module fields a training forward fills for the backward pass that follows
STEP_BUFFERS = ("_cache", "_mask", "_x")
# where OpenBLAS reads its thread count from, in the order it reads them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def blas_threads() -> int | None:
    """The BLAS thread count the environment sets, read as OpenBLAS reads it:
    the first of BLAS_THREAD_VARS that holds a positive integer, or None
    when none does (BLAS then runs one thread per core)."""
    for var in BLAS_THREAD_VARS:
        try:
            count = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if count > 0:
            return count
    return None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# the one helper thread of split inference (a ThreadPoolExecutor), made on
# first use so that a process that never infers never starts it
_helper = None
_helper_lock = threading.Lock()


def _inference_helper():
    global _helper
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor

            _helper = ThreadPoolExecutor(1, thread_name_prefix="posture-infer")
        return _helper


def _drop_helper() -> None:
    """In a forked child: the helper's thread did not survive the fork, and
    a task submitted to the inherited executor would wait forever."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class LayerSpec:
    kind: str  # conv | bn | relu | pool | dropout | flatten | fc
    out: int = 0  # conv filters or fc width
    kernel: int = 3
    pad: int = 0


@dataclass(frozen=True)
class NetworkConfig:
    resolution: int
    layers: tuple[LayerSpec, ...]
    in_channels: int = 20
    n_classes: int = 5
    dropout_rate: float = 0.25

    def to_dict(self) -> dict:
        return {
            "resolution": self.resolution,
            "in_channels": self.in_channels,
            "n_classes": self.n_classes,
            "dropout_rate": self.dropout_rate,
            "layers": [
                {"kind": s.kind, "out": s.out, "kernel": s.kernel, "pad": s.pad}
                for s in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkConfig":
        return cls(
            resolution=int(data["resolution"]),
            in_channels=int(data["in_channels"]),
            n_classes=int(data["n_classes"]),
            dropout_rate=float(data["dropout_rate"]),
            layers=tuple(
                LayerSpec(s["kind"], int(s["out"]), int(s["kernel"]), int(s["pad"]))
                for s in data["layers"]
            ),
        )


def config_for_resolution(
    resolution: int, dropout_rate: float = PipelineConfig.dropout_rate
) -> NetworkConfig:
    if resolution == 32:
        layers = (
            LayerSpec("conv", 16, 3, 0), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("pool"), LayerSpec("dropout"),
            LayerSpec("conv", 32, 3, 0), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("pool"), LayerSpec("dropout"),
            LayerSpec("conv", 64, 3, 0), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("pool"), LayerSpec("dropout"),
            LayerSpec("flatten"),
            LayerSpec("fc", 128), LayerSpec("relu"),
            LayerSpec("fc", 5),
        )
    elif resolution == 4:
        layers = (
            LayerSpec("conv", 16, 3, 1), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("dropout"),
            LayerSpec("flatten"),
            LayerSpec("fc", 64),
            LayerSpec("fc", 5),
        )
    else:
        raise DimensionError(f"no default architecture for resolution {resolution}")
    return NetworkConfig(resolution=resolution, layers=layers, dropout_rate=dropout_rate)


def toy_config() -> NetworkConfig:
    """A one-conv-layer net small enough for exhaustive gradient checking."""
    return NetworkConfig(
        resolution=4,
        layers=(
            LayerSpec("conv", 2, 3, 1), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("flatten"), LayerSpec("fc", 5),
        ),
        dropout_rate=0.0,
    )


# ---------------------------------------------------------------------------
# modules


def _im2col(x: np.ndarray, k: int, pad: int) -> tuple[np.ndarray, tuple[int, int]]:
    """Patches as (n, c*k*k, ho*wo), assembled from k*k contiguous slices."""
    n, c, h, w = x.shape
    if pad:
        padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x
        x = padded
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i : i + ho, j : j + wo]
    return cols.reshape(n, c * k * k, ho * wo), (ho, wo)


def _col2im(dcols: np.ndarray, x_shape, k: int, pad: int, ho: int, wo: int) -> np.ndarray:
    """Scatter patch gradients (n, c*k*k, ho*wo) back onto the input."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    dx = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    dcols = dcols.reshape(n, c, k, k, ho, wo)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + ho, j : j + wo] += dcols[:, :, i, j]
    if pad:
        dx = dx[:, :, pad:-pad, pad:-pad]
    return dx


class _Conv:
    def __init__(self, spec: LayerSpec, in_ch: int, rng, dtype):
        k = spec.kernel
        fan_in = in_ch * k * k
        self.w = (rng.standard_normal((spec.out, in_ch, k, k)) * np.sqrt(2.0 / fan_in)).astype(dtype)
        self.b = np.zeros(spec.out, dtype=dtype)
        self.k, self.pad = k, spec.pad
        self.dw = None
        self.db = None
        self._cache = None

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [("w", self.dw), ("b", self.db)]

    def forward(self, x, rng):
        cols, (ho, wo) = _im2col(x, self.k, self.pad)
        wmat = self.w.reshape(self.w.shape[0], -1)
        out = np.matmul(wmat[None], cols)  # (n, out, ho*wo)
        out += self.b[None, :, None]
        self._cache = (cols, x.shape, (ho, wo))
        return out.reshape(x.shape[0], -1, ho, wo)

    def param_grads(self, dout):
        """dw and db only; returns the (n, out, ho*wo) view of dout."""
        cols = self._cache[0]
        dmat = dout.reshape(dout.shape[0], dout.shape[1], -1)
        self.dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.shape)
        self.db = dmat.sum(axis=(0, 2))
        return dmat

    def backward(self, dout):
        dmat = self.param_grads(dout)
        _, x_shape, (ho, wo) = self._cache
        n, o = dmat.shape[:2]
        f = self.w.size // o
        # one big GEMM for the patch gradient: (f, o) @ (o, n*l)
        dflat = np.ascontiguousarray(dmat.transpose(1, 0, 2)).reshape(o, -1)
        dcols = (self.w.reshape(o, f).T @ dflat).reshape(f, n, ho * wo).transpose(1, 0, 2)
        return _col2im(np.ascontiguousarray(dcols), x_shape, self.k, self.pad, ho, wo)


class _BatchNorm:
    def __init__(self, channels: int, dtype):
        self.gamma = np.ones(channels, dtype=dtype)
        self.beta = np.zeros(channels, dtype=dtype)
        self.running_mean = np.zeros(channels, dtype=np.float64)
        self.running_var = np.ones(channels, dtype=np.float64)
        self.dgamma = None
        self.dbeta = None
        self._cache = None

    def params(self):
        return [("gamma", self.gamma), ("beta", self.beta)]

    def grads(self):
        return [("gamma", self.dgamma), ("beta", self.dbeta)]

    def buffers(self):
        return [("running_mean", self.running_mean), ("running_var", self.running_var)]

    def forward(self, x, rng):
        axes, shape = ((0, 2, 3), (1, -1, 1, 1)) if x.ndim == 4 else ((0,), (1, -1))
        mean = x.mean(axis=axes, keepdims=True)
        xhat = x - mean
        var = np.square(xhat).mean(axis=axes)  # x.var, bit for bit
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv.reshape(shape)
        self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean.reshape(-1)
        self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        self._cache = (xhat, inv, axes, shape)
        out = self.gamma.reshape(shape) * xhat
        out += self.beta.reshape(shape)
        return out

    def folded(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-channel (scale, shift) in float64 that apply the running stats."""
        scale = self.gamma / np.sqrt(self.running_var + BN_EPS)
        return scale, self.beta - self.running_mean * scale

    def backward(self, dout):
        xhat, inv, axes, shape = self._cache
        tmp = dout * xhat
        self.dgamma = tmp.sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        dx = dout * self.gamma.reshape(shape)  # dxhat until the last step
        np.multiply(dx, xhat, out=tmp)
        np.multiply(xhat, tmp.mean(axis=axes).reshape(shape), out=tmp)
        # (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv, in that order
        dx -= dx.mean(axis=axes).reshape(shape)
        dx -= tmp
        dx *= inv.reshape(shape)
        return dx


class _ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x, rng):
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout):
        return dout * self._mask


class _MaxPool2:
    """2x2 max pooling, stride 2, floor semantics (odd edges dropped).

    The output is the max of the four strided slices of the tiles.  Each
    tile's gradient goes to its first maximum in the order (0,0), (0,1),
    (1,0), (1,1), as argmax would pick it; the rest of the input gradient,
    odd edges included, is +0.0.  np.maximum returns its second operand
    for two zeros of either sign, so the earlier slot goes second, and
    where +0.0 ties -0.0 the output keeps the earlier one's sign, as argmax
    does (tests/test_train_oracle.py checks every such tie).

    NaN: the output is NaN wherever a tile holds one, but NaN equals
    nothing, so such a tile sends its gradient to (1,1), where argmax would
    pick its first NaN.  A NaN that reaches a pool in training has already
    spread over its whole channel through the batch norm before it.
    """

    _SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))

    def __init__(self):
        self._cache = None

    def forward(self, x, rng):
        he, we = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
        a, b, c, d = (x[:, :, i:he:2, j:we:2] for i, j in self._SLOTS)
        out = np.maximum(np.maximum(d, c), np.maximum(b, a))
        first_a = a == out
        first_b = (b == out) & ~first_a
        rest = ~(first_a | first_b)
        first_c = (c == out) & rest
        self._cache = ((first_a, first_b, first_c, rest & ~first_c), x.shape)
        return out

    def backward(self, dout):
        masks, shape = self._cache
        he, we = shape[2] // 2 * 2, shape[3] // 2 * 2
        dx = np.zeros(shape, dtype=dout.dtype)
        for (i, j), mask in zip(self._SLOTS, masks):
            np.copyto(dx[:, :, i:he:2, j:we:2], dout, where=mask)
        return dx


class _Dropout:
    """Inverted dropout; rate >= 1 blanks every activation (degenerate but defined)."""

    def __init__(self, rate: float):
        self.rate = rate
        self._mask = None

    def forward(self, x, rng):
        if self.rate <= 0.0:
            self._mask = None
            return x
        if self.rate >= 1.0:
            self._mask = np.zeros_like(x)
            return x * self._mask
        keep = (rng.random(x.shape) >= self.rate).astype(x.dtype)
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backward(self, dout):
        if self._mask is None:
            return dout
        return dout * self._mask


class _Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x, rng):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout):
        return dout.reshape(self._shape)


class _Dense:
    def __init__(self, in_dim: int, out_dim: int, rng, dtype):
        self.w = (rng.standard_normal((out_dim, in_dim)) * np.sqrt(2.0 / in_dim)).astype(dtype)
        self.b = np.zeros(out_dim, dtype=dtype)
        self.dw = None
        self.db = None
        self._x = None

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def grads(self):
        return [("w", self.dw), ("b", self.db)]

    def forward(self, x, rng):
        self._x = x
        return x @ self.w.T + self.b

    def backward(self, dout):
        self.dw = dout.T @ self._x
        self.db = dout.sum(axis=0)
        return dout @ self.w


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and its gradient w.r.t. the logits."""
    probs = softmax(logits)
    n = logits.shape[0]
    loss = -float(np.log(np.maximum(probs[np.arange(n), labels], 1e-300)).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def _infer_blocks(
    layers: list[tuple], x: np.ndarray, out: np.ndarray, lo: int, hi: int, rows: int
) -> None:
    """Run windows lo:hi of `x` through the folded `layers` in blocks of
    `rows` windows (lo on the block grid) and write their logits to `out`."""
    for start in range(lo, hi, rows):
        h = x[start : min(start + rows, hi)]
        owned = False  # h may be written in place once it is not the caller's
        for kind, *p in layers:
            if kind == "conv":
                w, b, k, pad = p
                cols, (ho, wo) = _im2col(h, k, pad)
                h = np.matmul(w, cols)
                h += b[:, None]
                h = h.reshape(h.shape[0], -1, ho, wo)
            elif kind == "fc":
                w, b = p
                h = h @ w.T
                h += b
            elif kind == "affine":
                shape = (1, -1, 1, 1) if h.ndim == 4 else (1, -1)
                h = h * p[0].reshape(shape) + p[1].reshape(shape)
            elif kind == "relu":
                h = np.maximum(h, 0, out=h if owned else None)
            elif kind == "pool":  # 2x2, stride 2, odd edges dropped
                he, we = h.shape[2] // 2 * 2, h.shape[3] // 2 * 2
                top = np.maximum(h[:, :, 0:he:2, 0:we:2], h[:, :, 0:he:2, 1:we:2])
                h = np.maximum(h[:, :, 1:he:2, 0:we:2], h[:, :, 1:he:2, 1:we:2])
                np.maximum(h, top, out=h)
            else:  # flatten
                h = h.reshape(h.shape[0], -1)
            owned = kind != "flatten" or owned
        out[start : start + len(h)] = h


class PostureNet:
    def __init__(self, config: NetworkConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.modules = []
        ch = config.in_channels
        side = config.resolution
        dim = None
        window_cols = 0  # elements of the largest per-window im2col matrix
        for spec in config.layers:
            if spec.kind == "conv":
                self.modules.append(_Conv(spec, ch, rng, dtype))
                side = side + 2 * spec.pad - spec.kernel + 1
                window_cols = max(window_cols, ch * spec.kernel**2 * side * side)
                ch = spec.out
            elif spec.kind == "bn":
                self.modules.append(_BatchNorm(ch if dim is None else dim, dtype))
            elif spec.kind == "relu":
                self.modules.append(_ReLU())
            elif spec.kind == "pool":
                self.modules.append(_MaxPool2())
                side //= 2
            elif spec.kind == "dropout":
                self.modules.append(_Dropout(config.dropout_rate))
            elif spec.kind == "flatten":
                self.modules.append(_Flatten())
                dim = ch * side * side
            elif spec.kind == "fc":
                if dim is None:
                    raise DimensionError("fc layer before flatten")
                self.modules.append(_Dense(dim, spec.out, rng, dtype))
                dim = spec.out
            else:
                raise DimensionError(f"unknown layer kind {spec.kind!r}")
        self._out_shape = (dim,) if dim is not None else (ch, side, side)
        window_bytes = window_cols * np.dtype(dtype).itemsize
        self._block_rows = max(1, INFER_BLOCK_BYTES // max(1, window_bytes))

    # -- parameter plumbing ------------------------------------------------

    def _named(self, kind: str) -> list[tuple[str, np.ndarray]]:
        """("m<index>.<name>", array) for each module's params, grads or buffers."""
        return [
            (f"m{i}.{name}", arr)
            for i, m in enumerate(self.modules) if hasattr(m, kind)
            for name, arr in getattr(m, kind)()
        ]

    def named_params(self) -> list[tuple[str, np.ndarray]]:
        return self._named("params")

    def named_grads(self) -> list[tuple[str, np.ndarray]]:
        return self._named("grads")

    def named_buffers(self) -> list[tuple[str, np.ndarray]]:
        return self._named("buffers")

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: arr.copy() for name, arr in self.named_params()}
        state.update({name: arr.copy() for name, arr in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for name, arr in self.named_params():
            arr[...] = state[name]
        for i, m in enumerate(self.modules):
            if hasattr(m, "buffers"):
                m.running_mean = state[f"m{i}.running_mean"].copy()
                m.running_var = state[f"m{i}.running_var"].copy()

    def release_step_buffers(self) -> None:
        """Drop what the last training step kept for its backward pass
        (im2col matrices, normalized activations, masks, layer inputs)."""
        for m in self.modules:
            for name in STEP_BUFFERS:
                if name in vars(m):  # instance fields only, never a method
                    setattr(m, name, None)

    # -- computation ---------------------------------------------------------

    def _check_input(self, x: np.ndarray) -> None:
        want = (self.config.in_channels, self.config.resolution, self.config.resolution)
        if x.ndim != 4 or x.shape[1:] != want:
            raise DimensionError(f"expected input [n, {want[0]}, {want[1]}, {want[2]}], got {x.shape}")

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        self._check_input(x)
        out = np.ascontiguousarray(x, dtype=self.dtype)
        if not train:
            return self._infer(out)
        for m in self.modules:
            out = m.forward(out, rng)
        return out

    def _folded_layers(self) -> list[tuple]:
        """The inference layers, rebuilt from the current parameters.

        Each batch norm is folded into the conv or dense layer before it
        (w' = w * s, b' = b * s + t for its running-stat scale s and shift t,
        computed in float64) or kept as an affine step where nothing precedes
        it; dropout is dropped.  Entries: ("conv", w[o, c*k*k], b, k, pad),
        ("fc", w[o, i], b), ("affine", s, t), ("relu",), ("pool",),
        ("flatten",).
        """
        layers: list[tuple] = []
        for m in self.modules:
            if isinstance(m, _Conv):
                w = m.w.reshape(m.w.shape[0], -1).astype(np.float64)
                layers.append(("conv", w, m.b.astype(np.float64), m.k, m.pad))
            elif isinstance(m, _Dense):
                layers.append(("fc", m.w.astype(np.float64), m.b.astype(np.float64)))
            elif isinstance(m, _BatchNorm):
                scale, shift = m.folded()
                if layers and layers[-1][0] in ("conv", "fc"):
                    kind, w, b, *rest = layers[-1]
                    layers[-1] = (kind, w * scale[:, None], b * scale + shift, *rest)
                else:
                    layers.append(("affine", scale, shift))
            elif isinstance(m, _ReLU):
                layers.append(("relu",))
            elif isinstance(m, _MaxPool2):
                layers.append(("pool",))
            elif isinstance(m, _Flatten):
                layers.append(("flatten",))
        return [
            tuple(v.astype(self.dtype) if isinstance(v, np.ndarray) else v for v in layer)
            for layer in layers
        ]

    def _infer(self, x: np.ndarray) -> np.ndarray:
        """Inference on a contiguous batch, in blocks of `_block_rows` windows.

        A block's largest im2col matrix stays within INFER_BLOCK_BYTES, so
        each conv's patches are still in cache when its GEMM reads them.
        With two or more blocks, two usable cores and a one-thread BLAS, the
        helper thread runs the second half of the blocks while the caller
        runs the first (the module docstring says why).
        """
        layers = self._folded_layers()
        n, rows = x.shape[0], self._block_rows
        out = np.empty((n,) + self._out_shape, dtype=self.dtype)
        blocks = -(-n // rows)
        if blocks < 2 or blas_threads() != 1 or _usable_cores() < 2:
            _infer_blocks(layers, x, out, 0, n, rows)
            return out
        cut = (blocks + 1) // 2 * rows
        # the caller's context carries its numpy error state to the helper
        half = _inference_helper().submit(
            contextvars.copy_context().run, _infer_blocks, layers, x, out, cut, n, rows
        )
        try:
            _infer_blocks(layers, x, out, 0, cut, rows)
        except BaseException:
            half.exception()  # the helper writes into `out`: let it finish first
            raise
        half.result()
        return out

    def backward(self, dlogits: np.ndarray) -> None:
        """Parameter gradients (`named_grads`) of the last training forward,
        given the loss gradient w.r.t. its logits.

        No gradient w.r.t. the input is formed: a first conv computes dw
        and db only, with no patch-gradient GEMM and no col2im scatter.
        """
        dout = dlogits.astype(self.dtype)
        for m in reversed(self.modules[1:]):
            dout = m.backward(dout)
        first = self.modules[0]
        if isinstance(first, _Conv):
            first.param_grads(dout)
        else:
            first.backward(dout)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Inference-mode class probabilities (deterministic)."""
        return softmax(self.forward(x, train=False))

    def predict_labels(self, x: np.ndarray, batch: int, rows: np.ndarray | None = None) -> np.ndarray:
        """The most probable class of each input, or of each `x[rows]` when
        `rows` is given, one `predict_proba` call per `batch` inputs.  With
        `rows`, each call gathers only its own batch from `x`.

        The batch size is part of the result: each call starts its own block
        grid (`_block_rows`), and a dense layer's GEMM rounds by its block's
        row count, so other batch sizes can give other logit bits.
        """
        if rows is None:
            batches = (x[lo : lo + batch] for lo in range(0, len(x), batch))
        else:
            batches = (x[rows[lo : lo + batch]] for lo in range(0, len(rows), batch))
        return np.concatenate([self.predict_proba(b).argmax(axis=1) for b in batches])
