"""Training loop (Adam + validation-based snapshot selection) and the
finite-difference gradient check that validates the backpropagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import PipelineConfig
from ..core import PostureLabel
from ..errors import StratificationError
from .net import NetworkConfig, PostureNet, cross_entropy, toy_config

# windows per evaluation call; the batch moves logit bits (see
# `PostureNet.predict_labels`), so validation picks and model bytes follow it
PREDICT_BATCH = 128


@dataclass
class TrainReport:
    test_accuracy: float
    best_val_accuracy: float
    confusion: np.ndarray  # [5, 5], rows = truth, cols = prediction
    curve: list[tuple[int, float, float]]  # (iteration, train_loss, val_accuracy)
    n_train: int
    n_val: int
    n_test: int

    def to_text(self) -> str:
        lines = [
            f"test accuracy: {self.test_accuracy:.4f}",
            f"best validation accuracy: {self.best_val_accuracy:.4f}",
            f"splits: train={self.n_train} val={self.n_val} test={self.n_test}",
            "confusion matrix (rows = truth, cols = prediction):",
            "            " + " ".join(f"{p.name:>9s}" for p in PostureLabel),
        ]
        for p in PostureLabel:
            row = " ".join(f"{int(v):9d}" for v in self.confusion[p.value])
            lines.append(f"{p.name:>11s} {row}")
        return "\n".join(lines) + "\n"

    def curve_csv(self) -> str:
        rows = ["iteration,train_loss,val_accuracy"]
        rows += [f"{i},{loss:.6f},{acc:.4f}" for i, loss, acc in self.curve]
        return "\n".join(rows) + "\n"


class Adam:
    """Adam over parameters of one dtype, its float64 moments one flat vector: a step
    runs a per-tensor loop's element-wise operations on one concatenated grad vector."""

    def __init__(self, params, lr, beta1, beta2, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        sizes = [arr.size for _, arr in params]
        self.cuts = np.cumsum(sizes)[:-1]  # where each parameter's slice ends
        self.m = np.zeros(sum(sizes), dtype=np.float64)
        self.v = np.zeros(sum(sizes), dtype=np.float64)
        self.t = 0

    def step(self, params, grads) -> None:
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        g = np.concatenate([grad.reshape(-1) for _, grad in grads])
        self.m += (1.0 - self.b1) * (g - self.m)
        self.v += (1.0 - self.b2) * (g * g - self.v)
        update = (self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)).astype(g.dtype)
        for (_, p), step in zip(params, np.split(update, self.cuts)):
            p -= step.reshape(p.shape)


def stratified_split(
    labels: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split indices per class at `fraction` (first part gets the larger share)."""
    first, second = [], []
    for cls in range(int(labels.max()) + 1):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        cut = int(round(len(idx) * fraction))
        first.append(idx[:cut])
        second.append(idx[cut:])
    return np.sort(np.concatenate(first)), np.sort(np.concatenate(second))


def _accuracy(pred: np.ndarray, y: np.ndarray) -> float:
    return int(np.count_nonzero(pred == y)) / len(y)


def train(
    x: np.ndarray,
    y: np.ndarray,
    config: NetworkConfig,
    seed: int,
    iterations: int = PipelineConfig.train_iterations,
    batch_size: int = PipelineConfig.batch_size,
    learning_rate: float = PipelineConfig.learning_rate,
    beta1: float = PipelineConfig.adam_beta1,
    beta2: float = PipelineConfig.adam_beta2,
    val_every: int = PipelineConfig.val_every,
) -> tuple[PostureNet, TrainReport]:
    """Train a posture classifier; deterministic given the dataset and seed.

    The dataset is split 4:1 into development and test sets, the development
    set again 4:1 into training and validation; the parameter snapshot with
    the best validation accuracy over the iteration budget is returned.
    The splits are index arrays into `x`: each step and each evaluation
    batch gathers its own rows, so no split is ever copied whole.
    """
    y = np.asarray(y)
    present = set(int(v) for v in np.unique(y))
    if present != {p.value for p in PostureLabel}:
        missing = [p.name for p in PostureLabel if p.value not in present]
        raise StratificationError(f"classes missing from dataset: {missing}")

    rng = np.random.default_rng(seed)
    dev_idx, test_idx = stratified_split(y, 0.8, rng)
    train_rel, val_rel = stratified_split(y[dev_idx], 0.8, rng)
    train_idx, val_idx = dev_idx[train_rel], dev_idx[val_rel]
    for name, idx in (("training", train_idx), ("validation", val_idx)):
        got = set(int(v) for v in np.unique(y[idx]))
        if got != present:
            raise StratificationError(f"class missing from {name} split")

    net = PostureNet(config, seed=seed)
    optimizer = Adam(net.named_params(), lr=learning_rate, beta1=beta1, beta2=beta2)

    best_state = net.state_dict()
    best_val = -1.0
    curve: list[tuple[int, float, float]] = []
    running_loss = 0.0
    for it in range(1, iterations + 1):
        rows = train_idx[rng.integers(0, len(train_idx), size=batch_size)]
        logits = net.forward(x[rows], train=True, rng=rng)
        loss, dlogits = cross_entropy(logits, y[rows])
        net.backward(dlogits)
        optimizer.step(net.named_params(), net.named_grads())
        running_loss += loss

        if it % val_every == 0 or it == iterations:
            val_acc = _accuracy(net.predict_labels(x, PREDICT_BATCH, val_idx), y[val_idx])
            curve.append((it, running_loss / min(val_every, it), val_acc))
            running_loss = 0.0
            if val_acc > best_val:
                best_val = val_acc
                best_state = net.state_dict()

    net.load_state_dict(best_state)
    net.release_step_buffers()
    pred = net.predict_labels(x, PREDICT_BATCH, test_idx)
    y_test = y[test_idx]
    classes = len(PostureLabel)
    confusion = np.bincount(y_test.astype(np.intp) * classes + pred, minlength=classes * classes)
    report = TrainReport(
        test_accuracy=_accuracy(pred, y_test),
        best_val_accuracy=best_val,
        confusion=confusion.reshape(classes, classes),
        curve=curve,
        n_train=len(train_idx),
        n_val=len(val_idx),
        n_test=len(test_idx),
    )
    return net, report


# ---------------------------------------------------------------------------
# gradient check


def gradient_check(
    config: NetworkConfig | None = None,
    seed: int = 0,
    batch: int = 4,
    h: float = 1e-5,
) -> float:
    """Max relative error between backprop and central finite differences.

    Runs in double precision, dropout off, batch norm in training mode on a
    fixed batch.  A training-mode batch norm normalizes by the batch's own
    statistics and only writes its running statistics, which inference
    alone reads, so the repeated forwards leave the loss unchanged.
    """
    config = config or toy_config()
    net = PostureNet(config, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(
        (batch, config.in_channels, config.resolution, config.resolution)
    )
    y = rng.integers(0, config.n_classes, size=batch)

    def loss_of() -> float:
        logits = net.forward(x, train=True, rng=None)
        loss, _ = cross_entropy(logits, y)
        return loss

    logits = net.forward(x, train=True, rng=None)
    _, dlogits = cross_entropy(logits, y)
    net.backward(dlogits)

    worst = 0.0
    for (_, param), (_, grad) in zip(net.named_params(), net.named_grads()):
        flat = param.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            hi = loss_of()
            flat[i] = keep - h
            lo = loss_of()
            flat[i] = keep
            numeric = (hi - lo) / (2.0 * h)
            denom = max(abs(numeric), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst
