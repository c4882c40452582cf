"""Differential tests of the training modules against the ones they replaced.

The oracles below are the former training code, kept here in behaviour:

- `OracleMaxPool2` regroups the input into [n, c, h/2, w/2, 4] tiles, takes
  each tile's argmax and scatters the gradient back with put_along_axis.
- `OracleConv.backward` forms the full gradient w.r.t. the conv input (a
  patch-gradient GEMM and a col2im scatter), and `oracle_backward` runs it
  for every module, the first conv included.
- `oracle_accuracy` and `oracle_confusion` each predict the test set once,
  in batches of 128, and fill the confusion matrix one window at a time.
- `WherePool.backward` fills each slot of the input gradient with
  `np.where(mask, dout, 0)`, and `CopytoPool.backward` with a masked
  `np.copyto` into each slot's stride-2 view.
- `OracleBatchNorm` takes the batch mean and `x.var` in two passes and runs
  its backward with a fresh temporary per term.
- `OracleAdam` keeps one pair of float64 moments per tensor and updates
  tensor by tensor.
- `oracle_im2col` pads its input with `np.pad`, and `slice_im2col` copies
  k*k slices of a zero-padded input at every output width.
- `oracle_train` copies the training, validation and test splits out of the
  dataset before it starts.

A whole training run with the oracles patched in must give the same bytes
as the lean modules: parameters, running statistics, curve, report and
inference probabilities.
"""

import itertools
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import hometwin.posture.net as net_module
from hometwin.config import PipelineConfig
from hometwin.posture.data import generate_posture_dataset
from hometwin.posture.net import (
    BN_EPS,
    BN_MOMENTUM,
    PostureNet,
    _BatchNorm,
    _col2im,
    _Conv,
    _im2col,
    _MaxPool2,
    config_for_resolution,
    cross_entropy,
    toy_config,
)
from hometwin.posture.train import (
    PREDICT_BATCH,
    Adam,
    TrainReport,
    stratified_split,
    train,
)


class OracleMaxPool2(_MaxPool2):
    def forward(self, x, rng):
        n, c, h, w = x.shape
        h2, w2 = h // 2, w // 2
        x = x[:, :, : h2 * 2, : w2 * 2]
        tiles = x.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
        arg = tiles.argmax(axis=-1)
        out = np.take_along_axis(tiles, arg[..., None], axis=-1)[..., 0]
        self._cache = (arg, (n, c, h, w), (h2, w2))
        return out

    def backward(self, dout):
        arg, (n, c, h, w), (h2, w2) = self._cache
        dtiles = np.zeros((n, c, h2, w2, 4), dtype=dout.dtype)
        np.put_along_axis(dtiles, arg[..., None], dout[..., None], axis=-1)
        dx = np.zeros((n, c, h, w), dtype=dout.dtype)
        dx[:, :, : h2 * 2, : w2 * 2] = (
            dtiles.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2 * 2, w2 * 2)
        )
        return dx


class OracleConv(_Conv):
    def backward(self, dout):
        cols, x_shape, (ho, wo) = self._cache
        n, o = dout.shape[0], dout.shape[1]
        f = self.w.size // o
        dmat = dout.reshape(n, o, ho * wo)
        self.dw = np.matmul(dmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(self.w.shape)
        self.db = dmat.sum(axis=(0, 2))
        dflat = np.ascontiguousarray(dmat.transpose(1, 0, 2)).reshape(o, -1)
        dcols = (self.w.reshape(o, f).T @ dflat).reshape(f, n, ho * wo).transpose(1, 0, 2)
        return _col2im(np.ascontiguousarray(dcols), x_shape, self.k, self.pad, ho, wo)


class WherePool(_MaxPool2):
    def backward(self, dout):
        masks, shape = self._cache
        he, we = shape[2] // 2 * 2, shape[3] // 2 * 2
        dx = np.zeros(shape, dtype=dout.dtype)
        zero = dout.dtype.type(0)
        for (i, j), mask in zip(self._SLOTS, masks):
            dx[:, :, i:he:2, j:we:2] = np.where(mask, dout, zero)
        return dx


class CopytoPool(_MaxPool2):
    def backward(self, dout):
        masks, shape = self._cache
        he, we = shape[2] // 2 * 2, shape[3] // 2 * 2
        dx = np.zeros(shape, dtype=dout.dtype)
        for (i, j), mask in zip(self._SLOTS, masks):
            np.copyto(dx[:, :, i:he:2, j:we:2], dout, where=mask)
        return dx


class OracleBatchNorm(_BatchNorm):
    def forward(self, x, rng):
        shape = (1, -1, 1, 1) if x.ndim == 4 else (1, -1)
        axes = (0, 2, 3) if x.ndim == 4 else (0,)
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (x - mean.reshape(shape)) * inv.reshape(shape)
        self.running_mean = BN_MOMENTUM * self.running_mean + (1 - BN_MOMENTUM) * mean
        self.running_var = BN_MOMENTUM * self.running_var + (1 - BN_MOMENTUM) * var
        self._cache = (xhat, inv, axes, shape)
        return self.gamma.reshape(shape) * xhat + self.beta.reshape(shape)

    def backward(self, dout):
        xhat, inv, axes, shape = self._cache
        self.dgamma = (dout * xhat).sum(axis=axes)
        self.dbeta = dout.sum(axis=axes)
        dxhat = dout * self.gamma.reshape(shape)
        return (
            dxhat
            - dxhat.mean(axis=axes).reshape(shape)
            - xhat * (dxhat * xhat).mean(axis=axes).reshape(shape)
        ) * inv.reshape(shape)


class OracleAdam:
    def __init__(self, params, lr, beta1, beta2, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in params}
        self.v = {name: np.zeros_like(arr, dtype=np.float64) for name, arr in params}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for (name, p), (_, g) in zip(params, grads):
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.b1) * (g - m)
            v += (1.0 - self.b2) * (g * g - v)
            p -= (self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)).astype(p.dtype)


def oracle_im2col(x, k, pad):
    n, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cols = np.empty((n, c, k, k, ho, wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = x[:, :, i : i + ho, j : j + wo]
    return cols.reshape(n, c * k * k, ho * wo), (ho, wo)


def slice_im2col(x, k, pad):
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


def oracle_train(x, y, config, seed, iterations, batch_size, val_every,
                 learning_rate=PipelineConfig.learning_rate,
                 beta1=PipelineConfig.adam_beta1, beta2=PipelineConfig.adam_beta2):
    """The copying training loop (stratification checks left out)."""
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    dev_idx, test_idx = stratified_split(y, 0.8, rng)
    train_rel, val_rel = stratified_split(y[dev_idx], 0.8, rng)
    train_idx, val_idx = dev_idx[train_rel], dev_idx[val_rel]
    x_train, y_train = x[train_idx], y[train_idx]
    x_val, y_val = x[val_idx], y[val_idx]
    x_test, y_test = x[test_idx], y[test_idx]

    net = PostureNet(config, seed=seed)
    optimizer = OracleAdam(net.named_params(), lr=learning_rate, beta1=beta1, beta2=beta2)
    best_state = net.state_dict()
    best_val = -1.0
    curve = []
    running_loss = 0.0
    for it in range(1, iterations + 1):
        pick = rng.integers(0, len(x_train), size=batch_size)
        logits = net.forward(x_train[pick], train=True, rng=rng)
        loss, dlogits = cross_entropy(logits, y_train[pick])
        net.backward(dlogits)
        optimizer.step(net.named_params(), net.named_grads())
        running_loss += loss
        if it % val_every == 0 or it == iterations:
            val_acc = oracle_accuracy(net, x_val, y_val, PREDICT_BATCH)
            curve.append((it, running_loss / min(val_every, it), val_acc))
            running_loss = 0.0
            if val_acc > best_val:
                best_val = val_acc
                best_state = net.state_dict()
    net.load_state_dict(best_state)
    report = TrainReport(
        test_accuracy=oracle_accuracy(net, x_test, y_test, PREDICT_BATCH),
        best_val_accuracy=best_val,
        confusion=oracle_confusion(net, x_test, y_test, PREDICT_BATCH),
        curve=curve,
        n_train=len(train_idx),
        n_val=len(val_idx),
        n_test=len(test_idx),
    )
    return net, report


@contextmanager
def oracle_modules(monkeypatch):
    """Every module, the backward pass and im2col as they were before."""
    with monkeypatch.context() as patch:
        patch.setattr(net_module, "_MaxPool2", OracleMaxPool2)
        patch.setattr(net_module, "_Conv", OracleConv)
        patch.setattr(net_module, "_BatchNorm", OracleBatchNorm)
        patch.setattr(net_module, "_im2col", oracle_im2col)
        patch.setattr(PostureNet, "backward", oracle_backward)
        yield


def oracle_backward(self, dlogits):
    dout = dlogits.astype(self.dtype)
    for m in reversed(self.modules):
        dout = m.backward(dout)
    return dout


def oracle_accuracy(net, x, y, batch=128):
    hits = 0
    for lo in range(0, len(x), batch):
        probs = net.predict_proba(x[lo : lo + batch])
        hits += int((probs.argmax(axis=1) == y[lo : lo + batch]).sum())
    return hits / len(x)


def oracle_confusion(net, x, y, batch=128):
    matrix = np.zeros((5, 5), dtype=np.int64)
    for lo in range(0, len(x), batch):
        pred = net.predict_proba(x[lo : lo + batch]).argmax(axis=1)
        for t, p in zip(y[lo : lo + batch], pred):
            matrix[int(t), int(p)] += 1
    return matrix


# ---------------------------------------------------------------------------
# max pool


def relu_like(shape, dtype, seed):
    """Normal values through the training ReLU, `x * (x > 0)`: every negative
    becomes -0.0, so most all-zero tiles mix -0.0 and +0.0."""
    x = np.random.default_rng(seed).standard_normal(shape).astype(dtype)
    return x * (x > 0)


def every_tie_tiles(dtype):
    """All 256 tiles over {-1, -0.0, +0.0, 1}, laid out as one 32x32 plane:
    every position of a first maximum and every signed-zero tie."""
    values = np.array([-1.0, -0.0, 0.0, 1.0], dtype=dtype)
    tiles = np.array(list(itertools.product(values, repeat=4)), dtype=dtype).reshape(16, 16, 2, 2)
    return tiles.transpose(0, 2, 1, 3).reshape(1, 1, 32, 32)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def pool_pair(x, dout):
    lean, oracle, where, copyto = _MaxPool2(), OracleMaxPool2(), WherePool(), CopytoPool()
    out, want = lean.forward(x, None), oracle.forward(x, None)
    assert_bits_equal(out, want)
    where.forward(x, None)
    copyto.forward(x, None)
    dx = lean.backward(dout)
    assert_bits_equal(dx, copyto.backward(dout))
    assert_bits_equal(dx, where.backward(dout))
    if not np.isnan(x).any():  # argmax takes a tile's first NaN, the masks (1,1)
        assert_bits_equal(dx, oracle.backward(dout))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 4, 30, 30), (2, 3, 13, 13), (2, 5, 5, 5), (2, 2, 13, 5), (1, 1, 1, 3)])
def test_pool_matches_oracle_after_relu(dtype, shape):
    x = relu_like(shape, dtype, seed=sum(shape))
    out_shape = shape[:2] + (shape[2] // 2, shape[3] // 2)
    dout = np.random.default_rng(1).standard_normal(out_shape).astype(dtype)
    dout[dout < -1.0] *= 0.0  # some -0.0 in the incoming gradient too
    pool_pair(x, dout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_oracle_on_every_tie(dtype):
    x = every_tie_tiles(dtype)
    for dout in (np.full((1, 1, 16, 16), -2.5, dtype), np.full((1, 1, 16, 16), -0.0, dtype)):
        pool_pair(x, dout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("side", [13, 5, 6])
def test_pool_matches_oracle_on_all_equal_tiles(dtype, side):
    dout = -np.arange(1, 2 * 3 * (side // 2) ** 2 + 1, dtype=dtype).reshape(2, 3, side // 2, side // 2)
    for value in (1.5, 0.0, -0.0, -3.0):
        pool_pair(np.full((2, 3, side, side), value, dtype), dout)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_backward_passes_signed_zeros_and_nan(dtype):
    x = relu_like((2, 3, 12, 12), dtype, seed=9)
    dout = np.random.default_rng(2).standard_normal((2, 3, 6, 6)).astype(dtype)
    specials = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], dtype)
    dout.reshape(-1)[::5] = np.resize(specials, dout.size)[: len(dout.reshape(-1)[::5])]
    pool_pair(x, dout)
    pool_pair(every_tie_tiles(dtype), np.resize(specials, (1, 1, 16, 16)).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 3, 7, 9), (2, 2, 1, 5), (3, 2, 6, 6)])
def test_pool_matches_copyto_on_nan_inf_and_signed_zero_pixels(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    x = relu_like(shape, dtype, seed=len(shape) + shape[-1])
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0], dtype)
    picks = rng.integers(0, x.size, size=max(1, x.size // 3))
    x.reshape(-1)[picks] = rng.choice(specials, picks.size)
    out_shape = shape[:2] + (shape[2] // 2, shape[3] // 2)
    dout = rng.standard_normal(out_shape).astype(dtype)
    dout.reshape(-1)[::2] = -0.0
    pool_pair(x, dout)
    pool_pair(np.full(shape, np.nan, dtype), dout)  # every tile NaN: all to (1,1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pool_matches_copyto_on_strided_input_and_gradient(dtype):
    x = relu_like((4, 3, 14, 11), dtype, seed=5)[::2, :, 1:, ::-1]  # (2, 3, 13, 11), not contiguous
    assert not x.flags.c_contiguous
    dout = np.random.default_rng(6).standard_normal((2, 3, 12, 5)).astype(dtype)[:, :, ::2]
    assert not dout.flags.c_contiguous
    pool_pair(x, dout)


def test_tile_origins_are_cached_read_only():
    pool = _MaxPool2()
    pool.forward(relu_like((2, 3, 5, 7), np.float32, seed=1), None)
    pool.backward(np.ones((2, 3, 2, 3), np.float32))
    origins = net_module._tile_origins(2, 3, 5, 7)
    assert origins is net_module._tile_origins(2, 3, 5, 7)
    assert not origins.flags.writeable
    assert origins.shape == (2, 3, 2, 3) and origins[1, 2, 1, 2] == (1 * 3 + 2) * 35 + 2 * 7 + 4
    assert net_module._tile_origins.cache_info().maxsize <= 16  # bounded


def test_pool_backward_writes_positive_zeros():
    x = relu_like((2, 3, 13, 13), np.float32, seed=4)
    pool = _MaxPool2()
    out = pool.forward(x, None)
    dx = pool.backward(-np.ones_like(out))
    assert np.count_nonzero(dx) == out.size
    assert not np.signbit(dx[dx == 0]).any()  # never dout * mask, which gives -0.0
    assert not dx[:, :, 12, :].any() and not dx[:, :, :, 12].any()  # odd edges dropped


def test_pool_nan_as_documented():
    x = np.zeros((1, 1, 2, 4), dtype=np.float32)
    x[0, 0, 0, 0] = np.nan  # first slot of the first tile
    x[0, 0, 0, 2:] = [1.0, np.nan]  # a number before a NaN in the second
    pool = _MaxPool2()
    out = pool.forward(x, None)
    assert np.isnan(out).all()
    dx = pool.backward(np.ones_like(out))
    assert dx[0, 0, 1, 1] == 1.0 and dx[0, 0, 1, 3] == 1.0  # slot (1,1), not the first NaN


# ---------------------------------------------------------------------------
# conv backward


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad, side", [(1, 4), (0, 13)])
def test_conv_backward_matches_oracle(dtype, pad, side):
    spec = net_module.LayerSpec("conv", 6, 3, pad)
    rng = np.random.default_rng(side)
    x = rng.standard_normal((3, 5, side, side)).astype(dtype)
    lean = _Conv(spec, 5, np.random.default_rng(0), dtype)
    oracle = OracleConv(spec, 5, np.random.default_rng(0), dtype)
    out = lean.forward(x, None)
    assert_bits_equal(out, oracle.forward(x, None))
    dout = rng.standard_normal(out.shape).astype(dtype)
    assert_bits_equal(lean.backward(dout), oracle.backward(dout))
    assert_bits_equal(lean.dw, oracle.dw)
    assert_bits_equal(lean.db, oracle.db)
    lean.dw = lean.db = None
    lean.param_grads(dout)
    assert_bits_equal(lean.dw, oracle.dw)
    assert_bits_equal(lean.db, oracle.db)


@pytest.mark.parametrize("resolution, scatters", [(4, 0), (32, 2)])
def test_backward_forms_no_input_gradient(resolution, scatters, monkeypatch):
    calls = []
    monkeypatch.setattr(net_module, "_col2im", lambda *a: calls.append(1) or _col2im(*a))
    net = PostureNet(config_for_resolution(resolution), seed=1)
    x = relu_like((4, 20, resolution, resolution), np.float32, seed=resolution)
    logits = net.forward(x, train=True, rng=np.random.default_rng(0))
    _, dlogits = cross_entropy(logits, np.arange(4))
    assert net.backward(dlogits) is None
    assert len(calls) == scatters  # only the convs after the first scatter
    assert all(g is not None and g.shape == p.shape
               for (_, g), (_, p) in zip(net.named_grads(), net.named_params()))


# ---------------------------------------------------------------------------
# whole training runs


# ---------------------------------------------------------------------------
# batch norm, Adam and im2col against their oracles


def bn_pair(x, dout, gamma_seed=0):
    channels = x.shape[1]
    lean, oracle = _BatchNorm(channels, x.dtype), OracleBatchNorm(channels, x.dtype)
    gamma = np.random.default_rng(gamma_seed).uniform(0.5, 1.5, channels).astype(x.dtype)
    lean.gamma[:] = oracle.gamma[:] = gamma
    lean.beta[:] = oracle.beta[:] = -gamma / 3
    assert_bits_equal(lean.forward(x, None), oracle.forward(x, None))
    for got, want in zip(lean._cache[:2], oracle._cache[:2]):  # xhat, and inv from x.var
        assert_bits_equal(got, want)
    assert_bits_equal(lean.running_mean, oracle.running_mean)
    assert_bits_equal(lean.running_var, oracle.running_var)
    assert_bits_equal(lean.backward(dout), oracle.backward(dout))
    assert_bits_equal(lean.dgamma, oracle.dgamma)
    assert_bits_equal(lean.dbeta, oracle.dbeta)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(16, 16, 30, 30), (3, 5, 4, 4), (1, 2, 1, 1), (64, 7)])
def test_batch_norm_matches_oracle(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    x = (rng.standard_normal(shape) * 3 + 1).astype(dtype)
    x[:, 0] = 2.5  # a constant channel: variance 0, xhat 0
    if x.shape[1] > 2:
        x[:, 1] = relu_like(x[:, 1].shape, dtype, seed=1)  # zeros of both signs
        x[:, 2] *= 1e-20  # tiny values, a variance near the float32 bottom
    dout = rng.standard_normal(shape).astype(dtype)
    bn_pair(x, dout)


def test_batch_norm_variance_is_numpy_var():
    for shape, axes in (((8, 16, 13, 13), (0, 2, 3)), ((32, 64), (0,))):
        x = np.random.default_rng(len(shape)).standard_normal(shape).astype(np.float32) + 7
        bn = _BatchNorm(shape[1], np.float32)
        bn.forward(x, None)
        # running_var starts at 1: 0.9 * 1 + 0.1 * var
        want = BN_MOMENTUM * np.ones(shape[1]) + (1 - BN_MOMENTUM) * x.var(axis=axes)
        assert_bits_equal(bn.running_var, want)
        assert_bits_equal(bn._cache[1], 1.0 / np.sqrt(x.var(axis=axes) + BN_EPS))


def adam_pair(params, grads_per_step, **kwargs):
    lean_params = [(name, p.copy()) for name, p in params]
    oracle_params = [(name, p.copy()) for name, p in params]
    lean, oracle = Adam(lean_params, **kwargs), OracleAdam(oracle_params, **kwargs)
    for grads in grads_per_step:
        named = [(name, g) for (name, _), g in zip(params, grads)]
        lean.step(lean_params, named)
        oracle.step(oracle_params, named)
        for (_, got), (_, want) in zip(lean_params, oracle_params):
            assert_bits_equal(got, want)
    flat_m = np.concatenate([m.reshape(-1) for m in oracle.m.values()])
    flat_v = np.concatenate([v.reshape(-1) for v in oracle.v.values()])
    assert_bits_equal(lean.m, flat_m)
    assert_bits_equal(lean.v, flat_v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_matches_oracle_on_zero_and_subnormal_grads(dtype):
    rng = np.random.default_rng(3)
    shapes = [(16, 20, 3, 3), (16,), (5, 64), (1,), (0,)]
    params = [(f"p{i}", rng.standard_normal(s).astype(dtype)) for i, s in enumerate(shapes)]
    tiny = np.finfo(dtype).smallest_subnormal
    steps = []
    for k in range(6):
        grads = [rng.standard_normal(s).astype(dtype) for s in shapes]
        if k % 2 == 0:
            grads[0][:] = 0.0  # a step with no gradient at all
            grads[1][:] = -0.0
        grads[2].reshape(-1)[::3] = tiny * rng.integers(-4, 5, grads[2].size)[::3]
        grads[3][:] = tiny
        steps.append(grads)
    adam_pair(params, steps, lr=1e-3, beta1=0.9, beta2=0.999)
    with np.errstate(all="ignore"):  # eps 0 makes 0 / 0 where a grad was always 0
        adam_pair(params, steps, lr=0.5, beta1=0.0, beta2=0.5, eps=0.0)


def special_pixels(x, seed):
    """x with NaN, +-inf and -0.0 written over a third of its pixels."""
    x = x.copy()
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, -0.0], x.dtype)
    picks = rng.integers(0, x.size, size=max(1, x.size // 3))
    x.reshape(-1)[picks] = rng.choice(specials, picks.size)
    return x


def im2col_pair(x, k, pad):
    cols, grid = _im2col(x, k, pad)
    for oracle in (slice_im2col, oracle_im2col):
        want, want_grid = oracle(x, k, pad)
        assert grid == want_grid
        assert_bits_equal(cols, want)
    return cols


# (shape, k, pad): the product's 4x4 conv and mixed cases, then output
# widths 1 to 8 around the cut, each pad, odd and 1x1 sides, k from 1 to 5,
# batch 1
IM2COL_CASES = [
    ((3, 20, 4, 4), 3, 1), ((2, 3, 5, 5), 3, 1), ((2, 2, 3, 7), 3, 1),
    ((1, 1, 1, 1), 3, 1), ((2, 3, 5, 4), 3, 2), ((2, 4, 13, 13), 3, 0),
    ((2, 3, 3, 3), 3, 0), ((2, 3, 5, 5), 3, 0), ((2, 3, 7, 8), 3, 0), ((2, 3, 8, 8), 3, 0),
    ((2, 3, 9, 9), 3, 0), ((2, 3, 10, 10), 3, 0), ((1, 20, 4, 4), 3, 1), ((2, 3, 5, 5), 3, 1),
    ((2, 3, 6, 6), 3, 1), ((2, 3, 7, 7), 3, 1), ((2, 3, 8, 8), 3, 1), ((2, 3, 1, 1), 3, 1),
    ((2, 3, 1, 1), 3, 2), ((2, 3, 3, 3), 3, 2), ((2, 3, 4, 4), 3, 2), ((1, 3, 5, 5), 3, 2),
    ((2, 3, 6, 6), 3, 2), ((2, 4, 6, 6), 1, 0), ((2, 4, 7, 5), 2, 1), ((2, 2, 9, 9), 5, 1),
    ((1, 1, 1, 1), 1, 0), ((3, 2, 13, 1), 1, 1),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, k, pad", IM2COL_CASES)
def test_im2col_matches_np_pad(dtype, shape, k, pad):
    """Equal to both oracles on the path its output width takes, also with
    NaN, +-inf and -0.0 pixels."""
    x = relu_like(shape, dtype, seed=7) - relu_like(shape, dtype, seed=8)
    net_module._patch_index.cache_clear()
    cols = im2col_pair(x, k, pad)
    wo = shape[3] + 2 * pad - k + 1
    gathered = net_module._patch_index.cache_info().currsize == 1
    assert gathered == (wo <= net_module.GATHER_MAX_WIDTH)
    assert cols.flags.c_contiguous and cols.flags.writeable
    im2col_pair(special_pixels(x, seed=len(IM2COL_CASES)), k, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("pad", [0, 1, 2])
def test_im2col_matches_slices_on_strided_input(dtype, pad):
    for wide in (False, True):
        side = 13 if wide else 6
        base = special_pixels(relu_like((4, 6, side + 2, side), dtype, seed=pad), seed=pad)
        x = base[::2, ::-2, 2:]  # (2, 3, side, side), not contiguous
        assert not x.flags.c_contiguous
        im2col_pair(x, 3, pad)
        im2col_pair(np.transpose(base[:, :, :side], (0, 1, 3, 2)), 3, pad)


def test_im2col_routes_the_product_widths():
    """The 4x4 conv and the 32x32 conv3 (6x6 -> 4x4) gather; the 32x32
    conv1 (30 wide) and conv2 (13 wide) copy slices."""
    assert 4 <= net_module.GATHER_MAX_WIDTH < 13
    net_module._patch_index.cache_clear()
    for shape, pad in (((2, 20, 32, 32), 0), ((2, 16, 15, 15), 0), ((2, 20, 4, 4), 1), ((2, 32, 6, 6), 0)):
        im2col_pair(relu_like(shape, np.float32, seed=3), 3, pad)
    info = net_module._patch_index.cache_info()
    assert info.currsize == 2
    index = net_module._patch_index(20, 4, 4, 3, 1)
    assert net_module._patch_index(32, 6, 6, 3, 0) is net_module._patch_index(32, 6, 6, 3, 0)
    assert net_module._patch_index.cache_info().hits == info.hits + 3
    assert not index.flags.writeable and index.shape == (180, 16)
    assert index.max() == 20 * 16  # the zero column, for the padding


def test_float64_toy_net_steps_match_oracle(monkeypatch):
    """Forward, backward and Adam on a float64 toy net, step by step."""
    rng = np.random.default_rng(11)
    xs = [rng.standard_normal((6, 20, 4, 4)) for _ in range(5)]
    xs[2][:, 3] = 0.25  # an input channel that stays constant
    ys = [rng.integers(0, 5, 6) for _ in range(5)]

    def run(adam_cls):
        net = PostureNet(toy_config(), seed=2, dtype=np.float64)
        opt = adam_cls(net.named_params(), lr=0.01, beta1=0.9, beta2=0.999)
        states = []
        for x, y in zip(xs, ys):
            logits = net.forward(x, train=True, rng=None)
            _, dlogits = cross_entropy(logits, y)
            net.backward(dlogits)
            opt.step(net.named_params(), net.named_grads())
            states.append((net.state_dict(), net.predict_proba(xs[0])))
        return states

    got = run(Adam)
    with oracle_modules(monkeypatch):
        want = run(OracleAdam)
    for (state, probs), (want_state, want_probs) in zip(got, want):
        assert sorted(state) == sorted(want_state)
        for name in state:
            assert state[name].dtype == np.float64
            assert_bits_equal(state[name], want_state[name])
        assert_bits_equal(probs, want_probs)


# ---------------------------------------------------------------------------
# whole training runs


def benchmark_data(resolution, per_class, seed=7):
    """A dataset as the train_posture benchmark renders it (4 dataset seeds)."""
    return generate_posture_dataset(resolution, per_class, seeds=tuple(seed * 10 + k for k in range(4)))


@pytest.fixture(scope="module")
def datasets():
    return {
        4: generate_posture_dataset(4, 30, seeds=(0,)),
        32: generate_posture_dataset(32, 8, seeds=(0,)),
        "4-bench": benchmark_data(4, 200),
        "32-bench": benchmark_data(32, 100),
        "4-few": generate_posture_dataset(4, 6, seeds=(0,)),
    }


# name: (dataset, config, iterations, batch, val_every)
CASES = {
    "4x4": (4, lambda: config_for_resolution(4, dropout_rate=0.0), 24, 16, 8),
    "4x4-dropout": (4, lambda: config_for_resolution(4, dropout_rate=0.25), 24, 16, 8),
    "32x32": (32, lambda: config_for_resolution(32, dropout_rate=0.0), 4, 8, 2),
    "32x32-dropout": (32, lambda: config_for_resolution(32, dropout_rate=0.25), 4, 8, 2),
    "toy": (4, toy_config, 24, 16, 8),
    # the train_posture budgets, at the benchmark's training seed below
    "4x4-benchmark": ("4-bench", lambda: config_for_resolution(4), 60, 64, 30),
    "32x32-benchmark": ("32-bench", lambda: config_for_resolution(32), 16, 16, 16),
    # 19 training windows under a 64-window batch: every pick repeats rows
    "4x4-repeated-rows": ("4-few", lambda: config_for_resolution(4), 12, 64, 4),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_matches_oracle_modules(case, datasets, monkeypatch):
    data, make_config, iterations, batch, val_every = CASES[case]
    x, y = datasets[data]
    seed = 11 if case.endswith("benchmark") else 5
    kwargs = dict(seed=seed, iterations=iterations, batch_size=batch, val_every=val_every)
    net, report = train(x, y, make_config(), **kwargs)
    with oracle_modules(monkeypatch):
        want_net, want_report = oracle_train(x, y, make_config(), **kwargs)
        assert any(isinstance(m, OracleMaxPool2) for m in want_net.modules) == (x.shape[-1] == 32)
        assert isinstance(want_net.modules[0], OracleConv)
        assert any(isinstance(m, OracleBatchNorm) for m in want_net.modules)
        want_probs = want_net.predict_proba(x)
    state, want = net.state_dict(), want_net.state_dict()
    assert sorted(state) == sorted(want)
    for name in state:
        assert_bits_equal(state[name], want[name])
    assert report.curve == want_report.curve
    assert report.to_text() == want_report.to_text()
    assert report.curve_csv() == want_report.curve_csv()
    assert report.test_accuracy == want_report.test_accuracy
    assert_bits_equal(report.confusion, want_report.confusion)
    assert_bits_equal(net.predict_proba(x), want_probs)
    if case == "4x4-repeated-rows":
        assert report.n_train < batch


def traced_training_peak(x, y):
    tracemalloc.start()
    try:
        train(x, y, config_for_resolution(32), seed=3, iterations=4, batch_size=8, val_every=2)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_training_reads_the_dataset_in_place():
    """Doubling the windows adds far less traced memory than the windows
    themselves: no split of `x` is copied whole (a copy of all three splits
    would add a whole `x`)."""
    small, big = (generate_posture_dataset(32, n, seeds=(0, 1)) for n in (40, 80))
    extra = big[0].nbytes - small[0].nbytes
    grew = traced_training_peak(*big) - traced_training_peak(*small)
    assert grew < extra / 4, (grew, extra)
