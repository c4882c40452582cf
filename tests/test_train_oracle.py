"""Differential tests of the training modules against the ones they replaced.

The oracles below are the former training code, kept here in behaviour:

- `OracleMaxPool2` regroups the input into [n, c, h/2, w/2, 4] tiles, takes
  each tile's argmax and scatters the gradient back with put_along_axis.
- `OracleConv.backward` forms the full gradient w.r.t. the conv input (a
  patch-gradient GEMM and a col2im scatter), and `oracle_backward` runs it
  for every module, the first conv included.
- `oracle_accuracy` and `oracle_confusion` each predict the test set once,
  in batches of 128, and fill the confusion matrix one window at a time.

A whole training run with the oracles patched in must give the same bytes
as the lean modules: parameters, running statistics, curve, report and
inference probabilities.
"""

import itertools

import numpy as np
import pytest

import hometwin.posture.net as net_module
from hometwin.posture.data import generate_posture_dataset
from hometwin.posture.net import (
    PostureNet,
    _col2im,
    _Conv,
    _MaxPool2,
    config_for_resolution,
    cross_entropy,
    toy_config,
)
from hometwin.posture.train import stratified_split, train


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
    lean, oracle = _MaxPool2(), OracleMaxPool2()
    out, want = lean.forward(x, None), oracle.forward(x, None)
    assert_bits_equal(out, want)
    assert_bits_equal(lean.backward(dout), oracle.backward(dout))


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


@pytest.fixture(scope="module")
def datasets():
    return {4: generate_posture_dataset(4, 30, seeds=(0,)), 32: generate_posture_dataset(32, 8, seeds=(0,))}


CASES = {
    "4x4": (4, lambda: config_for_resolution(4, dropout_rate=0.0), 24, 16, 8),
    "4x4-dropout": (4, lambda: config_for_resolution(4, dropout_rate=0.25), 24, 16, 8),
    "32x32": (32, lambda: config_for_resolution(32, dropout_rate=0.0), 4, 8, 2),
    "32x32-dropout": (32, lambda: config_for_resolution(32, dropout_rate=0.25), 4, 8, 2),
    "toy": (4, toy_config, 24, 16, 8),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_training_matches_oracle_modules(case, datasets, monkeypatch):
    resolution, make_config, iterations, batch, val_every = CASES[case]
    x, y = datasets[resolution]
    kwargs = dict(seed=5, iterations=iterations, batch_size=batch, val_every=val_every)
    net, report = train(x, y, make_config(), **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(net_module, "_MaxPool2", OracleMaxPool2)
        patch.setattr(net_module, "_Conv", OracleConv)
        patch.setattr(PostureNet, "backward", oracle_backward)
        want_net, want_report = train(x, y, make_config(), **kwargs)
        assert any(isinstance(m, OracleMaxPool2) for m in want_net.modules) == (resolution == 32)
        assert isinstance(want_net.modules[0], OracleConv)
    state, want = net.state_dict(), want_net.state_dict()
    assert sorted(state) == sorted(want)
    for name in state:
        assert_bits_equal(state[name], want[name])
    assert report.curve == want_report.curve
    assert report.to_text() == want_report.to_text()
    assert report.curve_csv() == want_report.curve_csv()
    assert_bits_equal(report.confusion, want_report.confusion)
    assert_bits_equal(net.predict_proba(x), want_net.predict_proba(x))

    # the test set, predicted once, gives what two separate passes gave
    _, test_idx = stratified_split(np.asarray(y), 0.8, np.random.default_rng(5))
    assert report.test_accuracy == oracle_accuracy(net, x[test_idx], y[test_idx])
    assert_bits_equal(report.confusion, oracle_confusion(net, x[test_idx], y[test_idx]))
