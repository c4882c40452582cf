"""Differential tests of PostureNet's inference path against the eval-mode
module forward it replaced.

The oracle below is that former forward, kept here verbatim in behaviour:
every module runs on the whole batch, batch norm applies its float64 running
statistics to the conv output, pooling takes the argmax of each 2x2 tile,
and dropout passes its input through.
"""

import numpy as np
import pytest

from hometwin.errors import DimensionError
from hometwin.posture.net import (
    BN_EPS,
    LayerSpec,
    NetworkConfig,
    PostureNet,
    _BatchNorm,
    _Conv,
    _Dense,
    _Dropout,
    _Flatten,
    _im2col,
    _MaxPool2,
    _ReLU,
    config_for_resolution,
    softmax,
    toy_config,
)

PROB_TOL = 1e-5


def reference_forward(net: PostureNet, x: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(x, dtype=net.dtype)
    for m in net.modules:
        if isinstance(m, _Conv):
            cols, (ho, wo) = _im2col(out, m.k, m.pad)
            wmat = m.w.reshape(m.w.shape[0], -1)
            y = np.matmul(wmat[None], cols)
            y += m.b[None, :, None]
            out = y.reshape(out.shape[0], -1, ho, wo)
        elif isinstance(m, _BatchNorm):
            shape = (1, -1, 1, 1) if out.ndim == 4 else (1, -1)
            inv = 1.0 / np.sqrt(m.running_var + BN_EPS)
            xhat = (out - m.running_mean.reshape(shape)) * inv.reshape(shape)
            out = (m.gamma.reshape(shape) * xhat + m.beta.reshape(shape)).astype(out.dtype)
        elif isinstance(m, _ReLU):
            out = out * (out > 0)
        elif isinstance(m, _MaxPool2):
            n, c, h, w = out.shape
            h2, w2 = h // 2, w // 2
            tiles = (
                out[:, :, : h2 * 2, : w2 * 2]
                .reshape(n, c, h2, 2, w2, 2)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(n, c, h2, w2, 4)
            )
            arg = tiles.argmax(axis=-1)
            out = np.take_along_axis(tiles, arg[..., None], axis=-1)[..., 0]
        elif isinstance(m, _Dropout):
            pass
        elif isinstance(m, _Flatten):
            out = out.reshape(out.shape[0], -1)
        elif isinstance(m, _Dense):
            out = out @ m.w.T + m.b
        else:
            raise TypeError(type(m))
    return out


def assert_matches_reference(net: PostureNet, x: np.ndarray) -> None:
    got = net.predict_proba(x)
    want = softmax(reference_forward(net, x))
    assert got.shape == want.shape == (len(x), 5)
    assert got.dtype == net.dtype
    assert np.max(np.abs(got - want), initial=0.0) <= PROB_TOL
    assert np.array_equal(got.argmax(axis=1), want.argmax(axis=1))


def windows(resolution: int, n: int, seed: int, scale: float = 8.0) -> np.ndarray:
    rng = np.random.default_rng([seed, resolution, n])
    x = np.maximum(rng.normal(0.0, scale / 3, size=(n, 20, resolution, resolution)), 0.0)
    return x.astype(np.float32)


def move_running_stats(net: PostureNet, seed: int) -> None:
    """Train-mode passes plus perturbed affine parameters, as after training."""
    rng = np.random.default_rng(seed)
    res = net.config.resolution
    for _ in range(3):
        x = rng.normal(2.0, 3.0, size=(8, 20, res, res)).astype(net.dtype)
        net.forward(x, train=True, rng=rng)
    for m in net.modules:
        if isinstance(m, _BatchNorm):
            m.gamma[...] = rng.uniform(0.5, 2.0, m.gamma.shape)
            m.beta[...] = rng.normal(0.0, 0.5, m.beta.shape)


@pytest.mark.parametrize("resolution", [4, 32])
def test_trained_models_match_reference(small_models, resolution):
    models, _ = small_models
    net = models[resolution]
    assert_matches_reference(net, windows(resolution, 64, seed=1))


@pytest.mark.parametrize("resolution", [4, 32])
def test_batch_sizes_around_the_block(small_models, resolution):
    models, _ = small_models
    net = models[resolution]
    rows = net._block_rows
    for n in sorted({1, max(1, rows - 1), rows, rows + 1, 257}):
        assert_matches_reference(net, windows(resolution, n, seed=2))


@pytest.mark.parametrize("resolution", [4, 32])
def test_float64_network(resolution):
    net = PostureNet(config_for_resolution(resolution), seed=4, dtype=np.float64)
    move_running_stats(net, seed=4)
    x = windows(resolution, net._block_rows + 3, seed=4)
    assert_matches_reference(net, x)
    assert net.predict_proba(x).dtype == np.float64


@pytest.mark.parametrize("resolution", [4, 32])
def test_pool_ties_on_constant_input(resolution):
    net = PostureNet(config_for_resolution(resolution), seed=5)
    move_running_stats(net, seed=5)
    for value in (0.0, 1.5, -2.0):
        x = np.full((5, 20, resolution, resolution), value, dtype=np.float32)
        assert_matches_reference(net, x)


@pytest.mark.parametrize("resolution", [4, 32])
def test_large_magnitude_inputs(small_models, resolution):
    models, _ = small_models
    x = windows(resolution, 16, seed=6, scale=3e4)
    assert np.abs(x).max() >= 1e4
    assert_matches_reference(models[resolution], x)


@pytest.mark.parametrize("resolution", [4, 32])
def test_fold_follows_moved_running_stats(resolution):
    net = PostureNet(config_for_resolution(resolution), seed=7)
    x = windows(resolution, 9, seed=7)
    before = net.predict_proba(x)
    move_running_stats(net, seed=7)
    assert not np.allclose(before, net.predict_proba(x))
    assert_matches_reference(net, x)


def test_toy_network_without_pool_or_dropout():
    net = PostureNet(toy_config(), seed=8)
    move_running_stats(net, seed=8)
    assert_matches_reference(net, windows(4, 10, seed=8))


def test_batch_norm_after_dense_and_without_a_layer_to_fold_into():
    # folded into a dense layer, and kept as an affine step after ReLU and flatten
    config = NetworkConfig(
        resolution=4,
        layers=(
            LayerSpec("bn"), LayerSpec("conv", 4, 3, 1), LayerSpec("relu"), LayerSpec("bn"),
            LayerSpec("flatten"), LayerSpec("bn"), LayerSpec("fc", 8), LayerSpec("bn"),
            LayerSpec("relu"), LayerSpec("fc", 5),
        ),
    )
    net = PostureNet(config, seed=13)
    move_running_stats(net, seed=13)
    assert_matches_reference(net, windows(4, 7, seed=13))


@pytest.mark.parametrize("resolution", [4, 32])
def test_inference_writes_nothing_to_the_model(resolution):
    net = PostureNet(config_for_resolution(resolution), seed=10)
    rng = np.random.default_rng(10)
    x = windows(resolution, 4, seed=10)
    logits = net.forward(x, train=True, rng=rng)
    net.backward(np.ones_like(logits))
    before = [dict(vars(m)) for m in net.modules]
    net_before = dict(vars(net))
    net.predict_proba(windows(resolution, 300, seed=11))
    for m, fields in zip(net.modules, before):
        assert vars(m).keys() == fields.keys()
        for name, value in fields.items():
            assert getattr(m, name) is value, f"{type(m).__name__}.{name} rebound"
    assert vars(net).keys() == net_before.keys()
    for name, value in net_before.items():
        assert getattr(net, name) is value


@pytest.mark.parametrize("resolution", [4, 32])
def test_empty_batch(resolution):
    net = PostureNet(config_for_resolution(resolution), seed=12)
    probs = net.predict_proba(np.zeros((0, 20, resolution, resolution), dtype=np.float32))
    assert probs.shape == (0, 5)
    other = 32 if resolution == 4 else 4
    with pytest.raises(DimensionError):
        net.predict_proba(np.zeros((0, 20, other, other), dtype=np.float32))
    with pytest.raises(DimensionError):
        net.predict_proba(np.zeros((0, 19, resolution, resolution), dtype=np.float32))
