import numpy as np
import pytest

from hometwin.errors import DimensionError
from hometwin.posture.net import (
    NetworkConfig,
    LayerSpec,
    PostureNet,
    config_for_resolution,
    cross_entropy,
    softmax,
    toy_config,
)
from hometwin.posture.train import gradient_check


def test_gradient_check_toy_network():
    assert gradient_check(seed=3) < 1e-4


def test_gradient_check_with_pooling():
    config = NetworkConfig(
        resolution=4,
        layers=(
            LayerSpec("conv", 2, 3, 1), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("pool"), LayerSpec("flatten"), LayerSpec("fc", 5),
        ),
        dropout_rate=0.0,
    )
    assert gradient_check(config, seed=1) < 1e-4


def test_gradient_check_with_batch_norm_after_dense():
    config = NetworkConfig(
        resolution=4,
        layers=(
            LayerSpec("conv", 2, 3, 1), LayerSpec("relu"), LayerSpec("flatten"),
            LayerSpec("bn"), LayerSpec("fc", 6), LayerSpec("bn"), LayerSpec("relu"),
            LayerSpec("fc", 5),
        ),
        dropout_rate=0.0,
    )
    assert gradient_check(config, seed=2) < 1e-4


def test_gradients_finite_at_zero_weights():
    net = PostureNet(toy_config(), seed=0, dtype=np.float64)
    for _, param in net.named_params():
        param[...] = 0.0
    x = np.random.default_rng(0).standard_normal((4, 20, 4, 4))
    y = np.array([0, 1, 2, 3])
    logits = net.forward(x, train=True)
    loss, dlogits = cross_entropy(logits, y)
    net.backward(dlogits)
    assert np.isfinite(loss)
    for _, grad in net.named_grads():
        assert np.all(np.isfinite(grad))


def test_buffers_are_not_parameters():
    net = PostureNet(toy_config(), seed=0)
    param_names = {name for name, _ in net.named_params()}
    buffer_names = {name for name, _ in net.named_buffers()}
    assert param_names.isdisjoint(buffer_names)
    assert any("running_mean" in name for name in buffer_names)


def test_softmax_normalization_random_inputs():
    rng = np.random.default_rng(5)
    for _ in range(50):
        logits = rng.normal(0, 5, size=(8, 5))
        probs = softmax(logits)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)


def test_prediction_probabilities_sum_to_one():
    rng = np.random.default_rng(1)
    net = PostureNet(config_for_resolution(4), seed=7)
    x = rng.uniform(0, 8, size=(16, 20, 4, 4)).astype(np.float32)
    probs = net.predict_proba(x)
    labels = probs.argmax(axis=1)
    for row, label in zip(probs, labels):
        assert row.sum() == pytest.approx(1.0, abs=1e-6)
        assert label == int(np.argmax(row))
    for _, param in net.named_params():
        param[...] = 0.0
    tied = net.predict_proba(x)  # every logit 0: ties, lowest index wins
    assert np.all(tied == tied[:, :1])
    assert np.all(tied.argmax(axis=1) == 0)


def test_inference_is_deterministic_and_repeatable():
    rng = np.random.default_rng(2)
    net = PostureNet(config_for_resolution(4), seed=7)
    x = rng.uniform(0, 8, size=(4, 20, 4, 4)).astype(np.float32)
    first = net.predict_proba(x)
    second = net.predict_proba(x)
    assert np.array_equal(first, second)


def test_dropout_inverted_scaling_preserves_expectation():
    # training-mode expectation of a dropped activation equals inference,
    # which has no dropout: a net's predictions do not depend on the rate
    from hometwin.posture.net import _Dropout

    drop = _Dropout(0.25)
    x = np.ones((2000, 8), dtype=np.float32)
    out = drop.forward(x, rng=np.random.default_rng(0))
    assert out.mean() == pytest.approx(1.0, abs=0.02)
    windows = np.random.default_rng(1).uniform(0, 8, size=(3, 20, 4, 4)).astype(np.float32)
    without = PostureNet(config_for_resolution(4, dropout_rate=0.0), seed=0)
    for rate in (0.25, 1.0):
        with_dropout = PostureNet(config_for_resolution(4, dropout_rate=rate), seed=0)
        assert np.all(with_dropout.predict_proba(windows) == without.predict_proba(windows))


def test_dropout_rate_one_blanks_everything():
    from hometwin.posture.net import _Dropout

    drop = _Dropout(1.0)
    x = np.ones((4, 4), dtype=np.float32)
    assert np.all(drop.forward(x, rng=np.random.default_rng(0)) == 0.0)


def test_batchnorm_inference_uses_running_stats():
    net = PostureNet(toy_config(), seed=0)
    rng = np.random.default_rng(3)
    # train a few batches so running stats move
    for _ in range(5):
        x = rng.normal(2.0, 3.0, size=(16, 20, 4, 4)).astype(np.float32)
        net.forward(x, train=True, rng=rng)
    x = rng.normal(2.0, 3.0, size=(4, 20, 4, 4)).astype(np.float32)
    assert np.array_equal(net.forward(x, train=False), net.forward(x, train=False))


def test_input_shape_validated():
    net = PostureNet(config_for_resolution(4), seed=0)
    with pytest.raises(DimensionError):
        net.forward(np.zeros((2, 20, 32, 32), dtype=np.float32), train=False)


def test_architecture_output_dimensions():
    for resolution in (4, 32):
        net = PostureNet(config_for_resolution(resolution), seed=0)
        x = np.zeros((3, 20, resolution, resolution), dtype=np.float32)
        assert net.forward(x, train=False).shape == (3, 5)


def test_state_dict_round_trip():
    net = PostureNet(config_for_resolution(4), seed=1)
    state = net.state_dict()
    other = PostureNet(config_for_resolution(4), seed=2)
    other.load_state_dict(state)
    x = np.random.default_rng(0).uniform(0, 5, size=(2, 20, 4, 4)).astype(np.float32)
    assert np.array_equal(net.predict_proba(x), other.predict_proba(x))
