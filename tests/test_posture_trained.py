"""Prediction-contract checks that need a trained model (shared fixture)."""

import numpy as np
import pytest

from hometwin.core import PostureLabel
from hometwin.posture.data import render_window


def test_empty_room_window_is_not_here(small_models):
    models, _ = small_models
    rng = np.random.default_rng(0)
    # rectified noise only: what an empty room's residual window looks like
    noise = np.maximum(rng.normal(0, 0.3, size=(20, 20, 4, 4)), 0).astype(np.float32)
    probs = models[4].predict_proba(noise)
    for row, label in zip(probs, probs.argmax(axis=1)):
        assert PostureLabel(int(label)) is PostureLabel.NOT_HERE
        assert row[PostureLabel.NOT_HERE.value] >= 0.9


def test_all_zero_window_is_not_here(small_models):
    models, _ = small_models
    probs = models[4].predict_proba(np.zeros((1, 20, 4, 4), dtype=np.float32))
    assert PostureLabel(int(probs.argmax(axis=1)[0])) is PostureLabel.NOT_HERE
    assert probs[0, PostureLabel.NOT_HERE.value] >= 0.9


@pytest.mark.parametrize("resolution", [4, 32])
def test_lie_down_batch_recognized(small_models, resolution):
    models, _ = small_models
    windows = np.stack(
        [
            render_window(
                PostureLabel.LIE_DOWN,
                resolution,
                np.random.default_rng([7, resolution, i]),
            )
            for i in range(200)
        ]
    ).astype(np.float32)
    preds = models[resolution].predict_proba(windows)
    hits = (preds.argmax(axis=1) == PostureLabel.LIE_DOWN.value).mean()
    assert hits >= 0.95


def test_probabilities_always_normalized(small_models):
    models, _ = small_models
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 9, size=(32, 20, 4, 4)).astype(np.float32)
    probs = models[4].predict_proba(x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs >= 0)
