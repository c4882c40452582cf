"""Differential tests of split posture inference against the serial block
loop it splits.

The oracle below is PostureNet._infer as it was before the split: one loop
over the whole batch in blocks of `_block_rows` windows.  With the split
forced on (one BLAS thread, two usable cores), the caller runs the first
half of the blocks and the helper thread the rest; every block is computed
as before, so the logits must be the same bits, NaN payloads and signed
zeros included.
"""

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

import hometwin.posture.net as net
from hometwin.posture.data import generate_posture_dataset
from hometwin.posture.net import PostureNet, _im2col, blas_threads


def serial_infer(model: PostureNet, x: np.ndarray) -> np.ndarray:
    layers = model._folded_layers()
    x = np.ascontiguousarray(x, dtype=model.dtype)
    out = np.empty((x.shape[0],) + model._out_shape, dtype=model.dtype)
    for lo in range(0, x.shape[0], model._block_rows):
        h = x[lo : lo + model._block_rows]
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
        out[lo : lo + model._block_rows] = h
    return out


def assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def real_windows():
    """Simulated posture windows of every class, per resolution."""
    return {r: generate_posture_dataset(r, k)[0] for r, k in ((4, 120), (32, 52))}


def batch(pool: np.ndarray, n: int, adversarial: bool, seed: int) -> np.ndarray:
    """n windows cycled from `pool`; adversarial ones carry NaN, +-inf, -0.0
    and 1e30 pixels, and whole windows of -0.0 and of 1e30."""
    x = pool[np.arange(n) % len(pool)].copy()
    if adversarial and n:
        rng = np.random.default_rng([seed, n])
        flat = x.reshape(-1)
        for value in (np.nan, np.inf, -np.inf, -0.0, 1e30, -1e30):
            flat[rng.integers(0, flat.size, size=max(1, n // 2))] = value
        x[rng.integers(0, n)] = -0.0
        x[rng.integers(0, n)] = 1e30
    return x


@pytest.fixture
def split(monkeypatch):
    """Split inference forced on (one BLAS thread, two usable cores), with a
    fresh helper; yields the (lo, hi, thread id) of each block-range call."""
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(net, "_helper", None)
    calls = []
    run = net._infer_blocks

    def recorded(layers, x, out, lo, hi, rows):
        calls.append((lo, hi, threading.get_ident()))
        run(layers, x, out, lo, hi, rows)

    monkeypatch.setattr(net, "_infer_blocks", recorded)
    yield calls
    if net._helper is not None:
        net._helper.shutdown()


def expected_calls(model: PostureNet, n: int) -> list[tuple[int, int, bool]]:
    """(lo, hi, on the caller's thread) of each block range, split forced on."""
    blocks = -(-n // model._block_rows)
    if blocks < 2:
        return [(0, n, True)]
    cut = (blocks + 1) // 2 * model._block_rows
    return [(cut, n, False), (0, cut, True)]


def seen_calls(calls) -> list[tuple[int, int, bool]]:
    me = threading.get_ident()
    return sorted((lo, hi, tid == me) for lo, hi, tid in calls)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("adversarial", [False, True])
@pytest.mark.parametrize("resolution", [4, 32])
def test_split_logits_are_bit_identical(small_models, real_windows, split, resolution, adversarial):
    model = small_models[0][resolution]
    rows = model._block_rows
    sizes = {0, 1, rows - 1, rows, rows + 1, 224, 256}
    sizes |= {3 * rows, 4 * rows - 1, 5 * rows + 1}  # 3, 4 and 6 blocks
    for n in sorted(s for s in sizes if s >= 0):
        x = batch(real_windows[resolution], n, adversarial, seed=resolution)
        want = serial_infer(model, x)
        split.clear()
        got = model.forward(x, train=False)
        assert_bits_equal(got, want)
        assert seen_calls(split) == sorted(expected_calls(model, n)), n
    if adversarial:
        assert np.isnan(want).any() or np.isinf(want).any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("resolution", [4, 32])
def test_float64_network_splits_bit_identically(split, real_windows, resolution):
    model = PostureNet(net.config_for_resolution(resolution), seed=3, dtype=np.float64)
    x = batch(real_windows[resolution], 2 * model._block_rows + 1, True, seed=3)
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))
    assert len(split) == 2


@pytest.mark.parametrize(
    "env, count",
    [
        ({}, None),  # BLAS runs one thread per core
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"GOTO_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 1),
        # precedence: OPENBLAS_NUM_THREADS, then GOTO_NUM_THREADS, then OMP_NUM_THREADS
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 1),
        ({"GOTO_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 3),
        ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        # a value that is not a positive count is passed over, as OpenBLAS does
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "", "GOTO_NUM_THREADS": "x"}, None),
        ({"OPENBLAS_NUM_THREADS": "-1", "OMP_NUM_THREADS": "2"}, 2),
    ],
)
def test_blas_thread_variables_are_read_as_openblas_reads_them(monkeypatch, env, count):
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert blas_threads() == count


@pytest.mark.parametrize(
    "env, cores, splits",
    [
        ({}, 2, False),  # BLAS runs one thread per core
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 2, False),
        ({"OMP_NUM_THREADS": "1"}, 2, True),
        ({"GOTO_NUM_THREADS": "1"}, 2, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),  # one usable core
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, True),
    ],
)
def test_when_the_split_engages(small_models, real_windows, split, monkeypatch, env, cores, splits):
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
    model = small_models[0][32]
    x = batch(real_windows[32], 4 * model._block_rows, False, seed=0)
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))
    if splits:
        assert seen_calls(split) == sorted(expected_calls(model, len(x)))
    else:
        assert seen_calls(split) == [(0, len(x), True)]
        assert net._helper is None  # never made


def test_helper_exception_reaches_the_caller(small_models, real_windows, split, monkeypatch):
    model = small_models[0][32]
    x = batch(real_windows[32], 5 * model._block_rows, False, seed=1)
    run = net._infer_blocks

    def helper_fails(layers, x, out, lo, hi, rows):
        if lo > 0:
            raise RuntimeError("helper half failed")
        run(layers, x, out, lo, hi, rows)

    monkeypatch.setattr(net, "_infer_blocks", helper_fails)
    with pytest.raises(RuntimeError, match="helper half failed"):
        model.forward(x, train=False)
    monkeypatch.setattr(net, "_infer_blocks", run)
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))


def test_caller_exception_waits_for_the_helper(small_models, real_windows, split, monkeypatch):
    model = small_models[0][32]
    x = batch(real_windows[32], 4 * model._block_rows, False, seed=2)
    run = net._infer_blocks
    helper_done = []

    def caller_fails(layers, x, out, lo, hi, rows):
        if lo == 0:
            raise RuntimeError("caller half failed")
        time.sleep(0.2)
        run(layers, x, out, lo, hi, rows)
        helper_done.append(hi)

    monkeypatch.setattr(net, "_infer_blocks", caller_fails)
    with pytest.raises(RuntimeError, match="caller half failed"):
        model.forward(x, train=False)
    assert helper_done == [len(x)]  # it had stopped writing before the raise


def test_numpy_error_state_reaches_the_helper(small_models, split):
    model = small_models[0][32]
    x = np.zeros((4 * model._block_rows, 20, 32, 32), dtype=np.float32)
    x[-1] = 3e38  # the helper's half overflows
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            model.forward(x, train=False)
    assert len(split) == 2


def test_repeated_calls_make_one_helper_thread(small_models, real_windows, split):
    model = small_models[0][32]
    x = batch(real_windows[32], 2 * model._block_rows, False, seed=3)
    before = threading.active_count()
    model.forward(x, train=False)
    helper = net._helper
    assert helper is not None
    for _ in range(20):
        model.forward(x, train=False)
    assert net._helper is helper
    assert threading.active_count() <= before + 1


def _infer_in_child(model: PostureNet, x: np.ndarray, want: np.ndarray, calls: list) -> None:
    calls.clear()
    got = model.forward(x, train=False)
    split_ran = sorted(tid == threading.get_ident() for _, _, tid in calls) == [False, True]
    os._exit(0 if split_ran and got.tobytes() == want.tobytes() else 1)


def test_forked_child_runs_split_inference(small_models, real_windows, split):
    model = small_models[0][32]
    x = batch(real_windows[32], 4 * model._block_rows, False, seed=4)
    want = serial_infer(model, x)
    assert_bits_equal(model.forward(x, train=False), want)  # the helper exists
    assert net._helper is not None
    child = multiprocessing.get_context("fork").Process(
        target=_infer_in_child, args=(model, x, want, split)
    )
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("split inference in a forked child hung")
    assert child.exitcode == 0
