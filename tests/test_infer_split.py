"""Differential tests of two-core posture inference against the serial block
loop it replaces.

The oracle below is PostureNet._infer as it was before the helper thread:
one loop over the whole batch in blocks of `_block_rows` windows.  With the
helper forced on (one BLAS thread, two usable cores), the caller and the
helper claim the blocks in order from one counter; every block is computed
as before, so the logits must be the same bits, NaN payloads and signed
zeros included.  `tests/test_infer_stream.py` covers the streamed path,
where the helper starts while the tracker still runs.
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


class Blocks:
    """What the block executor ran: (a, b, on the caller's thread) of each
    block, in the order they started.  With `turns`, the caller's first
    block waits until the helper has started one, so that both threads
    take part whatever the scheduler does."""

    def __init__(self, run_block):
        self.calls: list[tuple[int, int, bool]] = []
        self.turns = False
        self.helper_started = threading.Event()
        self.caller = threading.get_ident()
        self._run_block = run_block

    def clear(self) -> None:
        self.calls.clear()
        self.helper_started.clear()

    def ranges(self) -> list[tuple[int, int]]:
        return sorted((a, b) for a, b, _ in self.calls)

    def threads(self) -> set[bool]:
        return {mine for _, _, mine in self.calls}

    def wrap(self, body=None):
        """A `BlockRun._run_block` that records each block, then runs
        `body(run, a, b, on_caller)` (the real block by default)."""
        blocks = self

        def run_block(run, a, b):
            mine = threading.get_ident() == blocks.caller
            blocks.calls.append((a, b, mine))
            if not mine:
                blocks.helper_started.set()
            elif blocks.turns and not blocks.helper_started.wait(timeout=30):
                raise AssertionError("the helper never started a block")
            if body is None:
                blocks._run_block(run, a, b)
            else:
                body(run, a, b, mine)

        return run_block


@pytest.fixture
def split(monkeypatch):
    """The helper forced on (one BLAS thread, two usable cores), fresh;
    yields the `Blocks` record of the block executor."""
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(net, "_helper", None)
    blocks = Blocks(net.BlockRun._run_block)
    monkeypatch.setattr(net.BlockRun, "_run_block", blocks.wrap())
    yield blocks
    if net._helper is not None:
        net._helper.shutdown()


def grid(model: PostureNet, n: int) -> list[tuple[int, int]]:
    """Each block's [a, b) window range for one call of n windows."""
    rows = model._block_rows
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


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
        split.turns = len(grid(model, n)) >= 2
        got = model.forward(x, train=False)
        assert_bits_equal(got, want)
        assert split.ranges() == grid(model, n), n
        if split.turns:
            assert split.threads() == {True, False}, n
        else:
            assert split.threads() <= {True}, n
    if adversarial:
        assert np.isnan(want).any() or np.isinf(want).any()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("resolution", [4, 32])
def test_float64_network_splits_bit_identically(split, real_windows, resolution):
    model = PostureNet(net.config_for_resolution(resolution), seed=3, dtype=np.float64)
    x = batch(real_windows[resolution], 2 * model._block_rows + 1, True, seed=3)
    split.turns = True
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))
    assert split.ranges() == grid(model, len(x))
    assert split.threads() == {True, False}


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
    split.turns = splits
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))
    assert split.ranges() == grid(model, len(x))
    if splits:
        assert split.threads() == {True, False}
    else:
        # every block on the caller, in order
        assert split.calls == [(a, b, True) for a, b in grid(model, len(x))]
        assert net._helper is None  # never made


def test_helper_exception_reaches_the_caller(small_models, real_windows, split, monkeypatch):
    model = small_models[0][32]
    x = batch(real_windows[32], 5 * model._block_rows, False, seed=1)
    run = net.BlockRun._run_block

    def helper_fails(block_run, a, b, on_caller):
        if not on_caller:
            raise RuntimeError("helper block failed")
        run(block_run, a, b)

    monkeypatch.setattr(net.BlockRun, "_run_block", split.wrap(helper_fails))
    split.turns = True
    with pytest.raises(RuntimeError, match="helper block failed"):
        model.forward(x, train=False)
    monkeypatch.setattr(net.BlockRun, "_run_block", split.wrap())
    split.clear()
    assert_bits_equal(model.forward(x, train=False), serial_infer(model, x))
    assert split.threads() == {True, False}  # the same helper runs again


def test_caller_exception_waits_for_the_helper(small_models, real_windows, split, monkeypatch):
    model = small_models[0][32]
    x = batch(real_windows[32], 4 * model._block_rows, False, seed=2)
    run = net.BlockRun._run_block
    helper_blocks = {"started": 0, "done": 0}

    def caller_fails(block_run, a, b, on_caller):
        if on_caller:
            raise RuntimeError("caller block failed")
        helper_blocks["started"] += 1
        time.sleep(0.2)
        run(block_run, a, b)
        helper_blocks["done"] += 1

    monkeypatch.setattr(net.BlockRun, "_run_block", split.wrap(caller_fails))
    split.turns = True
    with pytest.raises(RuntimeError, match="caller block failed"):
        model.forward(x, train=False)
    # the helper had finished the block it was writing, and took no other
    assert helper_blocks["started"] == helper_blocks["done"] == 1


def test_numpy_error_state_reaches_the_helper(small_models, split, monkeypatch):
    model = small_models[0][32]
    x = np.zeros((4 * model._block_rows, 20, 32, 32), dtype=np.float32)
    x[-1] = 3e38  # the last block overflows
    run = net.BlockRun._run_block
    seen = []

    def record(block_run, a, b, on_caller):
        if not on_caller:
            seen.append(np.geterr()["over"])
        run(block_run, a, b)

    monkeypatch.setattr(net.BlockRun, "_run_block", split.wrap(record))
    split.turns = True
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            model.forward(x, train=False)
    assert seen and set(seen) == {"raise"}


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


def _infer_in_child(model: PostureNet, x: np.ndarray, want: np.ndarray, blocks: Blocks) -> None:
    blocks.clear()
    blocks.caller = threading.get_ident()
    got = model.forward(x, train=False)
    ok = blocks.threads() == {True, False} and got.tobytes() == want.tobytes()
    os._exit(0 if ok else 1)


def test_forked_child_runs_split_inference(small_models, real_windows, split):
    model = small_models[0][32]
    x = batch(real_windows[32], 4 * model._block_rows, False, seed=4)
    want = serial_infer(model, x)
    assert_bits_equal(model.forward(x, train=False), want)  # the helper exists
    assert net._helper is not None
    split.turns = True
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


@pytest.mark.parametrize("resolution", [4, 32])
@pytest.mark.parametrize("engaged", [False, True])
def test_no_windows_give_no_labels(small_models, resolution, engaged, monkeypatch):
    """`predict_labels` on zero windows, or on an empty `rows`, returns an
    empty int64 array, as `predict_proba` returns a (0, 5) one."""
    for var in net.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if engaged:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    model = small_models[0][resolution]
    empty = np.zeros((0, 20, resolution, resolution), dtype=np.float32)
    some = np.zeros((3, 20, resolution, resolution), dtype=np.float32)
    assert model.predict_proba(empty).shape == (0, 5)
    for got in (
        model.predict_labels(empty, 256),
        model.predict_labels(some, 256, np.empty(0, dtype=np.int64)),
        model.predict_labels(empty, 256, ahead=model.run_ahead(0, 256, lambda a, b: empty)),
    ):
        assert got.dtype == np.int64 and got.shape == (0,)
