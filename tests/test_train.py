import json
import struct

import numpy as np
import pytest

from hometwin.errors import StratificationError
from hometwin.posture.data import generate_posture_dataset, render_window
from hometwin.posture.model_io import load_model, save_model
from hometwin.posture.net import STEP_BUFFERS, PostureNet, config_for_resolution
from hometwin.posture.train import stratified_split, train
from hometwin.core import PostureLabel
from hometwin.errors import ModelFormatError


@pytest.fixture(scope="module")
def small_dataset():
    return generate_posture_dataset(4, 150, seeds=(0, 1))


def test_dataset_is_balanced_and_deterministic():
    x1, y1 = generate_posture_dataset(4, 20)
    x2, y2 = generate_posture_dataset(4, 20)
    assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
    assert [int((y1 == c).sum()) for c in range(5)] == [20] * 5
    assert x1.shape == (100, 20, 4, 4)
    assert np.all(x1 >= 0)  # residuals are clamped


def test_render_window_classes_differ():
    rng = np.random.default_rng(0)
    windows = {
        label: render_window(label, 4, np.random.default_rng([label.value, 1]), noise_sigma=0.0)
        for label in PostureLabel
    }
    assert windows[PostureLabel.NOT_HERE].max() == 0.0
    for label in (PostureLabel.SIT, PostureLabel.STAND, PostureLabel.LIE_DOWN, PostureLabel.WALK):
        assert windows[label].max() > 1.0  # a body is visible


def test_stratified_split_fractions():
    labels = np.repeat(np.arange(5), 100)
    rng = np.random.default_rng(0)
    first, second = stratified_split(labels, 0.8, rng)
    assert len(first) == 400 and len(second) == 100
    for c in range(5):
        assert int((labels[first] == c).sum()) == 80
    assert set(first) | set(second) == set(range(500))
    assert set(first).isdisjoint(second)


def test_missing_class_raises():
    x = np.zeros((40, 20, 4, 4), dtype=np.float32)
    y = np.zeros(40, dtype=np.uint8)  # one class only
    with pytest.raises(StratificationError):
        train(x, y, config_for_resolution(4), seed=0, iterations=10)


def test_training_deterministic_given_seed(small_dataset):
    x, y = small_dataset
    net1, rep1 = train(x, y, config_for_resolution(4), seed=3, iterations=60, val_every=30)
    net2, rep2 = train(x, y, config_for_resolution(4), seed=3, iterations=60, val_every=30)
    for (n1, p1), (n2, p2) in zip(net1.named_params(), net2.named_params()):
        assert n1 == n2
        assert np.array_equal(p1, p2)
    assert rep1.test_accuracy == rep2.test_accuracy
    assert rep1.curve == rep2.curve


def test_training_learns_small_problem(small_dataset):
    x, y = small_dataset
    net, report = train(x, y, config_for_resolution(4), seed=1, iterations=400, val_every=100)
    assert report.test_accuracy >= 0.9
    assert report.confusion.sum() == report.n_test
    assert report.n_train + report.n_val + report.n_test == len(x)


def test_dropout_rate_one_gives_chance_accuracy(small_dataset):
    x, y = small_dataset
    net, report = train(
        x, y, config_for_resolution(4, dropout_rate=1.0), seed=2, iterations=120, val_every=60
    )
    # every activation is blanked during training: nothing can be learned
    assert report.best_val_accuracy == pytest.approx(0.2, abs=0.05)


def test_report_text_and_curve_format(small_dataset):
    x, y = small_dataset
    net, report = train(x, y, config_for_resolution(4), seed=4, iterations=30, val_every=30)
    text = report.to_text()
    assert "test accuracy" in text and "confusion" in text
    csv = report.curve_csv()
    assert csv.splitlines()[0] == "iteration,train_loss,val_accuracy"
    assert len(csv.splitlines()) == len(report.curve) + 1


def test_model_file_round_trip(tmp_path, small_dataset):
    x, y = small_dataset
    net, _ = train(x, y, config_for_resolution(4), seed=5, iterations=30, val_every=30)
    path = tmp_path / "model.htm"
    save_model(net, path)
    loaded = load_model(path)
    probe = x[:8]
    assert np.array_equal(net.predict_proba(probe), loaded.predict_proba(probe))


def test_model_file_version_checked(tmp_path, small_dataset):
    x, y = small_dataset
    net, _ = train(x, y, config_for_resolution(4), seed=5, iterations=10, val_every=10)
    path = tmp_path / "model.htm"
    save_model(net, path)
    blob = bytearray(path.read_bytes())
    blob[5] = 99  # version byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ModelFormatError):
        load_model(path)
    junk = tmp_path / "junk.htm"
    junk.write_bytes(b"not a model")
    with pytest.raises(ModelFormatError):
        load_model(junk)


def test_training_releases_step_buffers(small_dataset, monkeypatch):
    x, y = small_dataset
    config = config_for_resolution(4)
    net, report = train(x, y, config, seed=6, iterations=30, val_every=15)
    held = [
        (type(m).__name__, name)
        for m in net.modules
        for name in STEP_BUFFERS
        if getattr(m, name, None) is not None
    ]
    assert held == []

    # without the release, the same run keeps the buffers but nothing else differs
    monkeypatch.setattr(PostureNet, "release_step_buffers", lambda self: None)
    kept, kept_report = train(x, y, config, seed=6, iterations=30, val_every=15)
    assert any(getattr(m, "_cache", None) is not None for m in kept.modules)
    state, kept_state = net.state_dict(), kept.state_dict()
    assert state.keys() == kept_state.keys()
    assert all(np.array_equal(state[k], kept_state[k]) for k in state)
    assert report.test_accuracy == kept_report.test_accuracy
    assert report.curve == kept_report.curve
    probe = x[:16]
    assert np.array_equal(net.predict_proba(probe), kept.predict_proba(probe))

    # the released net still trains; this moves its batch-norm running stats
    logits = net.forward(x[:8], train=True, rng=np.random.default_rng(0))
    assert logits.shape == (8, 5)
    net.backward(np.ones_like(logits))
    grads, params = net.named_grads(), net.named_params()
    assert [name for name, _ in grads] == [name for name, _ in params]
    assert all(g is not None and g.shape == p.shape for (_, g), (_, p) in zip(grads, params))


def _saved_blob(tmp_path, **replace) -> bytearray:
    """Bytes of a fresh 4x4 model file, with any tensors in `replace` swapped in."""
    net = PostureNet(config_for_resolution(4))
    state = {**net.state_dict(), **replace}
    net.state_dict = lambda: state
    path = tmp_path / "fresh.htm"
    save_model(net, path)
    return bytearray(path.read_bytes())


def _load_edited(tmp_path, blob):
    path = tmp_path / "edited.htm"
    path.write_bytes(bytes(blob))
    return load_model(path)


def test_model_file_non_utf8_tensor_name_rejected(tmp_path):
    blob = _saved_blob(tmp_path)
    name_at = blob.index(b"m0.b")
    blob[name_at] = 0xFF
    with pytest.raises(ModelFormatError, match=f"byte {name_at}"):
        _load_edited(tmp_path, blob)


def test_model_file_trailing_bytes_rejected(tmp_path):
    blob = _saved_blob(tmp_path)
    _load_edited(tmp_path, blob)  # the file as written loads
    with pytest.raises(ModelFormatError, match="1 trailing bytes"):
        _load_edited(tmp_path, blob + b"\x00")


def test_model_file_tensor_shape_must_match_config(tmp_path):
    conv_bias = PostureNet(config_for_resolution(4)).state_dict()["m0.b"]
    assert conv_bias.shape == (16,)
    blob = _saved_blob(tmp_path, **{"m0.b": conv_bias[:1]})  # would broadcast
    with pytest.raises(ModelFormatError, match="m0.b"):
        _load_edited(tmp_path, blob)


def _with_extra_record(blob: bytearray, name: str, values: np.ndarray) -> bytearray:
    """The model file with one more float32 tensor record at its end, the
    tensor count raised to match."""
    (length,) = struct.unpack("<I", blob[6:10])
    count_at = 10 + length
    (count,) = struct.unpack("<H", blob[count_at : count_at + 2])
    raw = name.encode("utf-8")
    record = struct.pack("<H", len(raw)) + raw + struct.pack("<BB", 0, values.ndim)
    record += b"".join(struct.pack("<I", dim) for dim in values.shape)
    record += values.astype("<f4").tobytes()
    edited = bytearray(blob)
    edited[count_at : count_at + 2] = struct.pack("<H", count + 1)
    return edited + record


def test_model_file_tensor_named_twice_is_a_format_error(tmp_path):
    blob = _saved_blob(tmp_path)
    edited = _with_extra_record(blob, "m6.b", np.full(5, 7.0))
    with pytest.raises(ModelFormatError, match="'m6.b' appears twice"):
        _load_edited(tmp_path, edited)


def test_model_file_tensor_the_config_does_not_use_is_a_format_error(tmp_path):
    blob = _saved_blob(tmp_path)
    with pytest.raises(ModelFormatError, match="'m9.b' is not one the model config uses"):
        _load_edited(tmp_path, _with_extra_record(blob, "m9.b", np.zeros(5)))
    # written by save_model itself, among the tensors the net does use
    blob = _saved_blob(tmp_path, **{"m2.w": np.zeros((2, 2), np.float32)})
    with pytest.raises(ModelFormatError, match="'m2.w'"):
        _load_edited(tmp_path, blob)


def _tensor_header(blob: bytearray, name: str) -> int:
    """Offset of tensor `name`'s dtype byte; its ndim byte and u32 dims follow."""
    raw = name.encode("utf-8")
    return blob.index(struct.pack("<H", len(raw)) + raw) + 2 + len(raw)


def test_model_file_tensor_with_too_many_dims_is_a_format_error(tmp_path):
    blob = _saved_blob(tmp_path)
    at = _tensor_header(blob, "m0.w")
    assert blob[at + 1] == 4
    blob[at + 1] = 65  # numpy refuses arrays above 64 dims
    with pytest.raises(ModelFormatError, match=r"'m0.w' has 65 dims, the config's \(16, 20, 3, 3\)"):
        _load_edited(tmp_path, blob)


def test_model_file_tensor_larger_than_the_file_is_a_format_error(tmp_path):
    blob = _saved_blob(tmp_path)
    dims = _tensor_header(blob, "m5.w") + 2
    assert struct.unpack("<II", blob[dims : dims + 8]) == (64, 256)
    # the element count wraps around in a fixed-width product
    blob[dims : dims + 8] = struct.pack("<II", 0xFFFFFFFF, 0xFFFFFFFF)
    with pytest.raises(ModelFormatError, match=r"'m5.w' of shape \(4294967295, 4294967295\)"):
        _load_edited(tmp_path, blob)
    blob[dims : dims + 8] = struct.pack("<II", 64, 512)  # past the file's end
    with pytest.raises(ModelFormatError, match="'m5.w'"):
        _load_edited(tmp_path, blob)


def _with_config_block(blob: bytearray, block) -> bytearray:
    """The model file with its JSON config block replaced by `block`."""
    (length,) = struct.unpack("<I", blob[6:10])
    raw = json.dumps(block).encode("utf-8")
    return blob[:6] + struct.pack("<I", len(raw)) + raw + blob[10 + length :]


def _config_block(blob: bytearray) -> dict:
    (length,) = struct.unpack("<I", blob[6:10])
    return json.loads(blob[10 : 10 + length])


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: dict(c, resolution=0), "resolution must be positive"),
        (lambda c: [], "expected an object, got list"),
        (lambda c: 3, "expected an object, got int"),
        (lambda c: None, "expected an object, got NoneType"),
        (lambda c: dict(c, layers="x"), "'layers' must be a list"),
        (lambda c: dict(c, layers=[[1]]), "'layers' must be a list"),
        (lambda c: dict(c, in_channels=0), "in_channels must be positive"),
        (lambda c: dict(c, layers=[dict(c["layers"][0], kernel=0)] + c["layers"][1:]), "kernel 0"),
        (lambda c: dict(c, layers=[dict(c["layers"][0], out=-1)] + c["layers"][1:]), "positive out"),
        (lambda c: dict(c, layers=[dict(c["layers"][0], kind="zz")]), "'zz'"),
    ],
)
def test_model_file_bad_config_block_is_a_format_error(tmp_path, edit, message):
    blob = _saved_blob(tmp_path)
    edited = _with_config_block(blob, edit(_config_block(blob)))
    with pytest.raises(ModelFormatError, match=message):
        _load_edited(tmp_path, edited)


def test_failed_model_save_leaves_previous_file_whole(tmp_path, monkeypatch):
    import hometwin.files as files_module

    path = tmp_path / "fresh.htm"
    before = bytes(_saved_blob(tmp_path))

    def disk_full(src, dst):
        raise OSError("no space left on device")

    monkeypatch.setattr(files_module.os, "replace", disk_full)
    with pytest.raises(OSError):
        save_model(PostureNet(config_for_resolution(4)), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["fresh.htm"]
