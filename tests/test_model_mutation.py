"""Seeded byte mutations of fresh 4x4 and 32x32 model files: loading one
raises only hometwin errors, so `hometwin run --models` refuses a bad file
with exit 4 instead of a traceback."""

import json
import math
import random
import struct
from pathlib import Path

import pytest

from hometwin.cli import main
from hometwin.errors import HometwinError, ModelFormatError
from hometwin.posture.model_io import load_model, save_model
from hometwin.posture.net import PostureNet, config_for_resolution

MUTATIONS = 1000
# u32 dims a header edit writes: empty, one, the config's sizes, the largest
DIMS = (0, 1, 2, 5, 16, 64, 0xFFFF, 0x7FFFFFFF, 0xFFFFFFFF)


def fresh_blob(tmp_path, resolution: int) -> bytes:
    path = tmp_path / f"posture_{resolution}.htm"
    save_model(PostureNet(config_for_resolution(resolution), seed=resolution), path)
    return path.read_bytes()


def tensor_headers(blob: bytes) -> list[int]:
    """Offset of each tensor record's ndim byte."""
    (length,) = struct.unpack("<I", blob[6:10])
    pos = 10 + length
    (count,) = struct.unpack("<H", blob[pos : pos + 2])
    pos += 2
    out = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", blob[pos : pos + 2])
        pos += 2 + name_len
        code, ndim = blob[pos], blob[pos + 1]
        out.append(pos + 1)
        dims = struct.unpack(f"<{ndim}I", blob[pos + 2 : pos + 2 + 4 * ndim])
        pos += 2 + 4 * ndim + (4 if code == 0 else 8) * math.prod(dims)
    return out


def mutate(blob: bytes, headers: list[int], rng: random.Random) -> bytes:
    """One to three edits: a byte set at random, a header's ndim or dims
    rewritten, a span deleted or duplicated; one file in ten cut short."""
    data = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        if op == 0:
            data[rng.randrange(len(data))] = rng.randrange(256)
        elif op in (1, 2):
            at = rng.choice(headers)
            if at + 1 >= len(data):
                continue
            if op == 1:
                data[at] = rng.choice((0, 1, 2, 3, 4, 5, 64, 65, 255))
            else:
                slot = at + 1 + 4 * rng.randrange(max(1, data[at]))
                data[slot : slot + 4] = struct.pack("<I", rng.choice(DIMS))
        elif op == 3:
            lo = rng.randrange(len(data))
            del data[lo : lo + rng.randint(1, 64)]
        else:
            lo = rng.randrange(len(data))
            data[lo:lo] = data[lo : lo + rng.randint(1, 64)]
    if rng.randrange(10) == 0:
        del data[rng.randrange(len(data)) :]
    return bytes(data)


@pytest.mark.parametrize("resolution", [4, 32])
def test_mutated_model_file_raises_only_hometwin_errors(tmp_path, resolution):
    blob = fresh_blob(tmp_path, resolution)
    headers = tensor_headers(blob)
    rng = random.Random(16 + resolution)
    path = tmp_path / "mutant.htm"
    refused, escaped = 0, []
    for i in range(MUTATIONS):
        path.write_bytes(mutate(blob, headers, rng))
        try:
            load_model(path)
        except HometwinError:
            refused += 1
        except Exception as exc:  # would end `hometwin run` in a traceback
            escaped.append(f"mutation {i}: {type(exc).__name__}: {exc}"[:200])
    assert not escaped, f"{len(escaped)} of {MUTATIONS} untyped: {escaped[:5]}"
    assert refused >= MUTATIONS // 2  # the mutations reach the checks


def zero_dim_header(blob: bytes) -> bytes:
    """`m0.w` with dims (0, 2^32-1, 2^32-1, 2^32-1): zero elements, so a byte
    count of 0 passes, but no array of that shape can exist."""
    data = bytearray(blob)
    at = data.index(b"\x04\x00m0.w") + 7  # the ndim byte
    assert data[at] == 4
    data[at + 1 : at + 17] = struct.pack("<4I", 0, *[0xFFFFFFFF] * 3)
    return bytes(data)


def test_zero_size_tensor_header_is_a_format_error(tmp_path):
    path = tmp_path / "zero.htm"
    path.write_bytes(zero_dim_header(fresh_blob(tmp_path, 4)))
    with pytest.raises(ModelFormatError, match=r"'m0.w' of shape \(0, 4294967295,"):
        load_model(path)


def test_run_exits_4_on_mutated_models(tmp_path, capsys):
    """The zero-size header and the first seeded mutants that load_model
    refuses, each in place of one good model: `hometwin run` exits 4."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"epoch": "2024-03-04T10:00:00", "duration_min": 3}))
    good = {r: fresh_blob(tmp_path, r) for r in (4, 32)}
    bad = [(4, zero_dim_header(good[4]))]
    for resolution in (4, 32):
        rng = random.Random(16 + resolution)
        headers = tensor_headers(good[resolution])
        refused = []
        while len(refused) < 2:
            mutant = mutate(good[resolution], headers, rng)
            (tmp_path / "probe.htm").write_bytes(mutant)
            try:
                load_model(tmp_path / "probe.htm")
            except HometwinError:
                refused.append(mutant)
        bad += [(resolution, mutant) for mutant in refused]
    for i, (resolution, mutant) in enumerate(bad):
        models = tmp_path / f"models{i}"
        models.mkdir()
        for r, blob in good.items():
            (models / f"posture_{r}.htm").write_bytes(mutant if r == resolution else blob)
        code = main([
            "run",
            "--scenario", str(scenario),
            "--layout", str(configs / "layout_1bed.json"),
            "--models", str(models),
            "--out", str(tmp_path / f"out{i}"),
        ])
        assert code == 4, (i, resolution)
        assert "model error" in capsys.readouterr().err
