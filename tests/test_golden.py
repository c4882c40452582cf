"""Golden outputs: SHA-256 digests of what the package produces for fixed
seeds, committed in `golden.json`.

A digest that changes is a result that changed.  Regenerate the file with
`python tests/update_golden.py` only when the change is intended, and say
in CHANGES.md which outputs moved and why.

Two sets of outputs are pinned:

- "portable": wire bytes, store snapshots, the truth sidecars and the
  no-model pipeline outputs.  The `entries` digests pin what `timeline.csv`
  drops: each entry's `carried` flag and full-precision score, and the
  away intervals.  None of them passes through a BLAS call, so
  they are compared on every machine.  The mixed_day window's wire bytes
  and truth are the only portable outputs with visitors in them.
- "environment": model files and everything computed after a float32 GEMM
  (training reports, timelines and reports made with a posture model).
  Their bytes depend on the numpy build, the BLAS library and the CPU, so
  each is compared only where the `environment()` keys it depends on
  (`golden.json` "depends_on") equal the recorded ones.  The BLAS thread
  count is a key of the 32x32 model file alone: the first conv's
  weight-gradient GEMM at 32x32 ((16, 900) @ (900, 180) per window) rounds
  differently with one BLAS thread than with two, so a run under
  `OPENBLAS_NUM_THREADS=1` trains other 32x32 model bytes.  Its training
  report and curve, the 4x4 models and every timeline and report made with
  them come out the same with one thread, so a pinned run compares them.

The test prints which outputs it compared and which it skipped, and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from hometwin.config import PipelineConfig
from hometwin.ingestion.store import RecordStore
from hometwin.ingestion.wire import encode_packet
from hometwin.pipeline import StreamSource, run_pipeline
from hometwin.posture.net import blas_threads
from hometwin.simulate.engine import simulate
from hometwin.simulate.scripts import outing_day
from hometwin.simulate.truth import write_truth_sidecar

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
OUTING_SEEDS = (1, 2)
PIPELINE_SEED = 1  # the outing day run through the no-model pipeline
MIXED_DAY_SEED = 2001


def environment() -> dict:
    """What the BLAS-dependent digests were computed with."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
        simd = sorted(config["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # numpy before 1.25 has no dict config
        blas_name, simd = "unknown", []
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),  # None: one per core
        "cpu": cpu,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "simd": simd,
    }


# the environment digests whose bytes move with the BLAS thread count
THREAD_BOUND = ("day_models/posture_32.htm",)


def depends_on(names) -> dict[str, list[str]]:
    """The `environment()` keys each environment digest depends on."""
    keys = sorted(set(environment()) - {"blas_threads"})
    return {name: sorted(keys + ["blas_threads"] * (name in THREAD_BOUND)) for name in names}


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _track_bytes(track) -> bytes:
    """Every column of a SensorTrack, with its drops and calibrations."""
    head = f"{track.sensor_id}|{track.room_role.value}|{track.resolution}|{track.dropped_windows}|"
    head += ",".join(str(t) for t in track.calibration_events) + "|"
    columns = (
        track.start.astype("<i8"),
        track.interval_index.astype("<i8"),
        track.motion_index.astype("<f8"),
        track.blob_count.astype("<i8"),
        track.posture.astype("<i8"),
    )
    return head.encode("utf-8") + b"".join(c.tobytes() for c in columns)


def _entries_text(timeline) -> str:
    """The repr of every timeline entry, then the away intervals."""
    return "".join(f"{e!r}\n" for e in timeline.entries) + repr(timeline.away_intervals)


def portable_outputs(work: Path) -> dict[str, str]:
    out = {}
    for seed in OUTING_SEEDS:
        layout, script = outing_day(seed)
        bundle = simulate(layout, script, seed=seed)
        start, end = bundle.start, bundle.end
        packets = bundle.to_packets()
        del bundle
        out[f"outing_day_{seed}/packets.bin"] = _sha(b"".join(encode_packet(p) for p in packets))
        store = RecordStore()
        for packet in packets:
            store.append(packet)
        snapshot = work / f"outing_{seed}.store"
        store.save(snapshot)
        out[f"outing_day_{seed}/store.bin"] = _sha(snapshot.read_bytes())
        source = StreamSource(layout, store=store, start=start, end=end)
        result = run_pipeline(source, {}, PipelineConfig())
        out[f"outing_day_{seed}/no_model/entries"] = _sha(_entries_text(result.timeline))
        if seed != PIPELINE_SEED:
            continue
        out[f"outing_day_{seed}/no_model/timeline.csv"] = _sha(result.timeline.to_csv())
        out[f"outing_day_{seed}/no_model/thetas"] = _sha(repr(result.thetas))
        for sensor_id, track in result.tracks.items():
            out[f"outing_day_{seed}/no_model/track/{sensor_id}"] = _sha(_track_bytes(track))
    return out


CRITERION_10_PORTABLE = ("sim/packets.bin", "sim/truth.tsv")
CRITERION_10_ENVIRONMENT = (
    "models/posture_4.htm",
    "models/training_report_4.txt",
    "models/training_curve_4.csv",
    "run/timeline.csv",
    "run/report.txt",
    "run/report.json",
    "run/environment.csv",
)


def criterion_10_outputs(work: Path) -> dict[str, str]:
    """The simulate / train / run sequence of acceptance criterion 10."""
    from hometwin.cli import main

    common = ["--seed", "7", "--set", "windows_per_class=100",
              "--set", "train_iterations=60", "--set", "val_every=30"]
    assert main(["simulate", "--scenario", "builtin:sunlight", "--out", str(work / "sim")] + common) == 0
    assert main(["train", "--resolutions", "4", "--out", str(work / "models")] + common) == 0
    assert main(
        ["run", "--scenario", "builtin:sunlight", "--models", str(work / "models"),
         "--out", str(work / "run")] + common
    ) == 0
    return {
        f"criterion_10/{rel}": _sha((work / rel).read_bytes())
        for rel in CRITERION_10_PORTABLE + CRITERION_10_ENVIRONMENT
    }


MIXED_DAY_PORTABLE = (
    "mixed_day_1940_2020/packets.bin",
    "mixed_day_1940_2020/truth.tsv",
    "mixed_day_1940_2020/no_model/entries",
)


def mixed_day_outputs(work: Path) -> dict[str, str]:
    """The mixed_day 19:40-20:20 wire bytes and truth of the benchmark's day
    workload, its timeline with no model, its report with the small
    fixed-seed 4x4 and 32x32 models, and each model's file, training report
    and curve."""
    from hometwin.posture.model_io import save_model

    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from hbench import day, inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    trained = {}
    train = inputs.ptrain.train

    def kept(x, y, config, **kwargs):  # the set-up's training, with its report kept
        trained[config.resolution] = train(x, y, config, **kwargs)
        return trained[config.resolution]

    inputs.ptrain.train = kept
    try:
        inp = day.setup(MIXED_DAY_SEED)
        rep = day.report(inp)
    finally:
        inputs.ptrain.train = train
    write_truth_sidecar(inp.truth, work / "day_truth.tsv")
    source = StreamSource(inp.layout, store=rep.store, start=rep.start, end=rep.end)
    no_model = run_pipeline(source, {}, PipelineConfig())
    out = {
        "mixed_day_1940_2020/packets.bin": _sha(inp.data),
        "mixed_day_1940_2020/truth.tsv": _sha((work / "day_truth.tsv").read_bytes()),
        "mixed_day_1940_2020/no_model/entries": _sha(_entries_text(no_model.timeline)),
        "mixed_day_1940_2020/timeline.csv": _sha(rep.result.timeline.to_csv()),
        "mixed_day_1940_2020/entries": _sha(_entries_text(rep.result.timeline)),
        "mixed_day_1940_2020/report.txt": _sha(rep.text),
        "mixed_day_1940_2020/report.json": _sha(rep.json_text),
        "mixed_day_1940_2020/environment.csv": _sha(rep.csv),
    }
    for resolution, (net, report) in sorted(trained.items()):
        path = work / f"day_posture_{resolution}.htm"
        save_model(net, path)
        out[f"day_models/posture_{resolution}.htm"] = _sha(path.read_bytes())
        out[f"day_models/training_report_{resolution}.txt"] = _sha(report.to_text())
        out[f"day_models/training_curve_{resolution}.csv"] = _sha(report.curve_csv())
    return out


def compute() -> dict:
    """Every pinned digest, split into the portable and environment sets."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        portable = portable_outputs(work)
        c10 = criterion_10_outputs(work / "criterion_10")
        day_outputs = mixed_day_outputs(work)
    env_bound = {k: v for k, v in c10.items() if k.split("/", 1)[1] in CRITERION_10_ENVIRONMENT}
    portable.update((k, v) for k, v in c10.items() if k not in env_bound)
    portable.update((k, day_outputs.pop(k)) for k in MIXED_DAY_PORTABLE)
    env_bound.update(day_outputs)
    return {"portable": portable, "environment": env_bound}


def test_golden_outputs():
    golden = json.loads(GOLDEN_PATH.read_text())
    env, recorded = environment(), golden["recorded_environment"]
    assert golden["depends_on"] == depends_on(golden["environment"]), "rerun update_golden.py"
    got = compute()

    compared, skipped, differ = [], {}, []
    for group in ("portable", "environment"):
        assert sorted(got[group]) == sorted(golden[group]), f"{group} outputs renamed"
        for name, digest in golden[group].items():
            moved = [k for k in golden["depends_on"].get(name, ()) if env.get(k) != recorded.get(k)]
            if moved:
                reason = "; ".join(f"{k} is {env.get(k)!r}, recorded {recorded.get(k)!r}" for k in moved)
                skipped.setdefault(reason, []).append(name)
                continue
            compared.append(name)
            if got[group][name] != digest:
                differ.append(name)
    print(f"golden: compared {len(compared)} outputs: {', '.join(compared)}")
    for reason, names in skipped.items():
        print(f"golden: skipped {len(names)} BLAS-dependent outputs ({reason}): {', '.join(names)}")
    assert not differ, f"outputs differ from the golden digests: {differ}"
