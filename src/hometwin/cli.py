"""Operator command line: simulate scenarios, train models, run the pipeline,
and evaluate against the oracle sidecar.

Exit codes: 0 success, 2 config error, 3 data error, 4 model error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analytics
from .activity.evaluate import evaluate_timeline, posture_hits
from .config import PipelineConfig, dump_config, load_config
from .core import ACTIVITY_NAMES
from .errors import (
    ConfigError,
    HometwinError,
    ModelFormatError,
    RangeError,
    WireFormatError,
)
from .files import write_atomic
from .ingestion.store import RecordStore
from .ingestion.wire import decode_packet_stream, encode_packet
from .layout import HomeLayout, load_layout
from .pipeline import StreamSource, run_pipeline
from .posture.data import generate_posture_dataset
from .posture.model_io import load_model, save_model
from .posture.net import config_for_resolution
from .posture.train import train
from .simulate.engine import simulate
from .simulate.scenario import ScenarioScript, load_scenario
from .simulate.scripts import BUILTIN_SCENARIOS, builtin
from .simulate.truth import GroundTruthTimeline, load_truth_sidecar, write_truth_sidecar

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _load_inputs(args) -> tuple[HomeLayout, ScenarioScript]:
    if args.scenario.startswith("builtin:"):
        layout, script = builtin(args.scenario.split(":", 1)[1])
        if args.layout:
            layout = load_layout(args.layout)
        return layout, script
    if not args.layout:
        raise ConfigError("--layout is required with a scenario file")
    return load_layout(args.layout), load_scenario(args.scenario)


def _config_from_args(args) -> PipelineConfig:
    config = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "set", None):
        for item in args.set:
            if "=" not in item:
                raise ConfigError(f"--set expects key=value, got {item!r}")
            key, raw = item.split("=", 1)
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            overrides[key] = value
    return config.override(**overrides) if overrides else config


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    layout, script = _load_inputs(args)
    bundle = simulate(layout, script, config.seed, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    packets = bundle.to_packets()
    packet_path = out / "packets.bin"
    write_atomic(packet_path, (encode_packet(packet) for packet in packets))
    truth_path = out / "truth.tsv"
    write_truth_sidecar(bundle.truth, truth_path)
    _log(
        f"simulated {len(packets)} packets "
        f"({sum(p.item_count for p in packets)} records) -> {packet_path}"
    )
    _log(f"ground truth -> {truth_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _config_from_args(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    resolutions = [int(r) for r in args.resolutions.split(",")]
    for resolution in resolutions:
        _log(f"generating {5 * config.windows_per_class} windows at {resolution}x{resolution}")
        x, y = generate_posture_dataset(
            resolution,
            config.windows_per_class,
            seeds=tuple(range(config.dataset_seeds)),
            noise_sigma=config.pixel_noise_sigma,
        )
        net, report = train(
            x,
            y,
            config_for_resolution(resolution, config.dropout_rate),
            seed=config.seed,
            iterations=config.train_iterations,
            batch_size=config.batch_size,
            learning_rate=config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            val_every=config.val_every,
        )
        model_path = out / f"posture_{resolution}.htm"
        save_model(net, model_path)
        write_atomic(out / f"training_report_{resolution}.txt", [report.to_text().encode()])
        write_atomic(out / f"training_curve_{resolution}.csv", [report.curve_csv().encode()])
        _log(f"{resolution}x{resolution}: test accuracy {report.test_accuracy:.4f} -> {model_path}")
    return EXIT_OK


def _load_models(model_dir: str | Path, layout: HomeLayout) -> dict:
    models = {}
    needed = {spec.kind.resolution for spec in layout.thermal_sensors()}
    for resolution in sorted(needed):
        path = Path(model_dir) / f"posture_{resolution}.htm"
        if not path.exists():
            raise ModelFormatError(f"missing model file {path}")
        models[resolution] = load_model(path)
    return models


def _ingest_packets(path: str | Path) -> tuple[RecordStore, int, int]:
    """A packet file's packets in a fresh store, with their window.

    The stream decoder lays out each thermal sensor's pixels once, read-only,
    and the store's first query of the sensor takes them as its column, so
    the frames are copied once from the file bytes to the pipeline."""
    store = RecordStore()
    data = Path(path).read_bytes()
    packets = decode_packet_stream(data)
    if not packets:
        raise RangeError(f"{path} contains no packets")
    for packet in packets:
        store.append(packet)
    start = min(p.window_start for p in packets)
    end = max(p.window_end for p in packets)
    return store, start, end


def _simulate_into_store(
    layout: HomeLayout, script: ScenarioScript, config: PipelineConfig
) -> tuple[RecordStore, int, int, GroundTruthTimeline]:
    """A scenario's packets in a fresh store, with its window and truth.

    The simulator renders each thermal sensor's frames into one read-only
    array, and the store's first query of the sensor takes it as its column
    with no copy.  The bundle and its packets are released on return: the
    readings they hold are copied into their columns.
    """
    bundle = simulate(layout, script, config.seed, config)
    store = RecordStore()
    for packet in bundle.to_packets():
        store.append(packet)
    return store, bundle.start, bundle.end, bundle.truth


def _run(args):
    """Shared run/evaluate front half; returns the pipeline result and context."""
    config = _config_from_args(args)
    if args.scenario:
        # full in-process path: simulate -> packets -> store -> pipeline
        layout, script = _load_inputs(args)
        store, start, end, truth = _simulate_into_store(layout, script, config)
    elif args.packets:
        if not args.layout:
            raise ConfigError("--layout is required with --packets")
        layout = load_layout(args.layout)
        store, start, end = _ingest_packets(args.packets)
        truth = load_truth_sidecar(args.truth) if args.truth else None
    else:
        raise ConfigError("provide --scenario or --packets")

    gaps = store.gaps()
    if gaps:
        _log(f"warning: {len(gaps)} sequence gap(s) in the packet stream: {gaps[:5]}")

    models = _load_models(args.models, layout)
    source = StreamSource(layout, store=store, start=start, end=end)
    result = run_pipeline(source, models, config)
    gate = "auto" if config.theta_active <= 0 else "fixed"
    for sensor_id, track in result.tracks.items():
        _log(
            f"{sensor_id}: {len(track.start)} windows, {track.dropped_windows} dropped, "
            f"{len(track.calibration_events)} calibrations, "
            f"theta {result.thetas[sensor_id]:.4f} ({gate})"
        )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return result, truth, config, out, source


def cmd_run(args) -> int:
    result, truth, config, out, source = _run(args)
    write_atomic(out / "timeline.csv", [result.timeline.to_csv().encode()])
    report = analytics.daily_report(source, result, config)
    write_atomic(out / "report.txt", [analytics.report_to_text(report).encode()])
    write_atomic(out / "report.json", [analytics.report_to_json(report).encode()])
    write_atomic(out / "environment.csv", [analytics.environment_csv(report).encode()])
    _log(f"timeline + report written to {out}")

    if args.plot_data:
        rows = ["minute_start,label"]
        minutes, labels = result.timeline.evidence.minute_start, result.timeline.label
        rows += [f"{m},{ACTIVITY_NAMES[lab]}" for m, lab in zip(minutes.tolist(), labels.tolist())]
        write_atomic(out / "activity_series.csv", [("\n".join(rows) + "\n").encode()])
    return EXIT_OK


def cmd_evaluate(args) -> int:
    if not args.scenario and not args.truth:
        raise ConfigError("evaluation needs --truth (or a --scenario with builtin truth)")
    result, truth, config, out, source = _run(args)

    evaluation = evaluate_timeline(result.timeline, truth)
    print(evaluation.to_text())

    # posture accuracy per resolution against the sidecar grid
    graded = posture_hits(result.tracks, truth)
    for resolution in sorted({t.resolution for t in result.tracks.values()}):
        counts = [
            graded[sid] for sid, t in result.tracks.items() if t.resolution == resolution and sid in graded
        ]
        hits, total = sum(h for h, _ in counts), sum(n for _, n in counts)
        if total:
            print(f"posture accuracy {resolution}x{resolution}: {hits / total:.4f} over {total} windows")

    write_atomic(out / "evaluation.txt", [evaluation.to_text().encode()])
    return EXIT_OK


def cmd_ingest(args) -> int:
    store, start, end = _ingest_packets(args.packets)
    gaps = store.gaps()
    if gaps:
        _log(f"{len(gaps)} sequence gap(s): {gaps}")
    if args.snapshot:
        store.save(args.snapshot)
        _log(f"store snapshot -> {args.snapshot}")
    if args.csv:

        def sensor_rows():  # one chunk per sensor
            yield b"timestamp,sensor_id,kind,value\n"
            for sensor_id in store.sensor_ids():
                series = store.query_readings(sensor_id, start, end)
                yield "".join(
                    f"{int(ts)},{sensor_id},{series.kind.value},{value:.2f}\n"
                    for ts, value in zip(series.timestamps, series.values)
                ).encode("utf-8")

        write_atomic(args.csv, sensor_rows())
        _log(f"reading dump -> {args.csv}")
    return EXIT_OK


def cmd_print_config(args) -> int:
    config = _config_from_args(args)
    print(dump_config(config))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hometwin",
        description="Privacy-preserving in-home activity monitoring pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, models=False):
        p.add_argument("--config", help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single config key")
        p.add_argument("--out", default="out", help="output directory")
        if models:
            p.add_argument("--models", default="models", help="model directory")

    p = sub.add_parser("simulate", help="render a scenario into packets + truth")
    p.add_argument("--scenario", required=True,
                   help=f"scenario JSON or builtin:<{'|'.join(sorted(BUILTIN_SCENARIOS))}>")
    p.add_argument("--layout", help="layout JSON (defaults to the builtin's layout)")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train posture models on synthetic windows")
    p.add_argument("--resolutions", default="4,32")
    common(p)
    p.set_defaults(func=cmd_train)

    for name, func, extra in (
        ("run", cmd_run, True),
        ("evaluate", cmd_evaluate, False),
    ):
        p = sub.add_parser(name, help=f"{name} the pipeline")
        p.add_argument("--scenario", help="scenario JSON or builtin:<name>")
        p.add_argument("--layout")
        p.add_argument("--packets", help="previously simulated packet file")
        p.add_argument("--truth", help="truth sidecar (with --packets)")
        common(p, models=True)
        if extra:
            p.add_argument("--plot-data", action="store_true",
                           help="also write per-minute series CSVs")
        p.set_defaults(func=func)

    p = sub.add_parser("ingest", help="decode packets into a store snapshot / CSV")
    p.add_argument("--packets", required=True)
    p.add_argument("--snapshot")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("print-config", help="print the effective configuration")
    common(p)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    except (ModelFormatError,) as exc:
        _log(f"model error: {exc}")
        return EXIT_MODEL
    except (WireFormatError, RangeError, OSError, HometwinError) as exc:
        _log(f"data error: {exc}")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
