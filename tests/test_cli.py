import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from hometwin.cli import main
from hometwin.config import PipelineConfig
from hometwin.core import MS_PER_MINUTE
from hometwin.errors import ConfigError
from hometwin.layout import lite_layout, load_layout
from hometwin.simulate.scenario import load_scenario

ROOMS = [
    ("bedroom", "Bedroom", "bedroom", [0.0, 0.0, 4.0, 3.5]),
    ("kitchen", "Kitchen", "kitchen", [4.5, 0.0, 7.5, 3.0]),
    ("dining", "Dining room", "dining_room", [0.0, 4.0, 4.0, 7.0]),
    ("living", "Living room", "living_room", [4.5, 3.5, 9.0, 7.0]),
    ("washroom", "Washroom", "restroom", [8.0, 0.0, 9.5, 2.0]),
    ("door", "Main door", "doorway", [9.5, 3.0, 10.5, 4.5]),
]
LAYOUT = {
    "rooms": [
        {"room_id": room_id, "name": name, "role": role, "bounds": bounds}
        for room_id, name, role, bounds in ROOMS
    ],
    "placements": [
        {"module_type": "B", "room_id": "door", "position": [10.0, 3.75], "sensing_radius": 1.5},
        {"module_type": "B", "room_id": "washroom", "position": [8.75, 1.0], "sensing_radius": 1.5},
        {"module_type": "C", "room_id": "bedroom", "position": [2.0, 1.75]},
        {"module_type": "C", "room_id": "dining", "position": [2.0, 5.5]},
        {"module_type": "C", "room_id": "kitchen", "position": [6.0, 1.5]},
        {"module_type": "C", "room_id": "living", "position": [6.75, 5.25]},
        {"module_type": "A", "room_id": "dining", "position": [2.0, 5.5]},
    ],
    "night_window": ["21:00", "08:00"],
}
# seated in the dining room, then a walk through the washroom
SCENARIO = {
    "epoch": "2024-03-04T10:00:00",
    "duration_min": 40,
    "events": [
        {"kind": "occupy", "start": 3, "end": 20, "room": "dining", "posture": "sit"},
        {
            "kind": "occupy", "start": 22, "end": 27, "room": "washroom", "posture": "stand",
            "path": [[8.6, 0.9], [8.95, 1.15]],
        },
    ],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, small_models):
    """A scenario + layout on disk plus the shared small models."""
    _, model_dir = small_models
    root = tmp_path_factory.mktemp("cli")
    (root / "layout.json").write_text(json.dumps(LAYOUT))
    (root / "scenario.json").write_text(json.dumps(SCENARIO))
    assert load_layout(root / "layout.json") == lite_layout()
    return root, model_dir


def test_print_config_lists_defaults(capsys):
    assert main(["print-config"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k_rest"] == PipelineConfig().k_rest
    assert set(data) == set(PipelineConfig().to_dict())


def test_unknown_config_key_exits_2(capsys):
    assert main(["print-config", "--set", "not_a_key=1"]) == 2


def test_zero_warmup_frames_exits_2(capsys):
    assert main(["print-config", "--set", "warmup_frames=0"]) == 2
    assert "'warmup_frames' must be at least 1" in capsys.readouterr().err


def test_simulate_writes_packets_and_truth(workdir):
    root, _ = workdir
    out = root / "sim"
    code = main(
        [
            "simulate",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--seed", "7",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "packets.bin").stat().st_size > 0
    assert (out / "truth.tsv").read_text().startswith("record\t")


def test_simulate_deterministic_bytes(workdir):
    root, _ = workdir
    outs = []
    for name in ("sim_a", "sim_b"):
        out = root / name
        assert main(
            [
                "simulate",
                "--scenario", str(root / "scenario.json"),
                "--layout", str(root / "layout.json"),
                "--seed", "7",
                "--out", str(out),
            ]
        ) == 0
        outs.append((out / "packets.bin").read_bytes())
    assert outs[0] == outs[1]


def test_missing_scenario_file_exits_3(workdir):
    root, model_dir = workdir
    code = main(
        [
            "simulate",
            "--scenario", str(root / "nope.json"),
            "--layout", str(root / "layout.json"),
            "--out", str(root / "x"),
        ]
    )
    assert code == 3


@pytest.mark.parametrize("night", [["21:00"], "21:00", ["21:00", "08:00", "09:00"], [21, 8]])
def test_bad_night_window_exits_2(workdir, tmp_path, capsys, night):
    root, _ = workdir
    layout = json.loads((root / "layout.json").read_text())
    layout["night_window"] = night
    bad = tmp_path / "layout.json"
    bad.write_text(json.dumps(layout))
    code = main(
        [
            "simulate",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(bad),
            "--out", str(tmp_path / "s"),
        ]
    )
    assert code == 2
    assert "night_window" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "where, bad",
    [
        ("posture", None),  # not a string
        ("ambient", []),  # not an object
        ("clock_start", 8),  # not a clock string
        # these three loaded and validated, then crashed the simulator
        ("position", ["a", "b"]),
        ("path", [[8.6, 0.9, 1.0], [8.95, 1.15]]),  # a waypoint of three numbers
        ("profile", "warm"),  # an ambient profile value that is not a number
    ],
)
def test_bad_scenario_field_exits_2(workdir, tmp_path, capsys, where, bad):
    root, _ = workdir
    scenario = json.loads(json.dumps(SCENARIO))
    sun = {"room": "bedroom", "row0": 0, "col0": 0, "row1": 2, "col1": 2,
           "clock_start": "07:00", "clock_end": "09:00"}
    scenario["sunlight_patch"] = sun
    if where == "posture":
        scenario["events"][0]["posture"] = bad
    elif where == "ambient":
        scenario["ambient"] = bad
    elif where in ("position", "path"):
        scenario["events"][1][where] = bad
    elif where == "profile":
        scenario["ambient"] = {"washroom": {"temp_base_c": bad}}
    else:
        sun[where] = bad
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(ConfigError):
        load_scenario(path)
    code = main(
        [
            "simulate",
            "--scenario", str(path),
            "--layout", str(root / "layout.json"),
            "--out", str(tmp_path / "s"),
        ]
    )
    assert code == 2
    assert "bad scenario config" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize(
    "where, bad",
    [
        ("position", [1e308, 1.0]),  # rendered overflowed frames
        ("position", [2.0, float("nan")]),
        ("path", [[8.6, 0.9], [8.95, -1e308]]),
        ("path", [[8.6, 0.9], [10.6, 1.0]]),  # past the layout's east wall (10.5)
    ],
)
def test_scenario_point_outside_the_layout_exits_2(workdir, tmp_path, capsys, where, bad):
    root, _ = workdir
    scenario = json.loads(json.dumps(SCENARIO))
    scenario["events"][1][where] = bad
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code = main(
        [
            "simulate",
            "--scenario", str(path),
            "--layout", str(root / "layout.json"),
            "--out", str(tmp_path / "s"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "occupy event in 'washroom' at minute 22" in err and "outside the layout's bounds" in err
    assert not (tmp_path / "s").exists()


def test_run_produces_timeline_and_report(workdir):
    root, model_dir = workdir
    out = root / "run"
    code = main(
        [
            "run",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--seed", "7",
            "--out", str(out),
            "--plot-data",
        ]
    )
    assert code == 0
    timeline = (out / "timeline.csv").read_text().splitlines()
    assert timeline[0] == "minute_start,label,winning_room,score"
    assert len(timeline) == 41
    report = json.loads((out / "report.json").read_text())
    assert "sleep" in report and "environment" in report
    assert (out / "report.txt").exists()
    assert (out / "environment.csv").exists()
    # the plot series is the timeline's first two columns
    series = (out / "activity_series.csv").read_text().splitlines()
    assert series == ["minute_start,label"] + [row.rsplit(",", 2)[0] for row in timeline[1:]]


def test_run_logs_pipeline_health(workdir, capsys):
    root, model_dir = workdir
    code = main(
        [
            "run",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--seed", "7",
            "--out", str(root / "run_health"),
        ]
    )
    assert code == 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "/thermal:" in line]
    thermal = sorted(s.sensor_id for s in lite_layout().thermal_sensors())
    assert [line.split(":")[0] for line in lines] == thermal
    for line in lines:
        # 40 minutes at 12 windows a minute, none off cadence, auto gate
        assert ": 480 windows, 0 dropped, 0 calibrations, theta 0." in line
        assert line.endswith(" (auto)")


def test_scenario_run_keeps_one_copy_of_the_simulated_frames(workdir, monkeypatch):
    # once the pipeline has read every thermal sensor, each sensor's column
    # is the simulated frames' own memory, not a copy, and the bundle's
    # blocks are released: no second copy of the frames is alive
    import hometwin.cli as cli

    root, model_dir = workdir
    pixels: dict[str, list] = {}
    blocks = []
    checks = []

    def simulate_and_watch(*args):
        bundle = cli_simulate(*args)
        for block in bundle.frames:
            pixels.setdefault(block.sensor_id, []).append(block.pixels_centi)
            blocks.append(weakref.ref(block))
        return bundle

    def run_and_check(source, *args):
        result = cli_run_pipeline(source, *args)
        gc.collect()
        for sensor_id, parts in pixels.items():
            column = source.store._frames[sensor_id].data
            checks.append(
                column.base is parts[0].base
                and len(column) == sum(map(len, parts))
                and all(np.shares_memory(column, part) for part in parts)
            )
        checks.append(sum(ref() is not None for ref in blocks))
        return result

    cli_simulate, cli_run_pipeline = cli.simulate, cli.run_pipeline
    monkeypatch.setattr(cli, "simulate", simulate_and_watch)
    monkeypatch.setattr(cli, "run_pipeline", run_and_check)
    code = main(
        [
            "run",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--seed", "7",
            "--out", str(root / "run_released"),
        ]
    )
    assert code == 0
    assert sorted(pixels) == sorted(s.sensor_id for s in lite_layout().thermal_sensors())
    assert checks == [True] * len(pixels) + [0]


def test_run_from_packet_file(workdir):
    root, model_dir = workdir
    sim_out = root / "sim"
    out = root / "run_packets"
    code = main(
        [
            "run",
            "--packets", str(sim_out / "packets.bin"),
            "--truth", str(sim_out / "truth.tsv"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "timeline.csv").exists()


def test_missing_model_exits_4(workdir, tmp_path):
    root, _ = workdir
    code = main(
        [
            "run",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(tmp_path / "nope"),
            "--out", str(root / "y"),
        ]
    )
    assert code == 4


def test_model_with_a_bad_tensor_header_exits_4(workdir, tmp_path):
    root, model_dir = workdir
    models = tmp_path / "models"
    models.mkdir()
    for path in model_dir.glob("posture_*.htm"):
        (models / path.name).write_bytes(path.read_bytes())
    blob = bytearray((models / "posture_4.htm").read_bytes())
    at = blob.index(b"\x04\x00m0.w") + 6  # the tensor's dtype byte, then ndim
    blob[at + 1] = 65
    (models / "posture_4.htm").write_bytes(bytes(blob))
    code = main(
        [
            "run",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(models),
            "--out", str(root / "bad_model"),
        ]
    )
    assert code == 4


def test_evaluate_prints_accuracy(workdir, capsys):
    root, model_dir = workdir
    code = main(
        [
            "evaluate",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--seed", "7",
            "--out", str(root / "eval"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "minute-level accuracy" in out
    assert "posture accuracy 4x4" in out


def test_ingest_dumps_csv_and_snapshot(workdir):
    root, _ = workdir
    sim_out = root / "sim"
    snapshot = root / "store.bin"
    csv = root / "dump.csv"
    code = main(
        [
            "ingest",
            "--packets", str(sim_out / "packets.bin"),
            "--snapshot", str(snapshot),
            "--csv", str(csv),
        ]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "timestamp,sensor_id,kind,value"
    assert len(lines) > 100
    from hometwin.ingestion.store import RecordStore

    store = RecordStore.load(snapshot)
    assert store.record_count() > 0


def test_ingest_of_a_sensor_changing_resolution_exits_3(tmp_path):
    import numpy as np

    from hometwin.core import FrameBlock
    from hometwin.ingestion.packets import HubPacket
    from hometwin.ingestion.wire import encode_packet

    def packet(seq, resolution):
        start = seq * MS_PER_MINUTE
        ts = start + 250 * np.arange(4, dtype=np.int64)
        pixels = np.full((4, resolution, resolution), 2800, dtype=np.int16)
        block = FrameBlock("bed/C0/thermal", resolution, ts, pixels)
        return HubPacket("hub0", seq, start, start + MS_PER_MINUTE, [], [block])

    packets = tmp_path / "packets.bin"
    packets.write_bytes(encode_packet(packet(0, 4)) + encode_packet(packet(1, 32)))
    snapshot = tmp_path / "store.bin"
    code = main(["ingest", "--packets", str(packets), "--snapshot", str(snapshot)])
    assert code == 3
    assert not snapshot.exists()


def test_builtin_scenario_runs(workdir, tmp_path):
    _, model_dir = workdir
    out = tmp_path / "builtin"
    code = main(
        [
            "simulate",
            "--scenario", "builtin:sunlight",
            "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "packets.bin").exists()


def test_unknown_builtin_scenario_exits_2(workdir, tmp_path, capsys):
    _, model_dir = workdir
    assert main(["simulate", "--scenario", "builtin:nope", "--out", str(tmp_path / "s")]) == 2
    code = main(
        [
            "run",
            "--scenario", "builtin:nope",
            "--models", str(model_dir),
            "--out", str(tmp_path / "r"),
        ]
    )
    assert code == 2
    assert "unknown builtin scenario 'nope'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evaluate_without_truth_exits_2_before_running(workdir, tmp_path, capsys):
    root, model_dir = workdir
    sim_out = tmp_path / "sim"
    assert main(
        [
            "simulate",
            "--scenario", str(root / "scenario.json"),
            "--layout", str(root / "layout.json"),
            "--out", str(sim_out),
        ]
    ) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--packets", str(sim_out / "packets.bin"),
            "--layout", str(root / "layout.json"),
            "--models", str(model_dir),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "needs --truth" in err
    assert "windows" not in err  # the pipeline never ran


def cli_commands(root, model_dir, out):
    """Every CLI command that writes files, each with every output it has."""
    common = ["--layout", str(root / "layout.json"), "--models", str(model_dir), "--seed", "3"]
    return [
        ["simulate", "--scenario", str(root / "scenario.json"),
         "--layout", str(root / "layout.json"), "--out", str(out / "sim")],
        ["train", "--resolutions", "4", "--set", "windows_per_class=6", "--set", "train_iterations=2",
         "--set", "val_every=1", "--set", "batch_size=4", "--out", str(out / "train")],
        ["run", "--scenario", str(root / "scenario.json"), *common, "--out", str(out / "run"),
         "--plot-data"],
        ["evaluate", "--scenario", str(root / "scenario.json"), *common, "--out", str(out / "eval")],
        ["ingest", "--packets", str(out / "sim" / "packets.bin"), "--csv", str(out / "dump.csv"),
         "--snapshot", str(out / "store.bin")],
    ]


def test_every_cli_output_is_written_atomically(workdir, tmp_path, monkeypatch):
    import hometwin.files as files_module

    root, model_dir = workdir
    renamed = []
    replace = files_module.os.replace
    monkeypatch.setattr(files_module.os, "replace",
                        lambda src, dst: renamed.append(dst) or replace(src, dst))
    for argv in cli_commands(root, model_dir, tmp_path):
        assert main(argv) == 0, argv
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    assert len(written) == 13
    assert sorted(renamed) == written  # each one renamed over its path when whole


@pytest.mark.parametrize("command, name", [
    (0, "sim/packets.bin"), (0, "sim/truth.tsv"), (1, "train/training_report_4.txt"),
    (1, "train/training_curve_4.csv"), (2, "run/timeline.csv"), (2, "run/report.json"),
    (2, "run/activity_series.csv"), (3, "eval/evaluation.txt"), (4, "dump.csv"),
])
def test_failed_cli_write_leaves_previous_file_whole(workdir, tmp_path, monkeypatch, command, name):
    """One write fails as the disk fills: the command exits 3 (a data
    error), and the file from the run before it is still whole."""
    import hometwin.files as files_module

    root, model_dir = workdir
    commands = cli_commands(root, model_dir, tmp_path)
    for argv in commands:
        assert main(argv) == 0, argv
    path = tmp_path / name
    before = path.read_bytes()
    replace = files_module.os.replace

    def disk_full(src, dst):
        if Path(dst) == path:
            raise OSError("no space left on device")
        replace(src, dst)

    monkeypatch.setattr(files_module.os, "replace", disk_full)
    argv = [a if a != "3" else "4" for a in commands[command]]  # another seed, where one is given
    assert main(argv) == 3
    assert path.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))
