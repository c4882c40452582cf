import json

import pytest

from hometwin.config import PipelineConfig, config_from_dict, dump_config, load_config
from hometwin.errors import ConfigError


def test_defaults_round_trip_through_json():
    config = PipelineConfig()
    data = json.loads(dump_config(config))
    assert config_from_dict(data) == config


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="k_resst"):
        config_from_dict({"k_resst": 3})
    with pytest.raises(ConfigError):
        PipelineConfig().override(theta_actve=1.0)


def test_override_returns_new_config():
    base = PipelineConfig()
    changed = base.override(k_rest=5, seed=9)
    assert changed.k_rest == 5 and changed.seed == 9
    assert base.k_rest == 3


def test_override_casts_like_a_config_file():
    changed = PipelineConfig().override(k_rest=5.0, theta_active=1)
    assert changed.k_rest == 5 and type(changed.k_rest) is int
    assert changed.theta_active == 1.0 and type(changed.theta_active) is float
    assert changed == config_from_dict({"k_rest": 5.0, "theta_active": 1})


@pytest.mark.parametrize(
    "key, value",
    [("k_rest", 2.7), ("warmup_frames", 2.5), ("k_rest", "abc"), ("theta_active", "abc"),
     ("seed", None), ("k_rest", [3]), ("warmup_frames", float("inf"))],
)
def test_bad_value_refused_everywhere(key, value):
    with pytest.raises(ConfigError, match=key):
        PipelineConfig().override(**{key: value})
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})


def test_bad_set_value_exits_2(capsys):
    from hometwin.cli import main

    assert main(["print-config", "--set", "k_rest=abc"]) == 2
    assert main(["print-config", "--set", "warmup_frames=2.5"]) == 2
    assert main(["print-config", "--set", "k_rest=4"]) == 0
    assert json.loads(capsys.readouterr().out)["k_rest"] == 4


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"pixel_noise_sigma": 0.1, "train_iterations": 50}')
    config = load_config(path)
    assert config.pixel_noise_sigma == 0.1
    assert config.train_iterations == 50


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError):
        load_config(path)
    path.write_text("[1,2]")
    with pytest.raises(ConfigError):
        load_config(path)


REMOVED_KEYS = [
    "layout_path",
    "scenario_path",
    "model_dir",
    "out_dir",
    "store_path",
    "sunlight_delta_c",
    "gap_bridge_min",
    "report_day_boundary",
    "frame_period_ms",
    "frame_jitter_frac",
    "env_period_ms",
    "motion_period_ms",
    "motion_epsilon_m",
    "residual_tau_min",
    "residual_amplitude_frac",
    "walk_speed_mps",
    "passage_seconds",
]


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_key_refused_everywhere(key, tmp_path, capsys):
    from hometwin.cli import main

    with pytest.raises(ConfigError, match=key):
        PipelineConfig().override(**{key: 1})
    path = tmp_path / "config.json"
    path.write_text(json.dumps({key: 1}))
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["print-config", "--set", f"{key}=1"]) == 2
    assert main(["print-config"]) == 0
    assert key not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "key",
    ["warmup_frames", "blob_min_pixels", "train_iterations", "batch_size", "val_every",
     "windows_per_class", "dataset_seeds", "k_rest", "s_vis"],
)
@pytest.mark.parametrize("value", [0, -5])
def test_count_below_one_refused_everywhere(key, value, capsys):
    # k_rest and s_vis are the rule 1 and 2 thresholds: at 0 a rule fires on
    # every minute it reaches
    from hometwin.cli import main

    with pytest.raises(ConfigError, match=f"'{key}' must be at least 1"):
        PipelineConfig(**{key: value})
    with pytest.raises(ConfigError, match=key):
        PipelineConfig().override(**{key: value})
    with pytest.raises(ConfigError, match=key):
        config_from_dict({key: value})
    assert main(["print-config", "--set", f"{key}={value}"]) == 2
    assert key in capsys.readouterr().err
    assert getattr(PipelineConfig().override(**{key: 1}), key) == 1
