import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind, quantize
from hometwin.ingestion.packets import HubPacket
from hometwin.layout import default_layout


@pytest.fixture
def layout():
    return default_layout()


@pytest.fixture(scope="session")
def small_models(tmp_path_factory):
    """Quickly trained posture models, good enough for pipeline plumbing tests.

    Returns (models dict, model directory with posture_<res>.htm files).
    """
    from hometwin.posture.data import generate_posture_dataset
    from hometwin.posture.model_io import save_model
    from hometwin.posture.net import config_for_resolution
    from hometwin.posture.train import train

    model_dir = tmp_path_factory.mktemp("models")
    models = {}
    for resolution, per_class, iterations in ((4, 300, 400), (32, 150, 220)):
        x, y = generate_posture_dataset(resolution, per_class)
        net, _ = train(
            x, y, config_for_resolution(resolution), seed=5,
            iterations=iterations, val_every=iterations // 2,
        )
        save_model(net, model_dir / f"posture_{resolution}.htm")
        models[resolution] = net
    return models, model_dir


def random_packet(rng: np.random.Generator, seq: int = 0, hub_id: str = "hub0") -> HubPacket:
    """A randomized but valid one-minute packet on the 0.01 value grid."""
    window_start = int(rng.integers(0, 10_000)) * 60_000
    readings = []
    for s in range(int(rng.integers(0, 4))):
        sensor_id = f"room{s}/A0/{rng.choice(['light', 'noise', 'temperature'])}"
        kind = {
            "light": SensorKind.LIGHT,
            "noise": SensorKind.NOISE,
            "temperature": SensorKind.TEMP_HUMIDITY,
        }[sensor_id.rsplit("/", 1)[1]]
        ts = window_start + np.sort(rng.integers(0, 60_000, size=int(rng.integers(1, 4))))
        values = [quantize(float(rng.uniform(-100, 500))) for _ in ts]
        readings.append(ReadingSeries(sensor_id, kind, ts.astype(np.int64), np.array(values)))
    if rng.random() < 0.5:
        ts = window_start + np.sort(rng.integers(0, 60_000, size=3)).astype(np.int64)
        ts = np.unique(ts)
        values = [float(rng.integers(0, 2)) for _ in ts]
        readings.append(ReadingSeries("hall/B0/motion", SensorKind.MOTION, ts, np.array(values)))
    frames = []
    if rng.random() < 0.6:
        res = int(rng.choice([4, 32]))
        n = int(rng.integers(1, 4))
        ts = window_start + np.sort(rng.choice(60_000, size=n, replace=False)).astype(np.int64)
        frames.append(
            FrameBlock(
                f"roomX/{'D' if res == 32 else 'C'}0/thermal",
                res,
                ts,
                rng.integers(1000, 4500, size=(n, res, res)).astype(np.int16),
            )
        )
    return HubPacket(hub_id, seq, window_start, window_start + 60_000, readings, frames)
