import numpy as np
import pytest

from hometwin.core import FrameBlock, ReadingSeries, SensorKind
from hometwin.ingestion.packets import HubPacket
from hometwin.ingestion.store import RecordStore
from hometwin.layout import default_layout
from hometwin.pipeline import StreamSource


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
        # on the 0.01 grid, rounding half to even as the wire does
        values = np.array([np.round(rng.uniform(-100, 500) * 100.0) / 100.0 for _ in ts])
        readings.append(ReadingSeries(sensor_id, kind, ts.astype(np.int64), values))
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


def bundle_readings(bundle, sensor_id: str) -> ReadingSeries | None:
    """A simulated sensor's readings as one series, or None without any."""
    parts = [s for s in bundle.readings if s.sensor_id == sensor_id]
    if not parts:
        return None
    return ReadingSeries(
        sensor_id,
        parts[0].kind,
        np.concatenate([p.timestamps for p in parts]),
        np.concatenate([p.values for p in parts]),
    )


def bundle_frames(bundle, sensor_id: str) -> list[FrameBlock]:
    """A simulated thermal sensor's frame blocks (one per rendered hour)."""
    return [b for b in bundle.frames if b.sensor_id == sensor_id]


def concat_blocks(blocks: list[FrameBlock]) -> FrameBlock:
    """One sensor's frame blocks joined into one, in the given order."""
    if not blocks:
        raise ValueError("cannot concatenate zero blocks")
    first = blocks[0]
    return FrameBlock(
        first.sensor_id,
        first.resolution,
        np.concatenate([b.timestamps for b in blocks]),
        np.concatenate([b.pixels_centi for b in blocks]),
    )


def store_source(layout, bundle, start: int | None = None, end: int | None = None) -> StreamSource:
    """The bundle's packets in a fresh store, read over [start, end) (by
    default the bundle's whole span)."""
    store = RecordStore()
    for packet in bundle.to_packets():
        store.append(packet)
    start = bundle.start if start is None else start
    end = bundle.end if end is None else end
    return StreamSource(layout, store=store, start=start, end=end)


def store_contents(store) -> list[tuple[str, ReadingSeries, FrameBlock]]:
    """Every sensor's readings and frames, over all time."""
    return [
        (sid, store.query_readings(sid, 0, 10**15), store.query_frames(sid, 0, 10**15))
        for sid in store.sensor_ids()
    ]
