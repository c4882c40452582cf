"""Input generation shared by the workloads: scenario windows, wire bytes and
the small posture models the day workloads run with."""

from __future__ import annotations

import dataclasses
import importlib

import hometwin.ingestion.wire as wire
import hometwin.posture.data as pdata
import hometwin.simulate.engine as engine
from hometwin.core import MS_PER_MINUTE
from hometwin.posture.net import config_for_resolution
from hometwin.simulate.scenario import (
    LampToggle,
    LeaveHome,
    NoiseBurst,
    OccupyRoom,
    ReturnHome,
    ScenarioScript,
    VisitorEnter,
    VisitorLeave,
)

# the package re-exports the function `train` under the submodule's name
ptrain = importlib.import_module("hometwin.posture.train")

# posture models for the day workloads: fixed data, seed and budget, small
# enough to retrain in every set-up.  Resolution -> (windows per class,
# iterations, batch size).
MODEL_SEED = 11
MODEL_BUDGET = {4: (150, 150, 64), 32: (40, 16, 16)}


def window(script: ScenarioScript, lo_min: int, hi_min: int) -> ScenarioScript:
    """The part of a scenario between two minute offsets, as its own script.

    Occupancies and noise bursts are clipped to the window; point events
    outside it are dropped.  Callers pick windows that cut no away or
    visitor interval in a way the script validator rejects.
    """
    lo = script.epoch + lo_min * MS_PER_MINUTE
    hi = script.epoch + hi_min * MS_PER_MINUTE
    events = []
    for ev in script.events:
        if isinstance(ev, (OccupyRoom, NoiseBurst)):
            if ev.end <= lo or ev.start >= hi:
                continue
            clipped = dataclasses.replace(ev, start=max(ev.start, lo), end=min(ev.end, hi))
            if isinstance(ev, OccupyRoom):
                turns = tuple(t for t in ev.turnovers if lo <= t < hi)
                clipped = dataclasses.replace(clipped, turnovers=turns)
            events.append(clipped)
        elif isinstance(ev, (LampToggle, LeaveHome, ReturnHome, VisitorEnter, VisitorLeave)):
            if lo <= ev.at < hi:
                events.append(ev)
    return dataclasses.replace(
        script, epoch=lo, duration_min=hi_min - lo_min, events=events
    )


def home_wire(layout, script, seed: int, hub_id: str = "hub0"):
    """Simulate a home, batch it per minute and encode every packet.

    Returns (encoded packets, their record counts, oracle truth)."""
    bundle = engine.simulate(layout, script, seed)
    packets = bundle.to_packets(hub_id)
    encoded = [wire.encode_packet(p) for p in packets]
    return encoded, [p.item_count for p in packets], bundle.truth


def train_models(resolutions) -> dict:
    models = {}
    for resolution in resolutions:
        per_class, iterations, batch = MODEL_BUDGET[resolution]
        x, y = pdata.generate_posture_dataset(resolution, per_class)
        net, _ = ptrain.train(
            x,
            y,
            config_for_resolution(resolution),
            seed=MODEL_SEED,
            iterations=iterations,
            batch_size=batch,
            val_every=iterations,
        )
        models[resolution] = net
    return models
