import math

import numpy as np
import pytest

from hometwin.config import PipelineConfig
from hometwin.core import (
    MS_PER_MINUTE,
    PostureLabel,
    parse_epoch,
    pixels_to_celsius,
    quantize_pixels,
)
from hometwin.layout import ModulePlacement, ModuleType, default_layout
from hometwin.simulate import AmbientProfile, ScenarioScript, SunlightPatch, simulate
from hometwin.simulate.engine import _Patch, _patch_track
from hometwin.simulate.render import BLOB_PARAMS, add_blobs, path_positions, sensor_grid

from conftest import bundle_frames

PLACEMENT = ModulePlacement(ModuleType.C, "room", (2.0, 1.75), fov_half_width=1.0)
EPOCH = parse_epoch("2024-03-04T10:00:00")
# a flat 28 C day in every room, so the ambient term is exact
FLAT = AmbientProfile(temp_base_c=28.0, temp_amp_c=0.0)


def pixel_center(row, col, placement=PLACEMENT, res=4):
    xs, ys = sensor_grid(placement, res)
    return float(xs[row, col]), float(ys[row, col])


def render_bodies(bodies):
    """One 4x4 frame of 28 C ambient plus a blob per (center, posture), on the
    wire grid, as the engine renders it."""
    xs, ys = sensor_grid(PLACEMENT, 4)
    pixels = np.full((4, 4), 28.0)
    for (cx, cy), posture in bodies:
        sx, sy, amp = BLOB_PARAMS[posture]
        add_blobs(pixels[None], xs, ys, [cx], [cy], sx, sy, [amp])
    return pixels_to_celsius(quantize_pixels(pixels))


def simulate_flat(noise_sigma=0.0, sunlight=None):
    """One empty minute of the default layout."""
    layout = default_layout()
    script = ScenarioScript(
        EPOCH,
        1,
        [],
        ambient={room.room_id: FLAT for room in layout.rooms},
        sunlight=sunlight,
    )
    return simulate(layout, script, seed=0, config=PipelineConfig(pixel_noise_sigma=noise_sigma))


def frames_of(bundle, sensor_id):
    blocks = bundle_frames(bundle, sensor_id)
    return pixels_to_celsius(np.concatenate([b.pixels_centi for b in blocks]))


def test_empty_room_is_uniform_ambient():
    bundle = simulate_flat()
    assert bundle.frames
    for block in bundle.frames:
        assert np.all(pixels_to_celsius(block.pixels_centi) == pytest.approx(28.0))


def test_lie_down_blob_peak_and_elongation():
    # blob placed exactly on a pixel center: that pixel reads ambient + amplitude
    cx, cy = pixel_center(2, 1)
    celsius = render_bodies([((cx, cy), PostureLabel.LIE_DOWN)])
    assert celsius[2, 1] == pytest.approx(34.0, abs=0.01)
    assert celsius.argmax() == 2 * 4 + 1

    # oracle: evaluate the Gaussian at the grid centers independently
    xs, ys = sensor_grid(PLACEMENT, 4)
    sx, sy, amp = BLOB_PARAMS[PostureLabel.LIE_DOWN]
    expected = 28.0 + amp * np.exp(
        -((xs - cx) ** 2 / (2 * sx**2) + (ys - cy) ** 2 / (2 * sy**2))
    )
    assert np.allclose(celsius, expected, atol=0.01)

    # mass is elongated along the major (x) axis
    neighbor_x = celsius[2, 2] - 28.0
    neighbor_y = celsius[3, 1] - 28.0
    assert neighbor_x > neighbor_y * 2


def test_stand_hotter_and_tighter_than_sit():
    cx, cy = pixel_center(1, 1)
    value = {
        posture: render_bodies([((cx, cy), posture)])
        for posture in (PostureLabel.SIT, PostureLabel.STAND)
    }
    assert value[PostureLabel.STAND][1, 1] > value[PostureLabel.SIT][1, 1]
    # neighbor ratio: sit spreads more
    sit = value[PostureLabel.SIT]
    stand = value[PostureLabel.STAND]
    assert (sit[1, 2] - 28) / (sit[1, 1] - 28) > (stand[1, 2] - 28) / (stand[1, 1] - 28)


def test_occupant_outside_fov_contributes_nothing():
    celsius = render_bodies([((80.0, 80.0), PostureLabel.STAND)])
    assert np.all(np.abs(celsius - 28.0) < 0.005)


def patch_pixels(posture, amplitude_c, ts, tau_ms, row=2, col=1):
    """The engine's residual-heat term alone, at the pixel under the patch."""
    xs, ys = sensor_grid(PLACEMENT, 4)
    pixels = np.zeros((len(ts), 4, 4))
    patch = _Patch(0, np.array(pixel_center(row, col)), posture, 0.0, amplitude_c)
    track = _patch_track(np.asarray(ts, dtype=np.int64), patch, tau_ms)
    track.add_to(pixels, 0, len(ts), xs, ys)
    return pixels[:, row, col]


def test_residual_patch_decay_e_fold():
    tau_ms = 600_000
    at_zero, at_tau = patch_pixels(PostureLabel.LIE_DOWN, 2.4, [0, tau_ms], tau_ms)
    assert at_zero == pytest.approx(2.4, abs=0.01)
    assert at_tau == pytest.approx(2.4 / math.e, abs=0.01)


def test_residual_patch_decays_below_tenth_within_five_taus():
    tau_ms = 600_000
    ts = np.arange(0, 6 * tau_ms, MS_PER_MINUTE)
    amps = patch_pixels(PostureLabel.SIT, 3.2, ts, tau_ms)
    within = ts < 5 * tau_ms
    assert np.all(np.diff(amps[within]) < 0)  # monotone decay
    assert amps[within][-1] < 0.1  # already faint when the engine drops the patch
    assert np.all(amps[~within] == 0.0)


def test_sunlight_patch_applied_to_region():
    sun = SunlightPatch("bedroom", 0, 1, 2, 3, clock_start=0, clock_end=86_399_000, delta_c=4.0)
    bundle = simulate_flat(sunlight=sun)
    celsius = frames_of(bundle, "bedroom/C0/thermal")
    assert np.all(celsius[:, 0:2, 1:3] == pytest.approx(32.0))
    assert np.all(celsius[:, 3, 3] == pytest.approx(28.0))
    outside = np.ones((4, 4), dtype=bool)
    outside[0:2, 1:3] = False
    assert np.all(celsius[:, outside] == pytest.approx(28.0))
    # other rooms see no sunlight
    assert np.all(frames_of(bundle, "dining/C0/thermal") == pytest.approx(28.0))


def test_noise_statistics():
    stacked = frames_of(simulate_flat(noise_sigma=0.3), "living/D0/thermal") - 28.0
    assert stacked.shape[1:] == (32, 32)
    assert abs(stacked.std() - 0.3) < 0.01
    assert abs(stacked.mean()) < 0.01


def test_path_positions_ping_pong():
    path = ((0.0, 0.0), (2.0, 0.0))
    # 1 m/s: at t=1s -> x=1; t=2s -> x=2 (end); t=3s -> back to x=1
    rel = np.array([0, 1000, 2000, 3000, 4000, 5000])
    pos = path_positions(path, rel, speed_mps=1.0)
    assert pos[:, 0].tolist() == [0.0, 1.0, 2.0, 1.0, 0.0, 1.0]
    assert np.all(pos[:, 1] == 0.0)


def test_blob_images_vectorized_matches_scalar():
    xs, ys = sensor_grid(PLACEMENT, 4)
    cx = np.array([1.6, 2.0, 2.4])
    cy = np.array([1.5, 1.75, 2.0])
    amp = np.array([7.0, 6.5, 8.0])
    batch = np.zeros((3, 4, 4))
    add_blobs(batch, xs, ys, cx, cy, 0.35, 0.35, amp)
    for i in range(3):
        single = np.zeros((1, 4, 4))
        add_blobs(single, xs, ys, cx[i : i + 1], cy[i : i + 1], 0.35, 0.35, amp[i : i + 1])
        assert np.array_equal(batch[i], single[0])
