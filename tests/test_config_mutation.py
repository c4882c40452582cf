"""Seeded mutations of the committed layout and scenario configs: loading
one, and validating what loads (as `hometwin simulate` does first), raises
only hometwin errors, so the CLI refuses a bad file with an exit code.  A
scenario that validates is also simulated over its first few minutes, and
a compact scenario that holds every event kind and field within those
minutes is mutated the same way."""

import copy
import json
import random
from pathlib import Path

import pytest

from hometwin.errors import HometwinError
from hometwin.layout import load_layout, validate_layout
from hometwin.simulate.engine import simulate
from hometwin.simulate.scenario import load_scenario, validate_scenario
from hometwin.simulate.scripts import sleep_day

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MUTATIONS = 1500
SIMULATED_MIN = 4
# every event kind and every optional field, within the simulated minutes
COMPACT_SCENARIO = {
    "epoch": "2024-03-04T18:00:00",
    "duration_min": SIMULATED_MIN,
    "events": [
        {"kind": "occupy", "start": 0.2, "end": 1.0, "room": "bedroom", "posture": "lie_down",
         "position": [2.0, 1.85], "orientation_deg": 30.0, "turnovers": [0.5]},
        {"kind": "lamp", "at": 1.1, "room": "washroom", "on": True},
        {"kind": "occupy", "start": 1.2, "end": 2.0, "room": "washroom", "posture": "walk",
         "path": [[8.6, 0.9], [8.95, 1.15], [8.7, 1.0]]},
        {"kind": "noise_burst", "start": 2.0, "end": 2.5, "room": "dining", "level": 70.0},
        {"kind": "visitor_enter", "at": 2.1, "count": 2},
        {"kind": "visitor_leave", "at": 2.6},
        {"kind": "leave_home", "at": 3.0},
        {"kind": "return_home", "at": "18:03"},
    ],
    "ambient": {"bedroom": {"temp_base_c": 26.0, "humidity_amp_rh": 4.0, "noise_base": 35}},
    "sunlight_patch": {"room": "bedroom", "row0": 0, "col0": 0, "row1": 2, "col1": 2,
                       "clock_start": "18:01", "clock_end": "18:03", "delta_c": 3.0},
}
# wrong types, empty containers, numbers out of range, clock and posture strings
VALUES = [None, True, 0, -1, 7, 1e308, -2.5, "", "x", "09:30", "sit", [], [1, 2], {}, {"a": 1}]


def slots(node, out: list) -> list:
    """Every (container, key) pair of a JSON tree, parents first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, value in items:
        out.append((node, key))
        slots(value, out)
    return out


def mutate(doc, rng: random.Random) -> str:
    """One to three structural edits of a copy of `doc`, as JSON text; one
    text in twenty is also cut short."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        found = slots(doc, [])
        if not found:
            break
        container, key = rng.choice(found)
        op = rng.randrange(4)
        if op == 0:
            del container[key]
        elif op == 1:
            container[key] = copy.deepcopy(rng.choice(VALUES))
        elif op == 2:  # a value from elsewhere in the file
            other, other_key = rng.choice(found)
            container[key] = copy.deepcopy(other[other_key])
        elif isinstance(container, list):
            container.insert(key, copy.deepcopy(container[key]))
        else:
            container[key] = [container[key]]
    text = json.dumps(doc)
    if rng.randrange(20) == 0:
        text = text[: rng.randrange(len(text))]
    return text


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def check_layout(path: Path) -> None:
    validate_layout(load_layout(path))


def check_scenario(path: Path) -> None:
    layout = sleep_day()[0]
    script = load_scenario(path)
    validate_scenario(script, layout)
    script.duration_min = min(script.duration_min, SIMULATED_MIN)
    simulate(layout, script, seed=1)


@pytest.mark.parametrize(
    "name, check",
    [
        ("layout_1bed", check_layout),
        ("scenario_sleep_day", check_scenario),
        ("compact_scenario", check_scenario),
    ],
)
def test_mutated_config_raises_only_hometwin_errors(tmp_path, name, check):
    if name == "compact_scenario":
        doc = COMPACT_SCENARIO
        check_scenario(write(tmp_path / "intact.json", json.dumps(doc)))  # intact, it runs
    else:
        doc = json.loads((CONFIGS / f"{name}.json").read_text())
    rng = random.Random(15)
    path = tmp_path / "mutant.json"
    refused, escaped = 0, []
    for i in range(MUTATIONS):
        path.write_text(mutate(doc, rng))
        try:
            check(path)
        except HometwinError:
            refused += 1
        except Exception as exc:  # would end `hometwin simulate` in a traceback
            escaped.append(f"mutation {i}: {type(exc).__name__}: {exc}"[:200])
    assert not escaped, f"{len(escaped)} of {MUTATIONS} untyped: {escaped[:5]}"
    assert refused >= MUTATIONS // 10  # the mutations reach the checks
