"""Seeded mutations of the committed layout and scenario configs: loading
one, and validating what loads (as `hometwin simulate` does first), raises
only hometwin errors, so the CLI refuses a bad file with an exit code."""

import copy
import json
import random
from pathlib import Path

import pytest

from hometwin.errors import HometwinError
from hometwin.layout import load_layout, validate_layout
from hometwin.simulate.scenario import load_scenario, validate_scenario
from hometwin.simulate.scripts import sleep_day

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
MUTATIONS = 1500
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


def check_layout(path: Path) -> None:
    validate_layout(load_layout(path))


def check_scenario(path: Path) -> None:
    validate_scenario(load_scenario(path), sleep_day()[0])


@pytest.mark.parametrize(
    "name, check",
    [("layout_1bed", check_layout), ("scenario_sleep_day", check_scenario)],
)
def test_mutated_config_raises_only_hometwin_errors(tmp_path, name, check):
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
