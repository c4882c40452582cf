"""The wire, store and training replays still match the code they replay:
each runs once as its own process and must finish cleanly and print its
rows.  Their figures are not checked."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize(
    "script, args, rows",
    [
        ("wire_cost.py", ["1"], ["construction", "stream pass 1", "stream pass 2"]),
        ("store_read_cost.py", [], ["history  240 min", "adopted", "copied"]),
        ("train_cost.py", ["1"], ["pool backward", "im2col", "whole operation"]),
    ],
)
def test_replay_runs(script, args, rows):
    src = str(TESTS.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    done = subprocess.run(
        [sys.executable, str(TESTS / script), *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    for row in rows:
        assert row in done.stdout
