#!/usr/bin/env python3
"""Rewrite tests/golden.json: the digests of every pinned output, the
environment the BLAS-dependent ones were computed in, and the environment
keys each of those depends on.

    PYTHONPATH=src python tests/update_golden.py

A changed digest is a changed result: the change that moves one states
which outputs moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden import GOLDEN_PATH, compute, depends_on, environment  # noqa: E402


def main() -> int:
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
    new = {"recorded_environment": environment(), **compute()}
    new["depends_on"] = depends_on(new["environment"])
    GOLDEN_PATH.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for group in ("portable", "environment"):
        before = old.get(group, {})
        for name, digest in sorted(new[group].items()):
            if before.get(name) != digest:
                print(f"{'changed' if name in before else 'new'}: {group} {name}")
        for name in sorted(set(before) - set(new[group])):
            print(f"removed: {group} {name}")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
