"""Crash-safe file writes: every file the package writes goes through here."""

from __future__ import annotations

import os
from collections.abc import Iterable
from pathlib import Path


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write the chunks to a file beside `path`, fsync it and rename it over
    `path`, so a failed write leaves the previous file whole."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
