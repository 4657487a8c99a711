"""File writes that leave unchanged files alone."""

from __future__ import annotations

import os


def write_if_changed(path, payload: bytes) -> bool:
    """Write ``payload`` to ``path`` unless the file already holds exactly
    those bytes; returns whether it wrote.

    Rewriting a file truncates it first, and on a filesystem that
    discards freed blocks that alone can block the caller for tens of
    milliseconds.  A skipped write also keeps the file's ``st_mtime_ns``,
    so caches stamped with it stay valid.
    """
    try:
        with open(path, "rb") as handle:
            if (os.fstat(handle.fileno()).st_size == len(payload)
                    and handle.read() == payload):
                return False
    except FileNotFoundError:
        pass
    with open(path, "wb") as handle:
        handle.write(payload)
    return True
