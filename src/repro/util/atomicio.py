"""Atomic file writes: the tmp + flush + fsync + ``os.replace`` rule.

Every durable artifact in the pipeline — checkpoints, bench ledgers,
trace exports, reports, Perfetto timelines, stream snapshots — follows
the same durability contract: the payload is written to a temporary
file in the destination directory, flushed and fsynced, then
``os.replace``-d into place.  A crash mid-write can never leave a
truncated file under the final name; readers either see the previous
complete version or the new complete version, never a torn one.

This module is the single implementation of that rule.  The temporary
file carries the writer's PID (``<name>.tmp.<pid>``) so concurrent
writers from different processes never collide, and stale temporaries
from a crashed writer are recognisable and safe to delete.

Note the contract covers *torn writes under the final name*, not media
corruption after the rename — readers that must catch bit rot or
truncation of a file at rest validate its contents themselves (the
checkpoint loader does, and quarantines a file that fails).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

__all__ = ["atomic_write", "atomic_write_bytes", "atomic_write_text"]


@contextmanager
def atomic_write(
    path: str | os.PathLike,
    *,
    mode: str = "w",
    encoding: str | None = None,
) -> Iterator[IO]:
    """Context manager yielding a file handle that commits atomically.

    On clean exit the handle is flushed, fsynced, and renamed over
    ``path``; on any exception the temporary file is removed and the
    destination is left untouched.  ``mode`` must be a write mode
    (``"w"`` or ``"wb"``); text mode defaults to UTF-8.
    """
    if mode not in ("w", "wb"):
        raise ValueError(f"atomic_write mode must be 'w' or 'wb', got {mode!r}")
    if encoding is None and mode == "w":
        encoding = "utf-8"
    final = Path(os.fspath(path))
    tmp = final.with_name(final.name + f".tmp.{os.getpid()}")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if tmp.exists():  # replace failed or the body raised
            tmp.unlink()


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> Path:
    """Atomically write ``data`` to ``path``; returns the final path."""
    with atomic_write(path, mode="wb") as fh:
        fh.write(data)
    return Path(os.fspath(path))


def atomic_write_text(
    path: str | os.PathLike, text: str, *, encoding: str = "utf-8"
) -> Path:
    """Atomically write ``text`` to ``path``; returns the final path."""
    with atomic_write(path, mode="w", encoding=encoding) as fh:
        fh.write(text)
    return Path(os.fspath(path))
