"""Atomic artifact writes: write a temporary file beside the target, then rename.

Every artifact -- dataset, checkpoint, vectors file, ledger, report, chart,
MIDI file -- is written through :func:`atomic_write`, so a reader finds the
old file or the new one, never a partial write.  A writer that raises leaves
the old file byte-identical and removes its temporary file.  (The data is not
fsync'ed: this guards against a failing or killed writer, not against a
power cut.)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path):
    """Yield a binary file whose contents replace ``path`` when the block ends."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` with ``data``; a str is written as UTF-8."""
    with atomic_write(path) as fh:
        fh.write(data.encode() if isinstance(data, str) else data)
