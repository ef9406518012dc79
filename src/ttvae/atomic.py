"""Atomic artifact writes: write a temporary file beside the target, then rename.

Every artifact -- dataset, checkpoint, vectors file, ledger, report, chart,
MIDI file -- is written through :func:`atomic_write`, so a reader finds the
old file or the new one, never a partial write.  A writer that raises leaves
the old file byte-identical and removes its temporary file.  (The data is not
fsync'ed: this guards against a failing or killed writer, not against a
power cut.)  An output path that cannot hold the file raises
InvalidInputError; a full disk while writing stays an OSError.  Commands run
:func:`check_output` on their output files before their work.

:func:`json_text` is the one JSON format of every JSON artifact and of the
``--json`` output of the commands: strict JSON (a NaN or infinity raises
ValueError before anything is written), two-space indent, sorted keys and a
final newline.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from .errors import InvalidInputError

# An output path's directory is missing, or a file or directory is in the way.
PATH_ERRORS = (FileExistsError, FileNotFoundError, IsADirectoryError,
               NotADirectoryError, PermissionError)


def _at(path, action, *args, **kwargs):
    """``action(...)``; a :data:`PATH_ERRORS` error is InvalidInputError."""
    try:
        return action(*args, **kwargs)
    except PATH_ERRORS as err:
        raise InvalidInputError(f"cannot write {path}: {err.strerror}") from err


@contextmanager
def atomic_write(path):
    """Yield a binary file whose contents replace ``path`` when the block ends."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fh = _at(path, open, tmp, "xb")
    try:
        with fh:
            yield fh
        _at(path, os.replace, tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_atomic(path, data: bytes | str) -> None:
    """Replace ``path`` with ``data``; a str is written as UTF-8."""
    with atomic_write(path) as fh:
        fh.write(data.encode() if isinstance(data, str) else data)


def json_text(payload) -> str:
    """``payload`` in the artifact JSON format (see the module)."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, payload) -> None:
    """Replace ``path`` with ``payload`` in the artifact JSON format."""
    write_atomic(path, json_text(payload))


def check_output(path) -> Path:
    """``path`` as a Path, once it can take a file: InvalidInputError names
    it if a directory stands there or its directory does not exist."""
    path = Path(path)
    if path.is_dir():
        raise InvalidInputError(f"cannot write {path}: it is a directory")
    if not path.parent.is_dir():
        raise InvalidInputError(
            f"cannot write {path}: {path.parent} is not a directory")
    return path


def output_dir(path) -> Path:
    """``path`` as a directory, made with its parents if missing."""
    _at(path, Path(path).mkdir, parents=True, exist_ok=True)
    return Path(path)
