"""Deterministic single-file checkpoints: JSON manifest + raw float32 blob.

Layout: magic ``TTVC``, a 4-byte little-endian manifest length, the UTF-8
JSON manifest, then the concatenated tensor bytes.  The manifest records
every tensor's name, shape, dtype and byte offset, the model config, the
training-schedule state, and a SHA-256 of the blob so truncation and
corruption are detected on load.  Tensors are serialized in sorted-name
order, so identical parameters always produce identical files.  A loaded
manifest must have the right keys and types, its tensors must lie end to end
in the blob, and their names and shapes must be the ones its config implies
(:func:`ttvae.vae.network.param_shapes`); any fault raises
:class:`CheckpointError`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from ..atomic import atomic_write
from ..corpus import read_input
from ..errors import CheckpointError, InvalidInputError
from .config import ModelConfig

CHECKPOINT_MAGIC = b"TTVC"
CHECKPOINT_FORMAT = 1
ID_LENGTH = 16


@dataclass
class Checkpoint:
    params: dict[str, np.ndarray]
    config: ModelConfig
    schedule: dict
    ident: str


def save_checkpoint(path, params: dict[str, np.ndarray], cfg: ModelConfig,
                    schedule: dict | None = None) -> str:
    """Write the checkpoint; returns its content-derived identifier."""
    names = sorted(params)
    blob = bytearray()
    tensors = []
    for name in names:
        arr = np.ascontiguousarray(params[name], dtype="<f4")
        tensors.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "<f4",
            "offset": len(blob),
            "nbytes": arr.nbytes,
        })
        blob += arr.tobytes()
    digest = hashlib.sha256(bytes(blob)).hexdigest()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": cfg.to_dict(),
        "schedule": schedule or {},
        "tensors": tensors,
        "blob_sha256": digest,
    }
    encoded = json.dumps(manifest, sort_keys=True).encode()
    with atomic_write(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(encoded).to_bytes(4, "little"))
        fh.write(encoded)
        fh.write(bytes(blob))
    return digest[:ID_LENGTH]


def _config_diff(stored: ModelConfig, expected: ModelConfig) -> list[str]:
    diffs = []
    for name in stored.__dataclass_fields__:
        a, b = getattr(stored, name), getattr(expected, name)
        if a != b:
            diffs.append(f"{name}: checkpoint has {a!r}, requested {b!r}")
    return diffs


def _is_count(value) -> bool:
    """True for a non-negative JSON integer (``true``/``false`` are not)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _tensor_entries(manifest: dict, path) -> list[dict]:
    """The manifest's tensor list, each entry checked for keys and types."""
    tensors = manifest.get("tensors")
    if not isinstance(tensors, list):
        raise CheckpointError(f"{path} manifest has no tensor list")
    for t in tensors:
        if not (isinstance(t, dict) and isinstance(t.get("name"), str)
                and isinstance(t.get("shape"), list)
                and all(_is_count(n) for n in t["shape"])
                and t.get("dtype") == "<f4" and _is_count(t.get("offset"))
                and _is_count(t.get("nbytes"))
                and t["nbytes"] == 4 * math.prod(t["shape"])):
            raise CheckpointError(f"{path} has a malformed tensor entry "
                                  f"{str(t)[:80]}")
    return tensors


def load_checkpoint(path, expected_config: ModelConfig | None = None) -> Checkpoint:
    """Read and verify a checkpoint; refuses mismatched or damaged files."""
    raw = read_input(path, "checkpoint")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if len(raw) < 8:
        raise CheckpointError(f"{path} is truncated before the manifest")
    manifest_len = int.from_bytes(raw[4:8], "little")
    manifest_end = 8 + manifest_len
    if manifest_end > len(raw):
        raise CheckpointError(f"{path} is truncated inside the manifest")
    try:
        manifest = json.loads(raw[8:manifest_end].decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as err:
        raise CheckpointError(f"unreadable manifest in {path}: {err}") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path} manifest is not a JSON object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r}")
    tensors = _tensor_entries(manifest, path)
    schedule = manifest.get("schedule", {})
    if not isinstance(schedule, dict) or not _is_count(
            schedule.get("global_batches", 0)):
        raise CheckpointError(f"{path} has a malformed schedule {str(schedule)[:80]}")

    blob = raw[manifest_end:]
    expected_size = sum(t["nbytes"] for t in tensors)
    if len(blob) != expected_size:
        raise CheckpointError(
            f"{path} blob has {len(blob)} bytes, manifest expects "
            f"{expected_size} (file truncated or padded)")
    starts = itertools.accumulate((t["nbytes"] for t in tensors), initial=0)
    if any(t["offset"] != start for t, start in zip(tensors, starts)):
        raise CheckpointError(f"{path} tensors do not lie end to end in its blob")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest.get("blob_sha256"):
        raise CheckpointError(f"{path} failed its integrity check")

    try:
        cfg = ModelConfig.from_dict(manifest.get("config"))
    except InvalidInputError as err:
        raise CheckpointError(f"{path} has an invalid config: {err}") from err
    if expected_config is not None:
        diffs = _config_diff(cfg, expected_config)
        if diffs:
            raise CheckpointError(
                "checkpoint does not match the requested config: "
                + "; ".join(diffs))
    from .network import param_shapes  # here: importing checkpoints loads no network
    shapes = {t["name"]: tuple(t["shape"]) for t in tensors}
    if len(shapes) != len(tensors) or shapes != param_shapes(cfg):
        raise CheckpointError(
            f"{path} tensors do not match the shapes its config implies")

    params: dict[str, np.ndarray] = {}
    for tensor in tensors:
        arr = np.frombuffer(blob, dtype="<f4", count=tensor["nbytes"] // 4,
                            offset=tensor["offset"])
        params[tensor["name"]] = (arr.reshape(tensor["shape"])
                                  .astype(np.float32, copy=True))
    return Checkpoint(params=params, config=cfg, schedule=schedule,
                      ident=digest[:ID_LENGTH])
