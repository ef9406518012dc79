"""Per-fragment tension curves: raw per-step values plus quarter-note smoothing.

Each of the 64 sixteenth-note steps forms a cloud from the pitch classes
sounding at that step (melody and bass, sustained notes included, equal
weights).  Tensile strain and cloud diameter come per step from the one
kernel, :func:`ttvae.spiral.cloud_tension` -- a step where both tracks rest
contributes 0 -- and both curves are then smoothed with a centered
quarter-note moving average so values do not jump from one 16th note to the
next.  Every function here takes one roll (64, 89) or a stack (n, 64, 89)
and works along the last axis, so a stack costs one call.

A roll has exactly two voices, so a step's cloud is one of 13 x 13 (melody
pitch class or rest) x (bass pitch class or rest) pairs.
:func:`tension_curves` evaluates the kernel once on that grid and reads each
step's strain and diameter from the table; the values equal a kernel call
per step bit for bit.

:func:`tension_curves` is the one place that picks the key strain is
measured against: C major, the key every corpus fragment is moved to, unless
a caller names another.  The pipeline computes every curve this way, at the
published calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import pianoroll
from .errors import InvalidInputError
from .spiral import KeyCenter, SpiralConfig, cloud_tension, key_center, pitch_class_positions

QUARTER_NOTE_STEPS = 4


class TensionKind(Enum):
    TENSILE_STRAIN = "tensile_strain"
    CLOUD_DIAMETER = "cloud_diameter"


@dataclass(frozen=True)
class TensionCurve:
    """Smoothed per-16th-step tension values of one kind, shape (..., 64)."""

    kind: TensionKind
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape[-1:] != (pianoroll.N_STEPS,):
            raise InvalidInputError(
                f"tension curve must have {pianoroll.N_STEPS} values, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInputError("tension curve values must be finite")
        if (v < 0).any():
            raise InvalidInputError("tension curve values must be non-negative")
        object.__setattr__(self, "values", v)


def moving_average(values: np.ndarray, window: int = QUARTER_NOTE_STEPS) -> np.ndarray:
    """Centered moving average along the last axis, window truncated at both edges.

    Index ``i`` averages ``values[..., i - window//2 : i + (window+1)//2]``
    clipped to the valid range, so a window of 1 is the identity and the
    output always has the input's shape.
    """
    if window < 1:
        raise InvalidInputError(f"window must be >= 1, got {window}")
    v = np.asarray(values, dtype=float)
    n = v.shape[-1]
    lo = np.maximum(np.arange(n) - window // 2, 0)
    hi = np.minimum(np.arange(n) + (window + 1) // 2, n)
    csum = np.concatenate((np.zeros(v.shape[:-1] + (1,)), np.cumsum(v, axis=-1)),
                          axis=-1)
    return (csum[..., hi] - csum[..., lo]) / (hi - lo)


@lru_cache(maxsize=8)
def _step_table(key: KeyCenter, cfg: SpiralConfig) -> tuple[np.ndarray, np.ndarray]:
    """Strain and diameter of every two-voice step, each shape (13, 13).

    Entry ``[m, b]`` is the cloud of melody pitch class ``m - 1`` and bass
    pitch class ``b - 1``, where -1 (index 0) is a rest.  Both key and config
    are frozen, so the tables are cached per pair and returned read-only.
    """
    pcs = np.stack(np.meshgrid(np.arange(-1, 12), np.arange(-1, 12),
                               indexing="ij"), axis=-1)
    tables = cloud_tension(pitch_class_positions(cfg)[np.clip(pcs, 0, 11)],
                           (pcs >= 0).astype(float), key.point.to_array())
    for table in tables:
        table.setflags(write=False)
    return tables


def tension_curves(roll: np.ndarray, key: KeyCenter | None = None,
                   cfg: SpiralConfig = SpiralConfig(),
                   window: int = QUARTER_NOTE_STEPS,
                   ) -> tuple[TensionCurve, TensionCurve]:
    """Smoothed tensile-strain and cloud-diameter curves of one roll or a
    stack, with strain measured against ``key`` (C major by default)."""
    pianoroll.validate_roll(roll)
    if key is None:
        key = key_center(0, cfg)
    strain_table, diameter_table = _step_table(key, cfg)
    cells = (pianoroll.melody_pitch_classes(roll) + 1,
             pianoroll.bass_pitch_classes(roll) + 1)
    strain, diameter = strain_table[cells], diameter_table[cells]
    return (
        TensionCurve(TensionKind.TENSILE_STRAIN, moving_average(strain, window)),
        TensionCurve(TensionKind.CLOUD_DIAMETER, moving_average(diameter, window)),
    )
