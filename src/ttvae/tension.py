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
pitch class or rest) x (bass pitch class or rest) pairs.  The kernel runs
once on that grid, at import, into :data:`STRAIN_TABLE` and
:data:`DIAMETER_TABLE`; :func:`tension_curves` reads each step's values
from them, bit for bit what a kernel call per step gives.

Strain is measured against C major, the key every corpus fragment is moved
to.  The pipeline computes every curve this way, at the published
calibration.
"""

from __future__ import annotations

import numpy as np

from . import pianoroll
from .errors import InvalidInputError
from .spiral import PITCH_CLASS_POSITIONS, cloud_tension, key_center

QUARTER_NOTE_STEPS = 4


def moving_average(values: np.ndarray, window: int = QUARTER_NOTE_STEPS) -> np.ndarray:
    """Centered moving average along the last axis, window truncated at both edges.

    Index ``i`` averages ``values[..., i - window//2 : i + (window+1)//2]``
    clipped to the valid range; the output has the input's shape.  The sums
    are differences of cumulative sums, so window 1 is not bit for bit the input.
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


def _step_tables() -> tuple[np.ndarray, np.ndarray]:
    """Strain and diameter of every two-voice step, each shape (13, 13).

    Entry ``[m, b]`` is the cloud of melody pitch class ``m - 1`` and bass
    pitch class ``b - 1``, where -1 (index 0) is a rest.
    """
    pcs = np.stack(np.meshgrid(np.arange(-1, 12), np.arange(-1, 12),
                               indexing="ij"), axis=-1)
    tables = cloud_tension(PITCH_CLASS_POSITIONS[np.clip(pcs, 0, 11)],
                           (pcs >= 0).astype(float), key_center(0))
    for table in tables:
        table.setflags(write=False)
    return tables


STRAIN_TABLE, DIAMETER_TABLE = _step_tables()


def tension_curves(rolls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smoothed tensile-strain and cloud-diameter curves of one roll or a
    stack, float64 arrays of shape (..., 64)."""
    pianoroll.validate_roll(rolls)
    cells = (pianoroll.melody_pitch_classes(rolls) + 1,
             pianoroll.bass_pitch_classes(rolls) + 1)
    return (moving_average(STRAIN_TABLE[cells]),
            moving_average(DIAMETER_TABLE[cells]))
