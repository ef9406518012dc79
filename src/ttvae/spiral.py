"""Spiral-array pitch geometry and the one tonal-tension kernel.

Pitch classes sit on a 3-D helix indexed by the line of fifths: one quarter
turn and a fixed vertical rise per fifth.  Tonal closeness then maps to
Euclidean closeness, which gives two per-window tension measures:

* cloud diameter -- largest pairwise distance among the sounding pitches
  (dissonance within the window);
* tensile strain -- distance between the cloud's weighted centroid (center
  of effect) and the key's center (tension against the tonal context).

:func:`cloud_tension` computes both for any stack of weighted point clouds;
the :class:`Cloud` functions here and the per-step curves of
:mod:`ttvae.tension` are thin wrappers around it.

Every position is a (3,) float64 array at the published calibration of the
spiral-array literature: radius 1, :data:`RISE` per fifth, and the chord
and key weights :data:`CHORD_WEIGHTS` and :data:`KEY_WEIGHTS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

RISE = math.sqrt(2.0 / 15.0)
CHORD_WEIGHTS = (0.536, 0.274, 0.190)
# The published key-weight calibration (0.516, 0.315, 0.168) sums to 0.999;
# normalize it so the weights form an exact convex combination.
KEY_WEIGHTS = (0.516 / 0.999, 0.315 / 0.999, 0.168 / 0.999)

# Line-of-fifths index per pitch class (C=0 .. B=11); black keys are spelled
# as flats except F#, which suits material normalized to C major / A minor.
FIFTH_INDEX_TABLE = (0, -5, 2, -3, 4, -1, 6, 1, -4, 3, -2, 5)


@dataclass(frozen=True)
class SpelledPitch:
    """A pitch class as its position on the line of fifths (C=0, G=+1, F=-1)."""

    fifth_index: int


@dataclass(frozen=True)
class Cloud:
    """The multiset of pitches sounding within one analysis window.

    ``weights`` defaults to all ones; members may repeat (a multiset), which
    leaves the diameter unchanged and re-weights the center of effect.
    """

    members: tuple[SpelledPitch, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.weights is not None:
            if len(self.weights) != len(self.members):
                raise InvalidInputError("weights must match members in length")
            if any(w <= 0 for w in self.weights):
                raise InvalidInputError("cloud weights must be positive")

    def effective_weights(self) -> tuple[float, ...]:
        if self.weights is None:
            return (1.0,) * len(self.members)
        return self.weights


def pitch_position(fifth_index: int) -> np.ndarray:
    """Helix position of a spelled pitch: quarter turn + fixed rise per fifth."""
    angle = fifth_index * math.pi / 2.0
    return np.array([math.sin(angle), math.cos(angle), fifth_index * RISE])


# (12, 3) helix positions of pitch classes C..B, read-only.
PITCH_CLASS_POSITIONS = np.array([pitch_position(k) for k in FIFTH_INDEX_TABLE])
PITCH_CLASS_POSITIONS.setflags(write=False)


def _member_points(cloud: Cloud) -> np.ndarray:
    if not cloud.members:
        raise InvalidInputError("cloud must contain at least one pitch")
    return np.array([pitch_position(p.fifth_index) for p in cloud.members])


def _weighted_center(points: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weight-normalized centroid over the member axis; 0 where no weight."""
    total = weights.sum(axis=-1)[..., None]
    return (points * weights[..., None]).sum(axis=-2) / np.where(total > 0, total, 1.0)


def cloud_tension(points: np.ndarray, weights: np.ndarray,
                  key_point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tensile strain and cloud diameter of a stack of weighted clouds.

    ``points`` is (..., m, 3) and ``weights`` (..., m) with non-negative
    entries; a zero weight marks an absent member.  Strain is the distance
    from the weighted centroid to ``key_point`` (0 where the total weight is
    0) and diameter the largest pairwise distance among members of positive
    weight (0 for fewer than two).  Both results have shape (...,).
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    present = weights > 0
    strain = np.linalg.norm(_weighted_center(points, weights) - key_point, axis=-1)
    strain = np.where(present.any(axis=-1), strain, 0.0)
    pair = np.linalg.norm(points[..., :, None, :] - points[..., None, :, :], axis=-1)
    pair = np.where(present[..., :, None] & present[..., None, :], pair, 0.0)
    return strain, pair.max(axis=(-2, -1))


def _cloud_tension(cloud: Cloud, key_point: np.ndarray) -> tuple[float, float]:
    strain, diameter = cloud_tension(_member_points(cloud),
                                     cloud.effective_weights(), key_point)
    return float(strain), float(diameter)


def cloud_diameter(cloud: Cloud) -> float:
    """Largest pairwise distance among the cloud's helix points (0 for singletons)."""
    return _cloud_tension(cloud, np.zeros(3))[1]


def _major_chord_center(tonic_fifth: int) -> np.ndarray:
    w1, w2, w3 = CHORD_WEIGHTS
    # Root, fifth (one step up the line), major third (four steps up).
    return (w1 * pitch_position(tonic_fifth)
            + w2 * pitch_position(tonic_fifth + 1)
            + w3 * pitch_position(tonic_fifth + 4))


def key_center(tonic_fifth: int) -> np.ndarray:
    """Center of effect of a major key: tonic, dominant and subdominant chords."""
    o1, o2, o3 = KEY_WEIGHTS
    return (o1 * _major_chord_center(tonic_fifth)
            + o2 * _major_chord_center(tonic_fifth + 1)
            + o3 * _major_chord_center(tonic_fifth - 1))


def tensile_strain(cloud: Cloud, key_point: np.ndarray) -> float:
    """Distance between the cloud's center of effect and ``key_point``."""
    return _cloud_tension(cloud, key_point)[0]
