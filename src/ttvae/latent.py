"""Tension labeling, attribute-vector extraction, and latent edits.

Fragments are scored by how their tension curves behave: direction is the
Pearson correlation with a unit ramp, level is a signed distance from a
corpus threshold, and arbitrary shapes correlate against a template curve.
Top-scoring fragments on each side form two classes whose encoder-mean
difference is the attribute vector for that property; adding a scaled copy
of the vector to a latent code steers the decoded music toward the first
class.

This is the one module that knows the labeling thresholds: a vector records
the thresholds its classes were cut at, :meth:`AttributeVector.direction_tau`
and :meth:`AttributeVector.level_params` read them back, and
:func:`measured_curve` names the curve it measures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .atomic import write_atomic
from .corpus import FragmentDataset, read_json
from .errors import InvalidInputError, MissingFragmentError
from .pianoroll import N_STEPS
from .vae.network import TensionVae

DIRECTION_KINDS = ("tensile_strain_direction", "cloud_diameter_direction")
LEVEL_KINDS = ("tensile_strain_level", "cloud_diameter_level")
STANDARD_KINDS = DIRECTION_KINDS + LEVEL_KINDS
DEFAULT_TARGET_N = 1000


def measured_curve(name: str) -> str:
    """The dataset curve a labeling kind or vector of this name measures:
    ``"diameter"`` for the cloud-diameter kinds, else ``"tensile"``."""
    return "diameter" if name.startswith("cloud_diameter") else "tensile"


@dataclass(frozen=True)
class ShapeTemplate:
    """A 64-step target contour; must not be constant."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        try:
            v = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError, OverflowError) as err:
            raise InvalidInputError(f"template values must be numbers: {err}") from err
        if v.shape != (N_STEPS,):
            raise InvalidInputError(
                f"template needs {N_STEPS} values, got {v.shape}")
        if not np.isfinite(v).all():
            raise InvalidInputError("template values must be finite")
        if v.std() == 0:
            raise InvalidInputError("template must not be constant")
        object.__setattr__(self, "values", v)


RAMP_TEMPLATE = ShapeTemplate("ramp", np.arange(N_STEPS, dtype=float) / (N_STEPS - 1))


def triangle_template(peak_step: int = 32) -> ShapeTemplate:
    """Symmetric rise-then-fall template peaking at ``peak_step``."""
    if not 0 <= peak_step < N_STEPS:
        raise InvalidInputError(
            f"peak step must be in 0..{N_STEPS - 1}, got {peak_step}")
    steps = np.arange(N_STEPS, dtype=float)
    span = max(peak_step, N_STEPS - 1 - peak_step)
    return ShapeTemplate("triangle",
                         1.0 - np.abs(steps - peak_step) / span)


@dataclass
class AttributeVector:
    """Difference of class-mean latent codes; A is the up/high class."""

    name: str
    values: np.ndarray
    class_sizes: tuple[int, int]
    effective_thresholds: dict = field(default_factory=dict)

    def direction_tau(self) -> float:
        """The up-class labeling threshold (0 if unrecorded)."""
        return float(self.effective_thresholds.get("class_a_min_score", 0.0))

    def level_params(self) -> tuple[float, float]:
        """(threshold, tau) of the level labeling (each 0 if unrecorded)."""
        return (float(self.effective_thresholds.get("threshold", 0.0)),
                float(self.effective_thresholds.get("class_a_min_magnitude", 0.0)))


@dataclass
class VectorsFile:
    latent_dim: int
    checkpoint_id: str
    vectors: dict[str, AttributeVector]

    def get(self, name: str) -> AttributeVector:
        if name not in self.vectors:
            raise InvalidInputError(
                f"no vector named {name!r}; available: {sorted(self.vectors)}")
        return self.vectors[name]


def check_compatibility(model: TensionVae, vectors: VectorsFile,
                        checkpoint_id: str = "") -> None:
    """Refuse vector files that were built against a different model."""
    problems = []
    if vectors.latent_dim != model.cfg.latent_dim:
        problems.append(f"latent_dim {vectors.latent_dim} != model "
                        f"{model.cfg.latent_dim}")
    if vectors.checkpoint_id and checkpoint_id \
            and vectors.checkpoint_id != checkpoint_id:
        problems.append(f"checkpoint id {vectors.checkpoint_id!r} != "
                        f"model {checkpoint_id!r}")
    if problems:
        raise InvalidInputError(
            "vectors file is incompatible with this model: "
            + "; ".join(problems))


def _curve_rows(curves: np.ndarray) -> np.ndarray:
    curves = np.ascontiguousarray(curves, dtype=float)
    if curves.ndim != 2 or curves.shape[1] != N_STEPS:
        raise InvalidInputError(f"curves must be (n, {N_STEPS})")
    return curves


def shape_scores(curves: np.ndarray, template: ShapeTemplate) -> np.ndarray:
    """Correlation of each row of ``curves`` (n, 64) with a shape template;
    constant curves score 0.  Row means and stacked (1, 64) @ (64, 1)
    matmuls make the sums and BLAS dots of one curve's ``mean`` and ``@``,
    so each score equals the one-curve score bit for bit."""
    rows = _curve_rows(curves)
    rows = (rows - rows.mean(axis=1, keepdims=True))[:, None, :]
    b = template.values - template.values.mean()
    denom = np.sqrt((rows @ rows.transpose(0, 2, 1))[:, 0, 0]) * np.linalg.norm(b)
    dots = (rows @ b[:, None])[:, 0, 0]
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom != 0)


def level_scores(curves: np.ndarray,
                 threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """(signs, magnitudes) of each row of ``curves`` (n, 64): +1 where the
    row's mean is above the threshold, else -1, and the row's 2-norm
    distance from it.  Like :func:`shape_scores`, row means and stacked
    dots give each pair bit for bit as one curve's ``mean`` and ``norm``."""
    curves = _curve_rows(curves)
    diffs = (curves - threshold)[:, None, :]
    signs = np.where(curves.mean(axis=1) > threshold, 1, -1)
    return signs, np.sqrt((diffs @ diffs.transpose(0, 2, 1))[:, 0, 0])


@dataclass
class ClassSelection:
    """Fragment ids for the two opposed classes plus selection metadata."""

    kind: str
    class_a: list[int]          # up / high / matches-shape
    class_b: list[int]          # down / low / anti-shape
    effective_thresholds: dict
    warnings: list[str] = field(default_factory=list)


def _top_ids(scores: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` ids of highest score; among equal scores the lower id first."""
    return ids[np.lexsort((ids, -scores))][:n]


def select_classes(curves: np.ndarray, kind: str,
                   target_n: int = DEFAULT_TARGET_N,
                   threshold: float | None = None,
                   template: ShapeTemplate | None = None) -> ClassSelection:
    """Label the extremes of the dataset for one tension property.

    Direction/shape kinds take the ``target_n`` highest-scoring fragments as
    class A and the lowest as class B; a direction kind is the shape kind of
    :data:`RAMP_TEMPLATE`.  Level kinds split on the threshold sign first
    (corpus mean by default) and rank by distance from it.  When the
    population cannot support two classes of ``target_n``, class sizes
    shrink to half the population (direction/shape) or the side population
    (level), with a warning recorded.
    """
    curves = _curve_rows(curves)
    n = len(curves)
    warnings = []
    if kind in DIRECTION_KINDS:
        template = RAMP_TEMPLATE
    if kind in LEVEL_KINDS:
        c = float(curves.mean()) if threshold is None else float(threshold)
        signs, magnitudes = level_scores(curves, c)
        high, low = np.flatnonzero(signs > 0), np.flatnonzero(signs < 0)
        per_class = min(target_n, len(high), len(low))
        if per_class < target_n:
            warnings.append(
                f"sides hold {len(high)} high / {len(low)} low fragments; "
                f"using {per_class} per class")
        if per_class == 0:
            raise InvalidInputError(
                f"cannot form {kind} classes: one side is empty")
        class_a = _top_ids(magnitudes[high], high, per_class)
        class_b = _top_ids(magnitudes[low], low, per_class)
        thresholds = {
            "threshold": c,
            "class_a_min_magnitude": float(magnitudes[class_a].min()),
            "class_b_min_magnitude": float(magnitudes[class_b].min()),
        }
    elif template is not None:
        scores = shape_scores(curves, template)
        per_class = min(target_n, n // 2)
        if target_n > n // 2:
            warnings.append(
                f"population {n} cannot fill two classes of {target_n}; "
                f"using {per_class} per class")
        if per_class == 0:
            raise InvalidInputError(f"cannot form {kind} classes from {n} fragment(s)")
        # Top and bottom of one ranking: disjoint because 2 * per_class <= n.
        ranked = _top_ids(scores, np.arange(n), n)
        class_a, class_b = ranked[:per_class], ranked[n - per_class:]
        thresholds = {
            "class_a_min_score": float(scores[class_a].min()),
            "class_b_max_score": float(scores[class_b].max()),
        }
    elif kind.startswith("shape:"):
        raise InvalidInputError("shape selection needs a template")
    else:
        raise InvalidInputError(f"unknown labeling kind {kind!r}")
    return ClassSelection(kind=kind, class_a=np.sort(class_a).tolist(),
                          class_b=np.sort(class_b).tolist(),
                          effective_thresholds=thresholds, warnings=warnings)


def class_means(model: TensionVae, dataset: FragmentDataset,
                classes: list[list[int]]) -> list[np.ndarray]:
    """Float64 mean encoder code of each (non-empty) class of fragment ids.

    The sorted union of the class ids is encoded once, by
    :meth:`TensionVae.encode`, which gives a fragment the code it has in any
    encode; each class sums its rows of that table in class order.  So a
    class's mean does not depend on the other classes requested with it.
    """
    if not all(len(ids) for ids in classes):
        raise InvalidInputError("classes must be non-empty")
    union = np.unique(np.concatenate(classes))
    outside = union[(union < 0) | (union >= len(dataset))]
    if len(outside):
        raise MissingFragmentError(f"fragment id {outside[0]} is not in the "
                                   f"dataset (size {len(dataset)})")
    table = model.encode(dataset.rolls[union]).mu
    return [table[np.searchsorted(union, ids)].sum(axis=0, dtype=np.float64)
            / len(ids) for ids in classes]


def attribute_vector(model: TensionVae, dataset: FragmentDataset,
                     class_a: list[int], class_b: list[int],
                     name: str) -> AttributeVector:
    """Difference of encoder posterior means between the two classes (see
    :func:`class_means`)."""
    mean_a, mean_b = class_means(model, dataset, [class_a, class_b])
    return AttributeVector(name=name, values=mean_a - mean_b,
                           class_sizes=(len(class_a), len(class_b)))


def apply_vector(z: np.ndarray, vector: AttributeVector,
                 scale: float) -> np.ndarray:
    """z + scale * vector (dimension-checked, input untouched).

    A result that is not finite -- a non-finite scale, or one so large that
    it overflows the latent dtype -- raises InvalidInputError.
    """
    z = np.asarray(z)
    if z.shape[-1] != vector.values.shape[0]:
        raise InvalidInputError(
            f"latent size {z.shape[-1]} does not match vector "
            f"{vector.name!r} of size {vector.values.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        edited = z + scale * vector.values.astype(z.dtype)
    if not np.isfinite(edited).all():
        raise InvalidInputError(
            f"edit {vector.name!r} at scale {scale!r} gives a non-finite "
            f"latent code")
    return edited


def build_vectors(model: TensionVae, dataset: FragmentDataset,
                  kinds: list[str] | None = None,
                  target_n: int = DEFAULT_TARGET_N,
                  restrict_ids: list[int] | None = None,
                  templates: dict[str, ShapeTemplate] | None = None,
                  checkpoint_id: str = "") -> VectorsFile:
    """Label the dataset and extract one attribute vector per kind.

    Every kind is labeled first.  Then each fragment of any class is encoded
    once, and each class mean is summed from those codes
    (:func:`class_means`), so a kind's vector is the same whichever other
    kinds are built with it.
    ``restrict_ids`` limits labeling to a subset (normally the training
    split); class ids still refer to dataset positions.
    """
    kinds = list(kinds) if kinds else list(STANDARD_KINDS)
    templates = templates or {}
    ids = np.arange(len(dataset)) if restrict_ids is None \
        else np.asarray(restrict_ids, dtype=np.intp)
    selections = {}
    for kind in kinds:
        curves = getattr(dataset, measured_curve(kind))[ids]
        selections[kind] = select_classes(curves, kind, target_n,
                                          template=templates.get(kind))
    classes = [ids[c].tolist() for s in selections.values()
               for c in (s.class_a, s.class_b)]
    means = iter(class_means(model, dataset, classes))
    vectors = {
        kind: AttributeVector(
            name=kind, values=next(means) - next(means),
            class_sizes=(len(s.class_a), len(s.class_b)),
            effective_thresholds=s.effective_thresholds)
        for kind, s in selections.items()}
    return VectorsFile(latent_dim=model.cfg.latent_dim,
                       checkpoint_id=checkpoint_id, vectors=vectors)


def save_vectors(path, vectors_file: VectorsFile) -> None:
    payload = {
        "latent_dim": vectors_file.latent_dim,
        "checkpoint_id": vectors_file.checkpoint_id,
        "vectors": [
            {
                "name": v.name,
                "values": [float(x) for x in v.values],
                "class_sizes": list(v.class_sizes),
                "effective_thresholds": v.effective_thresholds,
            }
            for _, v in sorted(vectors_file.vectors.items())
        ],
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_vectors(path) -> VectorsFile:
    payload = read_json(path, "vectors file")
    try:
        latent_dim = int(payload["latent_dim"])
        vectors = {}
        for item in payload.get("vectors", []):
            name = item["name"]
            if not isinstance(name, str):
                raise TypeError(f"vector name {name!r} must be a string")
            values = np.array(item["values"], dtype=np.float64)
            if values.shape != (latent_dim,) or not np.isfinite(values).all():
                raise ValueError(f"vector {name!r} needs {latent_dim} "
                                 f"finite values")
            sizes = item["class_sizes"]
            # JSON numbers load as exactly int or float; true is a bool
            if not (isinstance(sizes, list) and len(sizes) == 2
                    and all(type(n) is int and n >= 0 for n in sizes)):
                raise ValueError(f"vector {name!r} needs two non-negative "
                                 f"integer class sizes")
            thresholds = item.get("effective_thresholds", {})
            if not isinstance(thresholds, dict) or not all(
                    type(v) in (int, float) and math.isfinite(v)
                    for v in thresholds.values()):
                raise ValueError(f"vector {name!r} needs effective_thresholds "
                                 f"of finite numbers")
            vectors[name] = AttributeVector(
                name=name, values=values, class_sizes=tuple(sizes),
                effective_thresholds=thresholds)
        checkpoint_id = payload.get("checkpoint_id", "")
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as err:
        raise InvalidInputError(
            f"malformed vectors file {path}: {type(err).__name__}: {err}") from err
    return VectorsFile(latent_dim=latent_dim, checkpoint_id=checkpoint_id,
                       vectors=vectors)
