"""Behavioral evaluation of latent tension edits at configurable scale.

Sweeps sample latent codes, decode them with and without a scaled attribute
vector, harden the soft outputs into piano rolls, and measure how often the
recomputed tension curves classify as upward/high alongside how much pitch
and rhythm changed.  Ratios always use tension recomputed from the decoded
rolls by the spiral geometry -- never the model's own tension heads, which
are reported separately as "predicted" -- so prediction error cannot
contaminate the behavioral claim.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from . import pianoroll
from .atomic import write_atomic
from .errors import InvalidInputError
from .latent import AttributeVector, apply_vector, direction_score
from .pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_COLS,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_ONSET_COL,
    MELODY_PITCH_COLS,
    MELODY_REST_COL,
)
from .spiral import SpiralConfig, key_center
from .tension import tension_curves
from .vae.network import DecoderOutput, TensionVae, sample_latent

DEFAULT_DIRECTION_SCALES = (-8.0, -6.0, -4.0, -2.0, 0.0, 2.0, 4.0, 6.0, 8.0)
DEFAULT_LEVEL_SCALES = (-6.0, -3.0, 0.0, 3.0, 6.0)
DECODE_CHUNK = 256


@dataclass
class SweepRow:
    scale: float
    n: int
    ratio_recomputed: float
    ratio_predicted: float
    melody_pitch_accuracy: float
    bass_pitch_accuracy: float
    melody_rhythm_fscore: float
    bass_rhythm_fscore: float


@dataclass
class SweepReport:
    vector_name: str
    ratio_kind: str                 # "upward" or "high"
    measured_curve: str             # "tensile" or "diameter"
    scales: list[float]
    rows: list[SweepRow]
    thresholds: dict
    n: int
    rng_seed: int
    untrained_model: bool = False

    def ratios(self) -> list[float]:
        return [row.ratio_recomputed for row in self.rows]


@dataclass
class InteractionReport:
    vector_names: tuple[str, str]
    ratio_kind: str                 # "upward" or "high"
    scales: list[float]
    # rows[vector][scale] -> {"tensile": ratio, "diameter": ratio}
    rows: dict[str, dict[float, dict[str, float]]]
    cross_effect: dict[str, float]
    n: int
    rng_seed: int
    untrained_model: bool = False


def roll_from_output(out: DecoderOutput) -> np.ndarray:
    """Harden soft outputs into valid binary rolls, (64, 89) or (n, 64, 89).

    Pitch takes the row argmax (ties resolve to the lowest index), onsets
    fire strictly above 0.5, and onsets on rest steps are cleared to keep
    the roll invariants.
    """
    if out.melody_pitch.ndim not in (2, 3):
        raise InvalidInputError("roll_from_output expects one example or a batch")
    melody_cols = out.melody_pitch.argmax(axis=-1)
    bass_cols = out.bass_pitch.argmax(axis=-1)
    roll = np.zeros(melody_cols.shape + (pianoroll.N_FEATURES,), dtype=np.uint8)
    np.put_along_axis(roll, melody_cols[..., None], 1, axis=-1)
    np.put_along_axis(roll, BASS_PITCH_START + bass_cols[..., None], 1, axis=-1)
    roll[..., MELODY_ONSET_COL] = (out.melody_onset > 0.5) & (
        melody_cols != MELODY_REST_COL)
    roll[..., BASS_ONSET_COL] = (out.bass_onset > 0.5) & (
        bass_cols != BASS_REST_COL - BASS_PITCH_START)
    return roll


def _per_pair(values, original: np.ndarray):
    """Two per-example arrays, or two floats for a single (64, 89) pair."""
    if original.ndim == 2:
        return tuple(float(v) for v in values)
    return values


def pitch_accuracy(original: np.ndarray, modified: np.ndarray):
    """Per-step pitch-column agreement for melody and bass (rest == rest).

    Takes one (64, 89) pair, giving two floats, or (n, 64, 89) stacks,
    giving two (n,) arrays of per-example values.
    """
    if original.shape != modified.shape:
        raise InvalidInputError("rolls must have identical shapes")
    return _per_pair(tuple(
        (original[..., cols].argmax(axis=-1)
         == modified[..., cols].argmax(axis=-1)).mean(axis=-1)
        for cols in (MELODY_PITCH_COLS, BASS_PITCH_COLS)), original)


def _onset_fscore(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact-step F-score of the nonzero steps of each row of ``b`` against ``a``."""
    ref, est = a != 0, b != 0
    hits = (ref & est).sum(axis=-1)
    n_ref, n_est = ref.sum(axis=-1), est.sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = hits / n_est
        recall = hits / n_ref
        score = 2 * precision * recall / (precision + recall)
    # No hit scores 0, unless both sets are empty.
    return np.where(hits > 0, score, np.where((n_ref == 0) & (n_est == 0), 1.0, 0.0))


def rhythm_fscore(original: np.ndarray, modified: np.ndarray):
    """Exact-step onset F-score, melody and bass; two empty sets score 1.

    Takes one (64, 89) pair, giving two floats, or (n, 64, 89) stacks,
    giving two (n,) arrays of per-example values.
    """
    if original.shape != modified.shape:
        raise InvalidInputError("rolls must have identical shapes")
    return _per_pair(tuple(
        _onset_fscore(original[..., col], modified[..., col])
        for col in (MELODY_ONSET_COL, BASS_ONSET_COL)), original)


def upward_ratio(curves: np.ndarray, tau: float) -> float:
    """Fraction of curves whose direction score strictly exceeds ``tau``."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[0] < 1:
        raise InvalidInputError("upward_ratio needs at least one curve")
    return float(np.mean([direction_score(c) > tau for c in curves]))


def high_ratio(curves: np.ndarray, threshold: float, tau: float) -> float:
    """Fraction with mean above ``threshold`` and 2-norm distance over ``tau``."""
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[0] < 1:
        raise InvalidInputError("high_ratio needs at least one curve")
    means = curves.mean(axis=1)
    magnitudes = np.linalg.norm(curves - threshold, axis=1)
    return float(np.mean((means > threshold) & (magnitudes > tau)))


def decode_hardened(model: TensionVae, z: np.ndarray,
                    spiral_cfg: SpiralConfig = SpiralConfig(),
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
    """Decode latents to rolls plus predicted and recomputed curves."""
    reference = key_center(0, spiral_cfg)
    parts = []
    for start in range(0, len(z), DECODE_CHUNK):
        out = model.decode(z[start:start + DECODE_CHUNK])
        rolls = roll_from_output(out)
        strain, diameter = tension_curves(rolls, reference, spiral_cfg)
        parts.append((rolls, out.tensile, out.diameter,
                      strain.values, diameter.values))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _measured_curve(vector_name: str) -> str:
    return "diameter" if vector_name.startswith("cloud_diameter") else "tensile"


def _pair_metrics(original_rolls: np.ndarray, modified_rolls: np.ndarray):
    per_example = (pitch_accuracy(original_rolls, modified_rolls)
                   + rhythm_fscore(original_rolls, modified_rolls))
    return tuple(float(values.mean()) for values in per_example)


def _direction_tau(vector: AttributeVector) -> float:
    """The vector's effective up-class labeling threshold (0 if unrecorded)."""
    return float(vector.effective_thresholds.get("class_a_min_score", 0.0))


def _level_params(vector: AttributeVector) -> tuple[float, float]:
    """(threshold, tau) of the vector's effective level labeling."""
    thresholds = vector.effective_thresholds
    return (float(thresholds.get("threshold", 0.0)),
            float(thresholds.get("class_a_min_magnitude", 0.0)))


def _sweep(model: TensionVae, vector: AttributeVector, scales, n: int,
           rng_seed: int, ratio_fn, ratio_kind: str, thresholds: dict,
           spiral_cfg: SpiralConfig, untrained: bool) -> SweepReport:
    if n < 1:
        raise InvalidInputError("sweep needs n >= 1 samples")
    z = sample_latent(n, model.cfg.latent_dim, rng_seed).astype(model.dtype)
    original = decode_hardened(model, z, spiral_cfg)
    measured = _measured_curve(vector.name)
    rows = []
    for scale in scales:
        if scale == 0.0:
            rolls, pred_t, pred_d, rec_t, rec_d = original
        else:
            rolls, pred_t, pred_d, rec_t, rec_d = decode_hardened(
                model, apply_vector(z, vector, scale), spiral_cfg)
        recomputed = rec_t if measured == "tensile" else rec_d
        predicted = pred_t if measured == "tensile" else pred_d
        metrics = _pair_metrics(original[0], rolls)
        rows.append(SweepRow(
            scale=float(scale), n=n,
            ratio_recomputed=ratio_fn(recomputed),
            ratio_predicted=ratio_fn(predicted),
            melody_pitch_accuracy=metrics[0], bass_pitch_accuracy=metrics[1],
            melody_rhythm_fscore=metrics[2], bass_rhythm_fscore=metrics[3]))
    return SweepReport(vector_name=vector.name, ratio_kind=ratio_kind,
                       measured_curve=measured, scales=[float(s) for s in scales],
                       rows=rows, thresholds=thresholds, n=n, rng_seed=rng_seed,
                       untrained_model=untrained)


def direction_sweep(model: TensionVae, vector: AttributeVector,
                    scales=DEFAULT_DIRECTION_SCALES, n: int = 10_000,
                    rng_seed: int = 0, tau: float | None = None,
                    spiral_cfg: SpiralConfig = SpiralConfig(),
                    trained_batches: int | None = None) -> SweepReport:
    """Upward-ratio and change metrics across scaled direction edits.

    ``tau`` defaults to the vector's effective up-class labeling threshold.
    """
    if tau is None:
        tau = _direction_tau(vector)
    return _sweep(model, vector, scales, n, rng_seed,
                  lambda curves: upward_ratio(curves, tau),
                  "upward", {"tau_direction": tau}, spiral_cfg,
                  untrained=not trained_batches)


def level_sweep(model: TensionVae, vector: AttributeVector,
                scales=DEFAULT_LEVEL_SCALES, n: int = 10_000,
                rng_seed: int = 0, threshold: float | None = None,
                tau: float | None = None,
                spiral_cfg: SpiralConfig = SpiralConfig(),
                trained_batches: int | None = None) -> SweepReport:
    """High-ratio analogue of :func:`direction_sweep` for level vectors.

    ``threshold`` and ``tau`` default to the vector's effective labeling.
    """
    own_threshold, own_tau = _level_params(vector)
    threshold = own_threshold if threshold is None else threshold
    tau = own_tau if tau is None else tau
    return _sweep(model, vector, scales, n, rng_seed,
                  lambda curves: high_ratio(curves, threshold, tau),
                  "high", {"threshold": threshold, "tau_level": tau},
                  spiral_cfg, untrained=not trained_batches)


def interaction_grid(model: TensionVae, vector_a: AttributeVector,
                     vector_b: AttributeVector,
                     scales=DEFAULT_DIRECTION_SCALES, n: int = 10_000,
                     rng_seed: int = 0,
                     taus: dict[str, float] | None = None,
                     mode: str = "upward",
                     level_params: dict[str, dict[str, float]] | None = None,
                     spiral_cfg: SpiralConfig = SpiralConfig(),
                     trained_batches: int | None = None) -> InteractionReport:
    """Apply each vector alone and measure both tension kinds' ratios.

    ``mode="upward"`` rates each kind's direction (thresholds in ``taus``);
    ``mode="high"`` rates levels using per-kind ``level_params`` entries of
    the form {"threshold": c, "tau": t}.  Either mapping defaults to the
    effective thresholds of the vector that measures each kind.  The
    cross-effect statistic per vector is the mean absolute deviation of the
    *other* kind's ratio from its unedited baseline.
    """
    if mode not in ("upward", "high"):
        raise InvalidInputError(f"unknown interaction mode {mode!r}")
    vectors = (vector_a, vector_b)
    if taus is None:
        taus = {_measured_curve(v.name): _direction_tau(v) for v in vectors}
    if level_params is None:
        level_params = {_measured_curve(v.name):
                        dict(zip(("threshold", "tau"), _level_params(v)))
                        for v in vectors}
    z = sample_latent(n, model.cfg.latent_dim, rng_seed).astype(model.dtype)
    rows: dict[str, dict[float, dict[str, float]]] = {}
    baselines: dict[str, dict[str, float]] = {}

    def one_ratio(kind, curves):
        if mode == "upward":
            return upward_ratio(curves, taus.get(kind, 0.0))
        params = level_params.get(kind, {})
        return high_ratio(curves, params.get("threshold", 0.0),
                          params.get("tau", 0.0))

    def both_ratios(rec_t, rec_d):
        return {
            "tensile": one_ratio("tensile", rec_t),
            "diameter": one_ratio("diameter", rec_d),
        }

    base = decode_hardened(model, z, spiral_cfg)
    base_ratios = both_ratios(base[3], base[4])
    for vector in vectors:
        rows[vector.name] = {}
        for scale in scales:
            if scale == 0.0:
                rows[vector.name][float(scale)] = dict(base_ratios)
                continue
            _, _, _, rec_t, rec_d = decode_hardened(
                model, apply_vector(z, vector, scale), spiral_cfg)
            rows[vector.name][float(scale)] = both_ratios(rec_t, rec_d)
        baselines[vector.name] = base_ratios

    cross_effect = {}
    for vector in vectors:
        own = _measured_curve(vector.name)
        other = "diameter" if own == "tensile" else "tensile"
        deviations = [abs(rows[vector.name][float(s)][other]
                          - baselines[vector.name][other])
                      for s in scales if s != 0.0]
        cross_effect[f"{vector.name}_on_{other}"] = float(np.mean(deviations))
    return InteractionReport(
        vector_names=(vector_a.name, vector_b.name), ratio_kind=mode,
        scales=[float(s) for s in scales], rows=rows,
        cross_effect=cross_effect, n=n, rng_seed=rng_seed,
        untrained_model=not trained_batches)


def pitch_class_histogram(rolls: np.ndarray,
                          bar_range: tuple[int, int] = (2, 4)) -> np.ndarray:
    """12-bin counts of sounding melody+bass pitch classes over given bars."""
    lo, hi = bar_range
    if not (0 <= lo < hi <= pianoroll.BARS_PER_FRAGMENT):
        raise InvalidInputError(f"bar range {bar_range} outside [0, 4)")
    rolls = np.asarray(rolls)
    steps = slice(lo * pianoroll.STEPS_PER_BAR, hi * pianoroll.STEPS_PER_BAR)
    pcs = np.concatenate((pianoroll.melody_pitch_classes(rolls)[..., steps],
                          pianoroll.bass_pitch_classes(rolls)[..., steps]), axis=None)
    return np.bincount(pcs[pcs >= 0], minlength=12).astype(np.int64)


# ---------------------------------------------------------------------------
# Report files


def _write_csv(path, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    write_atomic(path, text.getvalue())


def write_sweep_csv(path, report: SweepReport) -> None:
    columns = ("scale", "n", "ratio_recomputed", "ratio_predicted",
               "melody_pitch_accuracy", "bass_pitch_accuracy",
               "melody_rhythm_fscore", "bass_rhythm_fscore")
    _write_csv(path, [columns] + [
        [f"{row.scale:g}", row.n] + [f"{getattr(row, c):.6f}" for c in columns[2:]]
        for row in report.rows])


def sweep_summary(report: SweepReport) -> dict:
    return {
        "vector": report.vector_name,
        "ratio_kind": report.ratio_kind,
        "measured_curve": report.measured_curve,
        "scales": report.scales,
        "thresholds": report.thresholds,
        "n": report.n,
        "rng_seed": report.rng_seed,
        "untrained_model": report.untrained_model,
        "rows": [
            {
                "scale": row.scale,
                "ratio_recomputed": row.ratio_recomputed,
                "ratio_predicted": row.ratio_predicted,
                "melody_pitch_accuracy": row.melody_pitch_accuracy,
                "bass_pitch_accuracy": row.bass_pitch_accuracy,
                "melody_rhythm_fscore": row.melody_rhythm_fscore,
                "bass_rhythm_fscore": row.bass_rhythm_fscore,
            }
            for row in report.rows
        ],
    }


def write_json(path, payload: dict) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_interaction_csv(path, report: InteractionReport) -> None:
    _write_csv(path, [("vector", "scale", f"tensile_{report.ratio_kind}_ratio",
                       f"diameter_{report.ratio_kind}_ratio")] + [
        [name, f"{scale:g}", f"{report.rows[name][scale]['tensile']:.6f}",
         f"{report.rows[name][scale]['diameter']:.6f}"]
        for name in report.vector_names for scale in report.scales])


def interaction_summary(report: InteractionReport) -> dict:
    return {
        "vectors": list(report.vector_names),
        "scales": report.scales,
        "rows": {name: {f"{scale:g}": report.rows[name][scale]
                        for scale in report.scales}
                 for name in report.vector_names},
        "cross_effect": report.cross_effect,
        "n": report.n,
        "rng_seed": report.rng_seed,
        "untrained_model": report.untrained_model,
    }


def write_histogram_csv(path, original: np.ndarray, modified: np.ndarray) -> None:
    names = ("C", "Db", "D", "Eb", "E", "F", "F#", "G", "Ab", "A", "Bb", "B")
    _write_csv(path, [("pitch_class", "original", "modified", "difference")] + [
        (name, int(original[pc]), int(modified[pc]),
         int(modified[pc]) - int(original[pc]))
        for pc, name in enumerate(names)])


def write_ratio_chart_svg(path, report: SweepReport,
                          width: int = 480, height: int = 320) -> None:
    """Line chart of ratio vs scale, written as a minimal deterministic SVG."""
    margin = 40
    xs = report.scales
    ys = report.ratios()
    x_lo, x_hi = min(xs), max(xs)
    span = (x_hi - x_lo) or 1.0

    def sx(x):
        return margin + (x - x_lo) / span * (width - 2 * margin)

    def sy(y):
        return height - margin - y * (height - 2 * margin)

    points = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in zip(xs, ys))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<polyline points="{points}" fill="none" stroke="steelblue" '
        f'stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="3" '
                     f'fill="steelblue"/>')
        parts.append(f'<text x="{sx(x):.1f}" y="{height - margin + 16}" '
                     f'font-size="10" text-anchor="middle">{x:g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="16" font-size="12" '
                 f'text-anchor="middle">{report.vector_name} '
                 f'{report.ratio_kind} ratio vs scale</text>')
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")
