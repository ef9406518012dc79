"""Behavioral evaluation of latent tension edits at configurable scale.

Sweeps sample latent codes, decode them with and without a scaled attribute
vector, harden the soft outputs into piano rolls, and measure how often the
recomputed tension curves classify as upward/high alongside how much pitch
and rhythm changed.  Ratios always use tension recomputed from the decoded
rolls by the spiral geometry -- never the model's own tension heads, which
are reported separately as "predicted" -- so prediction error cannot
contaminate the behavioral claim.  Curves are recomputed at the published
calibration against C major.  Each vector's edits are rated on the curve it
measures, at the thresholds its classes were labeled at, both as
:mod:`ttvae.latent` resolves them; ``_rating`` makes the flag function.

Every experiment runs on one streamed loop, ``_decode_stream``: it draws the
n seeded latents ``DECODE_CHUNK`` at a time from one generator, the same
values as one draw of all n, decodes each chunk's unedited baseline once,
and then each (vector, scale) edit of the chunk, reusing the baseline at
scale 0.  The sweeps keep only per-example scalars of each chunk -- ratio
flags and pair metrics -- and take every mean once, over the concatenated
per-example arrays, so the reports do not depend on the chunking.  The
decode's memory is one chunk's whatever n is; the per-example scalars grow
by about 34 bytes per sample for each vector and scale; a sweep or grid
whose scalars would pass ``vae.config.MEMORY_BUDGET_BYTES`` is refused
before its first decode.

``decode_hardened`` runs each chunk through ``cores.by_rows``: decoded,
hardened and scored as two row halves at once, one on the calling thread
and one on the process's helper thread, where ``cores.splits`` rules that
the halves pay.  The two halves together are one chunk, so memory is still
one chunk's, and every output is bitwise that of decoding the chunk whole.
While they run, BLAS is held at one thread (:mod:`ttvae.cores`), so the
decode runs two threads on two cores whatever ``OPENBLAS_NUM_THREADS``
says: with OpenBLAS's default of one thread per core, each half's matmuls
would start more, which oversubscribes a small host.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from . import cores, pianoroll
from .atomic import write_atomic
from .corpus import PITCH_CLASS_NAMES
from .errors import InvalidInputError
from .latent import (RAMP_TEMPLATE, AttributeVector, apply_vector, level_scores,
                     measured_curve, shape_scores)
from .pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_COLS,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_ONSET_COL,
    MELODY_PITCH_COLS,
    MELODY_REST_COL,
)
from .tension import tension_curves
from .vae.config import MEMORY_BUDGET_BYTES
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


def upward_ratio(curves: np.ndarray, tau: float, per_example: bool = False):
    """Fraction of curves whose direction score strictly exceeds ``tau``.

    With ``per_example`` the per-curve flags come back instead, so that a
    streamed sweep can take one mean over all its chunks.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[0] < 1:
        raise InvalidInputError("upward_ratio needs at least one curve")
    flags = shape_scores(curves, RAMP_TEMPLATE) > tau
    return flags if per_example else float(np.mean(flags))


def high_ratio(curves: np.ndarray, threshold: float, tau: float,
               per_example: bool = False):
    """Fraction with mean above ``threshold`` and 2-norm distance over ``tau``,
    each scored by :func:`ttvae.latent.level_scores`, as labeling scores them.

    With ``per_example`` the per-curve flags come back instead.
    """
    curves = np.atleast_2d(np.asarray(curves, dtype=float))
    if curves.shape[0] < 1:
        raise InvalidInputError("high_ratio needs at least one curve")
    signs, magnitudes = level_scores(curves, threshold)
    flags = (signs > 0) & (magnitudes > tau)
    return flags if per_example else float(np.mean(flags))


def _decode_block(model: TensionVae, z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Decode, harden and score one block of latents."""
    out = model.decode(z)
    rolls = roll_from_output(out)
    strain, diameter = tension_curves(rolls)
    return rolls, out.tensile, out.diameter, strain, diameter


def decode_hardened(model: TensionVae, z: np.ndarray,
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray, np.ndarray]:
    """Decode a stack of latents to rolls plus predicted and recomputed curves.

    The latents go ``DECODE_CHUNK`` at a time, each chunk through
    ``cores.by_rows``: as two row halves decoded at once on the calling
    thread and the one helper thread, or whole where it is too small to pay,
    so at most one chunk's rows are in flight and memory is that of one
    chunk's decode.  A latent's outputs are the same bits whatever other
    latents share the call, down to a call of one row, while the hidden and
    latent sizes are at most ``cores.ROW_EXACT_WIDTH`` and OpenBLAS runs its
    SkylakeX kernel (see ``TensionVae``).
    Meanwhile BLAS is held at one thread (``cores.one_blas_thread``).  That
    setting is process-global: BLAS calls that other threads make during the
    decode run on one thread too.  The previous count comes back when the
    decode ends, also on error.
    """
    parts = []
    with cores.one_blas_thread():
        for start in range(0, len(z), DECODE_CHUNK):
            chunk = z[start:start + DECODE_CHUNK]
            parts += cores.by_rows(lambda rows: _decode_block(model, chunk[rows]),
                                   len(chunk), model.cfg.hidden, model.cfg.latent_dim)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _decode_stream(model: TensionVae, vectors, scales, n: int, rng_seed: int,
                   visit) -> None:
    """Decode n seeded latents and their edits, one chunk at a time.

    Per chunk, calls ``visit(None, None, base, base)`` with the chunk's
    ``decode_hardened`` output, then ``visit(v, s, base, edited)`` for every
    vector v and scale s (indices, vector-major) with the chunk edited by
    scale * vector decoded -- ``base`` itself at scale 0.  Each output is
    dropped before the next decode.  ``decode_hardened`` is looked up in
    this module on every call, so a replacement of it sees every chunk.
    """
    if n < 1:
        raise InvalidInputError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(rng_seed)
    for start in range(0, n, DECODE_CHUNK):
        chunk = sample_latent(min(DECODE_CHUNK, n - start), model.cfg.latent_dim,
                              rng).astype(model.dtype)
        base = decode_hardened(model, chunk)
        visit(None, None, base, base)
        for v, vector in enumerate(vectors):
            for s, scale in enumerate(scales):
                edited = base if scale == 0.0 else decode_hardened(
                    model, apply_vector(chunk, vector, scale))
                visit(v, s, base, edited)
                del edited
        del base


def _check_kept(n: int, per_sample: int) -> None:
    """Refuse n samples whose kept values, ``per_sample`` bytes each, would
    pass ``MEMORY_BUDGET_BYTES``."""
    if n * per_sample > MEMORY_BUDGET_BYTES:
        raise InvalidInputError(f"n = {n:,} would keep {n * per_sample:,} bytes, "
                                f"past the budget of {MEMORY_BUDGET_BYTES:,}")


def _mean(chunks) -> float:
    """Mean of per-example values gathered chunk by chunk."""
    return float(np.mean(np.concatenate(chunks)))


def _pair_metrics(original_rolls: np.ndarray, modified_rolls: np.ndarray):
    """Per-example pitch accuracy and rhythm F-score, melody then bass."""
    return (pitch_accuracy(original_rolls, modified_rolls)
            + rhythm_fscore(original_rolls, modified_rolls))


def _rating(ratio_kind: str, vector: AttributeVector | None,
            tau: float | None = None):
    """(per-example flag function, thresholds) of an ``"upward"`` or
    ``"high"`` ratio at ``vector``'s effective thresholds, all 0 for no
    vector; ``tau`` replaces the vector's direction threshold."""
    if ratio_kind == "upward":
        if tau is None:
            tau = vector.direction_tau() if vector is not None else 0.0
        return (lambda curves: upward_ratio(curves, tau, per_example=True),
                {"tau_direction": tau})
    threshold, tau = (vector.level_params() if vector is not None
                      else (0.0, 0.0))
    return (lambda curves: high_ratio(curves, threshold, tau, per_example=True),
            {"threshold": threshold, "tau_level": tau})


def sweeps(model: TensionVae, vectors, ratio_kind: str, scales,
           n: int = 10_000, rng_seed: int = 0,
           trained_batches: int | None = None,
           tau: float | None = None) -> list[SweepReport]:
    """Direction (``"upward"``) or level (``"high"``) sweeps of several vectors.

    Each vector is rated by :func:`_rating` at its own effective thresholds
    (``tau`` replaces the direction threshold), and the reports equal those
    of :func:`direction_sweep` or :func:`level_sweep` run on each vector
    alone, but every chunk's baseline is decoded once for all.
    """
    if ratio_kind not in ("upward", "high"):
        raise InvalidInputError(f"unknown ratio kind {ratio_kind!r}")
    if n < 1:
        raise InvalidInputError("sweep needs n >= 1 samples")
    # two bool flags and four float64 pair metrics per vector and scale
    _check_kept(n, len(vectors) * len(scales) * (2 + 4 * 8))
    ratings = [_rating(ratio_kind, vector, tau) for vector in vectors]
    measured = [measured_curve(vector.name) for vector in vectors]
    # [vector][scale] -> six columns of per-chunk arrays: recomputed and
    # predicted ratio flags, then the four pair metrics
    columns = [[[[] for _ in range(6)] for _ in scales] for _ in vectors]

    def visit(v, s, base, edited):
        if v is None:
            return
        rolls, pred_t, pred_d, rec_t, rec_d = edited
        flags = ratings[v][0]
        tensile = measured[v] == "tensile"
        values = ((flags(rec_t if tensile else rec_d),
                   flags(pred_t if tensile else pred_d))
                  + _pair_metrics(base[0], rolls))
        for column, value in zip(columns[v][s], values):
            column.append(value)

    _decode_stream(model, vectors, scales, n, rng_seed, visit)
    return [SweepReport(
        vector_name=vector.name, ratio_kind=ratio_kind, measured_curve=curve,
        scales=[float(s) for s in scales],
        rows=[SweepRow(float(scale), n, *map(_mean, per_scale))
              for scale, per_scale in zip(scales, vector_columns)],
        thresholds=thresholds, n=n, rng_seed=rng_seed,
        untrained_model=not trained_batches)
        for vector, (_, thresholds), curve, vector_columns
        in zip(vectors, ratings, measured, columns)]


def direction_sweep(model: TensionVae, vector: AttributeVector,
                    scales=DEFAULT_DIRECTION_SCALES, n: int = 10_000,
                    rng_seed: int = 0, tau: float | None = None,
                    trained_batches: int | None = None) -> SweepReport:
    """Upward-ratio and change metrics across scaled direction edits.

    ``tau`` defaults to the vector's effective up-class labeling threshold.
    """
    return sweeps(model, [vector], "upward", scales, n, rng_seed,
                  trained_batches, tau)[0]


def level_sweep(model: TensionVae, vector: AttributeVector,
                scales=DEFAULT_LEVEL_SCALES, n: int = 10_000,
                rng_seed: int = 0,
                trained_batches: int | None = None) -> SweepReport:
    """High-ratio analogue of :func:`direction_sweep` for level vectors,
    rated at the vector's effective level labeling."""
    return sweeps(model, [vector], "high", scales, n, rng_seed,
                  trained_batches)[0]


def interaction_grid(model: TensionVae, vector_a: AttributeVector,
                     vector_b: AttributeVector,
                     scales=DEFAULT_DIRECTION_SCALES, n: int = 10_000,
                     rng_seed: int = 0, mode: str = "upward",
                     trained_batches: int | None = None) -> InteractionReport:
    """Apply each vector alone and measure both tension kinds' ratios.

    ``mode`` is the ratio kind, ``"upward"`` or ``"high"``.  Each kind is
    rated at the effective thresholds of the vector that measures it (the
    second, if both do), and at 0 if neither does.  The cross-effect
    statistic per vector is the mean absolute deviation of the *other*
    kind's ratio from its unedited baseline.
    """
    if mode not in ("upward", "high"):
        raise InvalidInputError(f"unknown interaction mode {mode!r}")
    if not any(scales):
        raise InvalidInputError("interaction needs a scale other than 0")
    vectors = (vector_a, vector_b)
    kinds = ("tensile", "diameter")
    measuring = {measured_curve(v.name): v for v in vectors}
    flags = {kind: _rating(mode, measuring.get(kind))[0] for kind in kinds}

    # per-chunk flags of both kinds: the baseline under (None, None), each
    # edit under its (vector, scale) indices; scale 0 reads the baseline's
    columns = {key: {kind: [] for kind in kinds} for key in [(None, None)] + [
        (v, s) for v in range(2) for s, scale in enumerate(scales) if scale != 0.0]}
    _check_kept(n, len(columns) * len(kinds))  # one bool flag each

    def visit(v, s, base, edited):
        if (v, s) in columns:
            for kind, curves in zip(kinds, edited[3:]):
                columns[v, s][kind].append(flags[kind](curves))

    _decode_stream(model, vectors, scales, n, rng_seed, visit)
    base_ratios = {kind: _mean(columns[None, None][kind]) for kind in kinds}
    rows: dict[str, dict[float, dict[str, float]]] = {}
    for v, vector in enumerate(vectors):
        rows[vector.name] = {
            float(scale): dict(base_ratios) if scale == 0.0 else
            {kind: _mean(columns[v, s][kind]) for kind in kinds}
            for s, scale in enumerate(scales)}

    cross_effect = {}
    for vector in vectors:
        own = measured_curve(vector.name)
        other = "diameter" if own == "tensile" else "tensile"
        deviations = [abs(rows[vector.name][float(s)][other]
                          - base_ratios[other])
                      for s in scales if s != 0.0]
        cross_effect[f"{vector.name}_on_{other}"] = float(np.mean(deviations))
    return InteractionReport(
        vector_names=(vector_a.name, vector_b.name), ratio_kind=mode,
        scales=[float(s) for s in scales], rows=rows,
        cross_effect=cross_effect, n=n, rng_seed=rng_seed,
        untrained_model=not trained_batches)


def pitch_distribution(model: TensionVae, vector: AttributeVector,
                       scale: float, n: int, rng_seed: int = 0,
                       bar_range: tuple[int, int] = (2, 4),
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Pitch-class histograms of n decoded samples, unedited and edited.

    Counts sounding melody and bass pitch classes over ``bar_range`` of each
    sample and of its edit by ``scale * vector``, summed chunk by chunk.
    """
    original = np.zeros(12, dtype=np.int64)
    modified = np.zeros(12, dtype=np.int64)

    def visit(v, s, base, edited):
        counts = original if v is None else modified
        counts += pitch_class_histogram(edited[0], bar_range)

    _decode_stream(model, [vector], [scale], n, rng_seed, visit)
    return original, modified


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
    _write_csv(path, [[f.name for f in fields(SweepRow)]] + [
        [f"{row.scale:g}", row.n] + [f"{v:.6f}" for v in astuple(row)[2:]]
        for row in report.rows])


def sweep_summary(report: SweepReport) -> dict:
    """The report's fields, ``vector_name`` as ``vector``, each row without
    its ``n`` (the report's)."""
    summary = asdict(report)
    summary["vector"] = summary.pop("vector_name")
    for row in summary["rows"]:
        del row["n"]
    return summary


def write_interaction_csv(path, report: InteractionReport) -> None:
    _write_csv(path, [("vector", "scale", f"tensile_{report.ratio_kind}_ratio",
                       f"diameter_{report.ratio_kind}_ratio")] + [
        [name, f"{scale:g}", f"{report.rows[name][scale]['tensile']:.6f}",
         f"{report.rows[name][scale]['diameter']:.6f}"]
        for name in report.vector_names for scale in report.scales])


def interaction_summary(report: InteractionReport) -> dict:
    """The report's fields but ``ratio_kind``, ``vector_names`` as
    ``vectors``, each row's scales as ``%g`` keys."""
    summary = asdict(report)
    del summary["ratio_kind"]
    summary["vectors"] = list(summary.pop("vector_names"))
    summary["rows"] = {name: {f"{scale:g}": row[scale] for scale in report.scales}
                       for name, row in summary["rows"].items()}
    return summary


def write_histogram_csv(path, original: np.ndarray, modified: np.ndarray) -> None:
    _write_csv(path, [("pitch_class", "original", "modified", "difference")] + [
        (name, int(original[pc]), int(modified[pc]),
         int(modified[pc]) - int(original[pc]))
        for pc, name in enumerate(PITCH_CLASS_NAMES)])


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
