"""Finite-difference verification of the hand-derived backward passes.

Builds a deliberately tiny model in float64, computes analytic gradients of
the full objective (all six output terms plus the weighted KL), and compares
them against central differences at a sampling of weight coordinates drawn
from every parameter tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidInputError
from ..pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_START,
    BASS_REST_COL,
    MELODY_ONSET_COL,
    MELODY_REST_COL,
    N_FEATURES,
    N_STEPS,
)
from .config import ModelConfig
from .losses import forward_backward, loss
from .network import decoder_forward, encoder_forward, init_params, reparameterize


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    worst_tensor: str
    worst_index: tuple
    worst_analytic: float
    worst_numeric: float

    def summary(self) -> str:
        return (f"max relative error {self.max_rel_error:.3e} over "
                f"{self.n_checked} sampled weights (worst: "
                f"{self.worst_tensor}{list(self.worst_index)}, analytic "
                f"{self.worst_analytic:.6e}, numeric {self.worst_numeric:.6e})")


def synthetic_rolls(rng: np.random.Generator, n: int) -> np.ndarray:
    """Valid random rolls built column-wise (no corpus machinery needed)."""
    rolls = np.zeros((n, N_STEPS, N_FEATURES), dtype=np.float64)
    for i in range(n):
        melody_cols = rng.integers(0, MELODY_REST_COL + 1, size=N_STEPS)
        bass_cols = rng.integers(0, BASS_REST_COL - BASS_PITCH_START + 1,
                                 size=N_STEPS)
        rolls[i, np.arange(N_STEPS), melody_cols] = 1.0
        rolls[i, np.arange(N_STEPS), BASS_PITCH_START + bass_cols] = 1.0
        melody_on = (rng.random(N_STEPS) < 0.3) & (melody_cols != MELODY_REST_COL)
        bass_on = (rng.random(N_STEPS) < 0.3) & (
            bass_cols != BASS_REST_COL - BASS_PITCH_START)
        rolls[i, :, MELODY_ONSET_COL] = melody_on
        rolls[i, :, BASS_ONSET_COL] = bass_on
    return rolls


def _sample_coordinates(params: dict, n_weights: int,
                        rng: np.random.Generator) -> list[tuple[str, tuple]]:
    """Coordinates from every tensor, topped up to at least ``n_weights``."""
    names = sorted(params)
    per_tensor = math.ceil(n_weights / len(names))
    coords = []
    picked = {}
    for name in names:
        size = params[name].size
        chosen = rng.choice(size, size=min(per_tensor, size), replace=False)
        picked[name] = {int(c) for c in chosen}
    shortfall = n_weights - sum(len(c) for c in picked.values())
    large = [n for n in names if params[n].size > per_tensor]
    while shortfall > 0 and large:
        for name in large:
            free = params[name].size - len(picked[name])
            if free == 0 or shortfall == 0:
                continue
            extra = int(rng.integers(params[name].size))
            if extra not in picked[name]:
                picked[name].add(extra)
                shortfall -= 1
    for name in names:
        for flat in sorted(picked[name]):
            coords.append((name, np.unravel_index(flat, params[name].shape)))
    return coords


def gradient_check(hidden: int = 8, latent: int = 4, gru_layers: int = 2,
                   batch: int = 3, n_weights: int = 200, step: float = 1e-4,
                   beta: float = 0.004, seed: int = 0) -> GradCheckResult:
    """Compare analytic and central-difference gradients on a tiny model,
    at ``n_weights`` distinct weights, at most the model's weight count.

    The relative error denominator is floored at 1e-5: central differences
    at this step size carry ~1e-11 of rounding noise on the derivative, so
    coordinates whose true gradient sits below the floor are effectively
    compared in absolute terms instead of dividing noise by noise.  A
    non-finite analytic or numeric derivative is an infinite error, and the
    first one found is the worst.
    """
    cfg = ModelConfig(latent_dim=latent, hidden=hidden, gru_layers=gru_layers,
                      batch_size=batch, rng_seed=seed)
    rng = np.random.default_rng(seed)
    params = {k: v.astype(np.float64)
              for k, v in init_params(cfg, rng, dtype=np.float64).items()}
    n_params = sum(p.size for p in params.values())
    if n_weights > n_params:
        raise InvalidInputError(f"cannot sample {n_weights} weights: the "
                                f"model has {n_params}")
    rolls = synthetic_rolls(rng, batch)
    tensile = rng.uniform(0.0, 2.0, size=(batch, N_STEPS))
    diameter = rng.uniform(0.0, 2.0, size=(batch, N_STEPS))
    noise = rng.standard_normal((batch, latent))

    _, grads = forward_backward(params, cfg, rolls, tensile, diameter,
                                noise, beta)

    def total_at(p: dict) -> float:
        posterior, _ = encoder_forward(p, cfg, rolls)
        z = reparameterize(posterior, noise)
        out, _ = decoder_forward(p, cfg, z)
        return loss(out, rolls, tensile, diameter, beta, posterior).total

    worst = (0.0, "", (), 0.0, 0.0)
    coords = _sample_coordinates(params, n_weights, rng)
    for name, index in coords:
        original = params[name][index]
        params[name][index] = original + step
        up = total_at(params)
        params[name][index] = original - step
        down = total_at(params)
        params[name][index] = original
        numeric = (up - down) / (2.0 * step)
        analytic = float(grads[name][index])
        if math.isfinite(analytic) and math.isfinite(numeric):
            rel = abs(analytic - numeric) / max(abs(analytic) + abs(numeric), 1e-5)
        else:
            rel = math.inf  # a NaN would never compare above the worst
        if rel > worst[0]:
            worst = (rel, name, index, analytic, numeric)
    return GradCheckResult(max_rel_error=worst[0], n_checked=len(coords),
                           worst_tensor=worst[1], worst_index=worst[2],
                           worst_analytic=worst[3], worst_numeric=worst[4])
