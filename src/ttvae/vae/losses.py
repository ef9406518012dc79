"""Loss terms, KL annealing schedule, and the combined training pass.

The objective sums four reconstruction terms (per-step categorical
cross-entropy for melody/bass pitch, per-step binary cross-entropy for the
onset tracks), two mean-squared tension-prediction terms, and the
KL divergence to the standard-normal prior weighted by the annealed beta.
All reconstruction/tension terms are means over batch and steps; the KL is
summed over latent dimensions and averaged over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import cores
from ..errors import InvalidInputError
from ..pianoroll import (
    BASS_ONSET_COL,
    BASS_PITCH_COLS,
    MELODY_ONSET_COL,
    MELODY_PITCH_COLS,
    N_STEPS,
)
from .config import ModelConfig
from .network import (
    PROB_FLOOR,
    DecoderOutput,
    Posterior,
    decoder_backward,
    decoder_forward,
    encoder_backward,
    encoder_forward,
    reparameterize,
)

LOSS_FIELDS = ("melody_pitch", "melody_rhythm", "bass_pitch", "bass_rhythm",
               "tensile", "diameter", "kl", "beta", "total")


@dataclass(frozen=True)
class LossBreakdown:
    melody_pitch: float
    melody_rhythm: float
    bass_pitch: float
    bass_rhythm: float
    tensile: float
    diameter: float
    kl: float
    beta: float

    @property
    def total(self) -> float:
        return (self.melody_pitch + self.melody_rhythm + self.bass_pitch
                + self.bass_rhythm + self.tensile + self.diameter
                + self.beta * self.kl)

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in LOSS_FIELDS}


def beta_schedule(batch_index: int, beta_step: float = 5e-7,
                  beta_max: float = 0.006) -> float:
    """Linear KL-weight ramp: ``min(beta_step * batch_index, beta_max)``."""
    if batch_index < 0:
        raise InvalidInputError(f"batch_index must be >= 0, got {batch_index}")
    return min(beta_step * batch_index, beta_max)


def kl_divergence(posterior: Posterior) -> float:
    """KL(q || N(0, I)) summed over dimensions, averaged over any batch."""
    mu = np.asarray(posterior.mu, dtype=float)
    logvar = np.asarray(posterior.logvar, dtype=float)
    per_dim = 0.5 * (np.exp(logvar) + mu * mu - 1.0 - logvar)
    if mu.ndim == 1:
        return float(per_dim.sum())
    return float(per_dim.sum(axis=-1).mean())


def _batched(arr: np.ndarray, trailing: int) -> np.ndarray:
    arr = np.asarray(arr)
    return arr[None, ...] if arr.ndim == trailing else arr


def _categorical_ce(probs: np.ndarray, onehot: np.ndarray) -> float:
    p_target = (probs * onehot).sum(axis=-1)
    return float(-np.log(np.maximum(p_target, PROB_FLOOR)).mean())


def _binary_ce(probs: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(probs, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return float(-(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)).mean())


def loss(out: DecoderOutput, target_roll: np.ndarray,
         tensile_target: np.ndarray, diameter_target: np.ndarray,
         beta: float, posterior: Posterior | None = None) -> LossBreakdown:
    """Score decoder outputs against a target roll and tension curves.

    Accepts single examples or batches.  Probabilities of exactly zero at a
    target index are floored at 1e-10 before the log.  The KL term is zero
    unless the matching posterior is supplied.
    """
    roll = _batched(target_roll, 2).astype(float)
    melody_probs = _batched(out.melody_pitch, 2)
    bass_probs = _batched(out.bass_pitch, 2)
    if roll.shape[0] != melody_probs.shape[0]:
        raise InvalidInputError("output and target batch sizes differ")
    breakdown = LossBreakdown(
        melody_pitch=_categorical_ce(melody_probs, roll[:, :, MELODY_PITCH_COLS]),
        melody_rhythm=_binary_ce(_batched(out.melody_onset, 1),
                                 roll[:, :, MELODY_ONSET_COL]),
        bass_pitch=_categorical_ce(bass_probs, roll[:, :, BASS_PITCH_COLS]),
        bass_rhythm=_binary_ce(_batched(out.bass_onset, 1),
                               roll[:, :, BASS_ONSET_COL]),
        tensile=float(((_batched(out.tensile, 1)
                        - _batched(tensile_target, 1)) ** 2).mean()),
        diameter=float(((_batched(out.diameter, 1)
                         - _batched(diameter_target, 1)) ** 2).mean()),
        kl=kl_divergence(posterior) if posterior is not None else 0.0,
        beta=float(beta),
    )
    return breakdown


def _head_logit_gradients(out: DecoderOutput, roll: np.ndarray,
                          tensile_target: np.ndarray,
                          diameter_target: np.ndarray) -> dict[str, np.ndarray]:
    """d(total)/d(logits) per head for the mean-reduced losses above."""
    batch = roll.shape[0]
    scale = 1.0 / (batch * N_STEPS)
    return {
        "melody_pitch": (out.melody_pitch - roll[:, :, MELODY_PITCH_COLS]) * scale,
        "melody_onset": (out.melody_onset - roll[:, :, MELODY_ONSET_COL]) * scale,
        "bass_pitch": (out.bass_pitch - roll[:, :, BASS_PITCH_COLS]) * scale,
        "bass_onset": (out.bass_onset - roll[:, :, BASS_ONSET_COL]) * scale,
        "tensile": 2.0 * (out.tensile - tensile_target) * scale,
        "diameter": 2.0 * (out.diameter - diameter_target) * scale,
    }


def _run_once(work: list):
    """``fn(*args)`` of a ``[fn, args]`` list, emptied first, so that the
    operands are let go as soon as the call returns."""
    fn, args = work
    work.clear()
    return fn(*args)


def forward_backward(params: dict, cfg: ModelConfig, rolls: np.ndarray,
                     tensile_target: np.ndarray, diameter_target: np.ndarray,
                     noise: np.ndarray, beta: float,
                     ) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """One training pass: losses plus gradients for every parameter tensor.

    Where ``cores.splits`` says so for the batch and the model, the step
    runs on two threads (:mod:`ttvae.cores`).  The encoder and the decoder
    forward each run their second row half on the helper thread, into the
    same whole-batch caches.  The backward pass runs its input-gradient
    chain on the calling thread and hands its weight gradients to the
    helper; once the chain is done, the calling thread runs the weight tasks
    that the helper has not started, last first.  It returns or raises only
    once every started task has finished; the first error of a task is
    raised if the chain raised none, and after an error no further task
    starts.  Below the rule, the whole step runs on the calling thread.
    BLAS is held at one thread throughout.  The gradients are bitwise those
    of ``decoder_backward`` and ``encoder_backward`` run on one thread after
    a whole-batch forward.
    """
    dtype = params["enc.mu.w"].dtype
    x = np.asarray(rolls, dtype=dtype)
    tensile_target = np.asarray(tensile_target, dtype=dtype)
    diameter_target = np.asarray(diameter_target, dtype=dtype)
    noise = np.asarray(noise, dtype=dtype)

    grads: dict[str, np.ndarray] = {}
    tasks = []      # (names, [fn, args], future), in the order handed over
    done_here = {}  # task index -> result, for tasks this thread ran
    pool = cores.helper() if cores.splits(len(x), cfg.hidden, cfg.latent_dim) else None

    def handover(names, fn, *args):
        work = [fn, args]
        tasks.append((names, work, pool.submit(_run_once, work)))

    put = handover if pool else None  # None: each gradient computed in place

    with cores.one_blas_thread():
        posterior, enc_cache = encoder_forward(params, cfg, x)
        z = reparameterize(posterior, noise)
        out, dec_cache = decoder_forward(params, cfg, z)
        breakdown = loss(out, x, tensile_target, diameter_target, beta, posterior)
        try:
            d_logits = _head_logit_gradients(out, x, tensile_target, diameter_target)
            dz = decoder_backward(params, cfg, dec_cache, d_logits, grads, put)
            del dec_cache, d_logits

            batch = x.shape[0]
            sigma = np.exp(0.5 * posterior.logvar)
            d_mu = dz + (beta / batch) * posterior.mu
            d_logvar = (dz * noise * 0.5 * sigma
                        + (beta / batch) * 0.5 * (np.exp(posterior.logvar) - 1.0))
            encoder_backward(params, cfg, enc_cache, d_mu, d_logvar, grads, put)
            # the helper takes the tasks from the front; this thread now
            # runs, from the back, those it has not started
            for i in range(len(tasks) - 1, -1, -1):
                _, work, task = tasks[i]
                if not task.cancel():
                    break
                done_here[i] = _run_once(work)
        finally:
            for *_, task in tasks:
                if not task.cancel():
                    task.exception()  # wait for every started task whatever happened here
    for i, (names, _, task) in enumerate(tasks):
        grads.update(zip(names, done_here[i] if i in done_here else task.result()))
    return breakdown, grads


def evaluate_batch(params: dict, cfg: ModelConfig, rolls: np.ndarray,
                   tensile_target: np.ndarray, diameter_target: np.ndarray,
                   beta: float) -> tuple[LossBreakdown, DecoderOutput]:
    """Deterministic evaluation pass decoding from the posterior mean; as two
    row halves, each encoded and decoded cache-free on its own thread
    (``cores.by_rows``), where ``cores.splits`` says so, with the same
    result."""
    dtype = params["enc.mu.w"].dtype
    x = np.asarray(rolls, dtype=dtype)

    def block(rows):
        posterior, _ = encoder_forward(params, cfg, x[rows], keep_cache=False)
        out, _ = decoder_forward(params, cfg, posterior.mu, keep_cache=False)
        return posterior.mu, posterior.logvar, *vars(out).values()

    parts = cores.by_rows(block, len(x), cfg.hidden, cfg.latent_dim)
    mu, logvar, *heads = (np.concatenate(column) for column in zip(*parts))
    posterior, out = Posterior(mu, logvar), DecoderOutput(*heads)
    breakdown = loss(out, x, np.asarray(tensile_target, dtype=dtype),
                     np.asarray(diameter_target, dtype=dtype), beta, posterior)
    return breakdown, out
