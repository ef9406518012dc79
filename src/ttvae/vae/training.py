"""Training loop: Adam, seeded splits, KL annealing, early stopping, ledger.

Each epoch shuffles the training split, takes one reparameterization draw
per example, and anneals the KL weight on the global batch counter.  The
ledger's "train" rows average the optimized batch losses across the epoch
(each row's total is recomputed from its averaged components, keeping the
component-sum invariant exact); "val" and "test" rows come from
deterministic evaluation passes decoding from the posterior mean.  The
validation total drives early stopping and best-checkpoint retention, and
the held-out test split is scored once at the end.  With a fixed seed the
whole procedure, including the written ledger and checkpoint, is bitwise
reproducible.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import cores
from ..atomic import output_dir, write_atomic
from ..corpus import FragmentDataset
from ..errors import NumericFailureError
from .checkpoint import save_checkpoint
# the split functions live beside ModelConfig, so that inference stages need
# not import training; they stay importable from here
from .config import (MIN_DATASET_SIZE, ModelConfig, _seed_streams,  # noqa: F401
                     split_dataset, training_split)
from .losses import LOSS_FIELDS, LossBreakdown, beta_schedule, evaluate_batch, forward_backward
from .network import init_params

LEDGER_COLUMNS = ("epoch", "split") + LOSS_FIELDS


class Adam:
    """Standard Adam with bias correction; tensors update in sorted-name order."""

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.beta1 ** self.step_count
        correction2 = 1.0 - self.beta2 ** self.step_count
        for name in sorted(params):
            g = grads[name].astype(params[name].dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m += (1.0 - self.beta1) * (g - m)
            v += (1.0 - self.beta2) * (g * g - v)
            params[name] -= (self.learning_rate
                             * (m / correction1)
                             / (np.sqrt(v / correction2) + self.eps))


@dataclass
class LedgerRow:
    epoch: int
    split: str
    losses: LossBreakdown

    def as_record(self) -> dict:
        record = {"epoch": self.epoch, "split": self.split}
        record.update(self.losses.as_dict())
        return record


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    config: ModelConfig
    ledger: list[LedgerRow]
    best_epoch: int
    epochs_run: int
    global_batches: int
    split_indices: dict[str, np.ndarray]
    checkpoint_path: Path | None = None
    ledger_path: Path | None = None
    checkpoint_id: str = ""

    def schedule_state(self) -> dict:
        return {"global_batches": self.global_batches,
                "best_epoch": self.best_epoch,
                "epochs_run": self.epochs_run}


EVAL_CHUNK = 256


def evaluate_split(params: dict, cfg: ModelConfig, rolls: np.ndarray,
                   tensile: np.ndarray, diameter: np.ndarray,
                   beta: float) -> LossBreakdown:
    """Chunked deterministic evaluation; exact size-weighted term means."""
    sums = {name: 0.0 for name in LOSS_FIELDS if name not in ("beta", "total")}
    total = len(rolls)
    for start in range(0, total, EVAL_CHUNK):
        chunk = slice(start, min(start + EVAL_CHUNK, total))
        breakdown, _ = evaluate_batch(params, cfg, rolls[chunk],
                                      tensile[chunk], diameter[chunk], beta)
        weight = (chunk.stop - chunk.start) / total
        for name in sums:
            sums[name] += weight * getattr(breakdown, name)
    return LossBreakdown(beta=beta, **sums)


def write_ledger(path, ledger: list[LedgerRow]) -> None:
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=LEDGER_COLUMNS)
    writer.writeheader()
    for row in ledger:
        record = row.as_record()
        for key in LOSS_FIELDS:
            record[key] = f"{record[key]:.8f}"
        writer.writerow(record)
    write_atomic(path, text.getvalue())


def train(dataset: FragmentDataset, cfg: ModelConfig,
          out_dir=None, progress=None) -> TrainResult:
    """Fit the model; optionally write ``checkpoint.ttv`` and ``ledger.csv``.

    The first call sets the process's allocator so that the step buffers
    stay mapped between steps (``cores.keep_buffers_mapped``); the setting
    is process-wide and stays after the call returns.

    Aborts with :class:`NumericFailureError` if the loss goes non-finite,
    saving the best parameters seen so far when ``out_dir`` is given.
    """
    cores.keep_buffers_mapped()
    rolls, tensile, diameter = dataset.rolls, dataset.tensile, dataset.diameter
    init_seed, split_seed, loop_seed = _seed_streams(cfg)
    params = init_params(cfg, np.random.default_rng(init_seed))
    splits = split_dataset(len(dataset), cfg.split,
                           np.random.default_rng(split_seed))
    rng = np.random.default_rng(loop_seed)
    optimizer = Adam(params, cfg.learning_rate)

    out_dir = output_dir(out_dir) if out_dir is not None else None

    def evaluate(split: str, beta: float) -> LossBreakdown:
        idx = splits[split]
        return evaluate_split(params, cfg, rolls[idx], tensile[idx],
                              diameter[idx], beta)

    ledger: list[LedgerRow] = []
    best_params = {k: v.copy() for k, v in params.items()}
    best_val = np.inf
    best_epoch = 0
    stale_epochs = 0
    global_batches = 0
    train_idx = splits["train"]

    epoch = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_idx))
        batch_rows: list[LossBreakdown] = []
        for start in range(0, len(order), cfg.batch_size):
            batch_idx = train_idx[order[start:start + cfg.batch_size]]
            noise = rng.standard_normal((len(batch_idx), cfg.latent_dim)
                                        ).astype(np.float32)
            beta = beta_schedule(global_batches, cfg.beta_step, cfg.beta_max)
            breakdown, grads = forward_backward(
                params, cfg, rolls[batch_idx], tensile[batch_idx],
                diameter[batch_idx], noise, beta)
            if not np.isfinite(breakdown.total):
                path = None
                if out_dir is not None:
                    path = out_dir / "last_good.ttv"
                    save_checkpoint(path, best_params, cfg,
                                    {"aborted_at_epoch": epoch,
                                     "global_batches": global_batches})
                raise NumericFailureError(
                    f"non-finite loss at epoch {epoch}, batch {global_batches}"
                    + (f"; best parameters saved to {path}" if path else ""),
                    context="train", checkpoint_path=path)
            optimizer.step(params, grads)
            global_batches += 1
            batch_rows.append(breakdown)

        train_mean = LossBreakdown(**{
            name: float(np.mean([getattr(b, name) for b in batch_rows]))
            for name in LOSS_FIELDS if name != "total"})
        val_eval = evaluate(
            "val", beta_schedule(global_batches, cfg.beta_step, cfg.beta_max))
        ledger.append(LedgerRow(epoch, "train", train_mean))
        ledger.append(LedgerRow(epoch, "val", val_eval))
        if progress is not None:
            progress(epoch, train_mean, val_eval)

        if val_eval.total < best_val:
            best_val = val_eval.total
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in params.items()}
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= cfg.early_stop_patience:
                break

    params = best_params
    final_beta = beta_schedule(global_batches, cfg.beta_step, cfg.beta_max)
    test_eval = evaluate("test", final_beta)
    ledger.append(LedgerRow(best_epoch, "test", test_eval))

    result = TrainResult(params=params, config=cfg, ledger=ledger,
                         best_epoch=best_epoch, epochs_run=epoch,
                         global_batches=global_batches, split_indices=splits)
    if out_dir is not None:
        result.checkpoint_path = out_dir / "checkpoint.ttv"
        result.checkpoint_id = save_checkpoint(
            result.checkpoint_path, params, cfg, result.schedule_state())
        result.ledger_path = out_dir / "ledger.csv"
        write_ledger(result.ledger_path, ledger)
    return result
