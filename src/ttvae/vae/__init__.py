"""Recurrent VAE with six output heads and tension-prediction losses."""

import importlib

# Each exported name -> the submodule that defines it, looked up on every
# access as in the ``ttvae`` package, so ``import ttvae.vae`` loads none.
_EXPORTS = {name: module for module, names in {
    "checkpoint": ("Checkpoint", "load_checkpoint", "save_checkpoint"),
    "config": ("ModelConfig", "split_dataset"),
    "gradcheck": ("GradCheckResult", "gradient_check"),
    "losses": ("LOSS_FIELDS", "LossBreakdown", "beta_schedule",
               "evaluate_batch", "forward_backward", "kl_divergence", "loss"),
    "network": ("DecoderOutput", "Posterior", "TensionVae", "init_params",
                "reparameterize", "sample_latent"),
    "training": ("Adam", "LedgerRow", "TrainResult", "train", "write_ledger"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
