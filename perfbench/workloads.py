"""The benchmark's workloads: corpus shape, model config and body settings.

Why each workload exists, and which layers it stresses, is written in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

# The configuration the acceptance criteria train (criteria 7-9 and 12).
ACCEPTANCE = {"latent_dim": 16, "hidden": 128, "gru_layers": 2, "batch_size": 4,
              "learning_rate": 1e-3, "beta_max": 0.1, "beta_step": 2e-4}
# The README defaults, which follow the paper.
PAPER = {"latent_dim": 96, "hidden": 256, "gru_layers": 2, "batch_size": 64}

SPECS = {
    "train-small": {
        "name": "train-small", "kind": "train", "model": ACCEPTANCE,
        # 10 songs x 4 fragments = 40; the split keeps 32 for training,
        # so an epoch is 8 steps of batch 4.
        "song_bars": [16] * 10, "skip_files": False,
        "max_epochs": 4,
    },
    "train-paper": {
        "name": "train-paper", "kind": "train", "model": PAPER,
        # 60 songs x 4 fragments = 240; 192 train = 3 full batches of 64.
        "song_bars": [16] * 60, "skip_files": False,
        "max_epochs": 1,
    },
    "eval-sweep": {
        "name": "eval-sweep", "kind": "eval", "model": ACCEPTANCE,
        "song_bars": [16] * 20, "skip_files": False,
        # 520 samples decode in chunks of 256, 256 and a partial 8.
        "n": 520, "direction_scales": (0.0, 4.0), "level_scales": (0.0, 3.0),
    },
    "ingest": {
        "name": "ingest", "kind": "ingest",
        # Half the songs get a 3/4 region; the lengths are fixed so that every
        # seed yields the same number of fragments and of 3/4 bars.
        "song_bars": [12, 16, 20, 24, 28, 32, 36, 40] * 8,
        "waltz_bars": [2, 3, 4, 5] * 8 + [0] * 32, "skip_files": True,
    },
}


def model_config(spec: dict, seed: int) -> dict:
    """ModelConfig fields for a workload; early stopping is always off."""
    epochs = spec.get("max_epochs", 1)
    return dict(spec["model"], rng_seed=seed, max_epochs=epochs,
                early_stop_patience=epochs)
