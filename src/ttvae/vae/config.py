"""Model and training hyperparameters."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from ..corpus import read_json
from ..errors import InvalidInputError
from ..pianoroll import N_STEPS

# The most memory a config may ask for, in bytes, counted before anything is
# allocated: every float32 parameter tensor of ``network.param_shapes`` plus
# one batch of hidden activations (batch x 64 steps x hidden).  The paper
# default counts about 11 MB.  Training holds a multiple of this count
# (gradients, Adam moments and each GRU layer's gate cache), so a config past
# the budget could only thrash or be killed, and is refused with exit 2.
MEMORY_BUDGET_BYTES = 2**30
# ``param_shapes`` lists every layer, so a deeper stack is refused before
# its layers are listed.
MAX_GRU_LAYERS = 64
MIN_DATASET_SIZE = 10

_INT_FIELDS = ("latent_dim", "hidden", "gru_layers", "batch_size",
               "early_stop_patience", "max_epochs", "rng_seed")
_FLOAT_FIELDS = ("beta_max", "beta_step", "learning_rate")


def _finite_float(value) -> float | None:
    """``value`` as a float if it is a finite real number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            return None
        if math.isfinite(value):
            return value
    return None


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and optimization settings.

    The KL weight ramps linearly by ``beta_step`` per batch and saturates at
    ``beta_max``.  ``early_stop_patience`` counts epochs without validation
    improvement; set it at or above ``max_epochs`` to disable early stopping.
    """

    latent_dim: int = 96
    hidden: int = 256
    gru_layers: int = 2
    beta_max: float = 0.006
    beta_step: float = 5e-7
    learning_rate: float = 0.001
    batch_size: int = 64
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    early_stop_patience: int = 10
    max_epochs: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in _FLOAT_FIELDS:
            value = _finite_float(getattr(self, name))
            if value is None:
                raise InvalidInputError(f"{name} must be a finite number, "
                                        f"got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        split = self.split
        if not isinstance(split, (list, tuple)) or len(split) != 3 \
                or any(_finite_float(s) is None for s in split):
            raise InvalidInputError(f"split must be three numbers, got {split!r}")
        object.__setattr__(self, "split", tuple(float(s) for s in split))
        if self.latent_dim < 1:
            raise InvalidInputError("latent_dim must be >= 1")
        if self.hidden < 1:
            raise InvalidInputError("hidden must be >= 1")
        if self.gru_layers < 1:
            raise InvalidInputError("gru_layers must be >= 1")
        if not self.beta_step > 0:
            raise InvalidInputError("beta_step must be positive")
        if self.batch_size < 1:
            raise InvalidInputError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise InvalidInputError("max_epochs must be >= 1")
        if self.early_stop_patience < 1:
            raise InvalidInputError("early_stop_patience must be >= 1")
        if not self.learning_rate > 0:
            raise InvalidInputError("learning_rate must be positive")
        if self.beta_max < 0:
            raise InvalidInputError("beta_max must be >= 0")
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be >= 0")
        if abs(sum(self.split) - 1.0) > 1e-9 or any(s < 0 for s in self.split):
            raise InvalidInputError("split must be three non-negative "
                                    "fractions summing to 1")
        if self.gru_layers > MAX_GRU_LAYERS:
            raise InvalidInputError(f"gru_layers must be <= {MAX_GRU_LAYERS}")
        needed = self.memory_bytes()
        if needed > MEMORY_BUDGET_BYTES:
            raise InvalidInputError(
                f"config asks for {needed:,} bytes of parameters "
                f"and activations, past the budget of {MEMORY_BUDGET_BYTES:,}")

    def memory_bytes(self) -> int:
        """Bytes of the float32 parameters plus one batch of hidden activations."""
        from .network import param_shapes  # network imports this module
        params = sum(math.prod(shape) for shape in param_shapes(self).values())
        return 4 * (params + self.batch_size * N_STEPS * self.hidden)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["split"] = list(self.split)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        if not isinstance(data, dict):
            raise InvalidInputError("a config must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InvalidInputError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path) -> "ModelConfig":
        return cls.from_dict(read_json(path, "config"))


def split_dataset(n: int, split: tuple[float, float, float],
                  rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seeded shuffle into train/val/test index arrays (each non-empty)."""
    if n < MIN_DATASET_SIZE:
        raise InvalidInputError(
            f"training needs at least {MIN_DATASET_SIZE} fragments, got {n}")
    order = rng.permutation(n)
    n_train = max(1, int(n * split[0]))
    n_val = max(1, int(n * split[1]))
    if n_train + n_val >= n:
        n_train = n - n_val - 1
    return {
        "train": np.sort(order[:n_train]),
        "val": np.sort(order[n_train:n_train + n_val]),
        "test": np.sort(order[n_train + n_val:]),
    }


def _seed_streams(cfg: ModelConfig):
    init_seed, split_seed, loop_seed = np.random.SeedSequence(cfg.rng_seed).spawn(3)
    return init_seed, split_seed, loop_seed


def training_split(cfg: ModelConfig, n: int) -> dict[str, np.ndarray]:
    """The exact split a training run with this config and size produced."""
    _, split_seed, _ = _seed_streams(cfg)
    return split_dataset(n, cfg.split, np.random.default_rng(split_seed))
