"""Model and training hyperparameters."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path

from ..errors import InvalidInputError

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
        if self.rng_seed < 0:
            raise InvalidInputError("rng_seed must be >= 0")
        if abs(sum(self.split) - 1.0) > 1e-9 or any(s < 0 for s in self.split):
            raise InvalidInputError("split must be three non-negative "
                                    "fractions summing to 1")

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
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise InvalidInputError(f"cannot read config {path}: {err}") from err
        return cls.from_dict(data)
