"""Training hyperparameters, the stepped learning-rate schedule, and Adam."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ..errors import ConfigurationError, is_finite_number

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by the sequence and dense trainers."""

    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-4
    decay_gamma: float = 0.9
    decay_every: int = 10
    shuffle: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0 < self.decay_gamma <= 1:
            raise ConfigurationError("decay_gamma must lie in (0, 1]")
        if self.decay_every < 1:
            raise ConfigurationError("decay_every must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError("seed must be an unsigned 64-bit integer")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Settings from a mapping of (some of) the fields, defaults for the
        rest.  Types are checked here and ranges in :meth:`validate`; an
        unknown field or a value of the wrong type raises
        ``ConfigurationError``."""
        if not isinstance(d, Mapping) or not d.keys() <= cls.__dataclass_fields__.keys():
            raise ConfigurationError(f"train block is not a mapping of TrainConfig fields: {d!r}")
        for key, v in d.items():
            if key == "shuffle":
                ok = isinstance(v, bool)
            elif key in ("learning_rate", "decay_gamma"):
                ok = is_finite_number(v)
            else:
                ok = isinstance(v, Integral) and not isinstance(v, bool)
            if not ok:
                raise ConfigurationError(f"train field {key!r} has a bad type or value: {v!r}")
        return cls(**d)


def lr_at(config: TrainConfig, epoch: int) -> float:
    """Stepped exponential decay: the base rate is multiplied by
    ``decay_gamma`` once every ``decay_every`` epochs (0-indexed)."""
    return config.learning_rate * config.decay_gamma ** (epoch // config.decay_every)


class Adam:
    """Adam with bias correction over a fixed list of parameter arrays.

    Parameters are updated in place; the moment buffers are keyed by
    position, so the arrays must be passed in the same order every step.
    """

    def __init__(self, params: list[np.ndarray]):
        self.params = params
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, grads: list[np.ndarray], lr: float) -> None:
        if len(grads) != len(self.params):
            raise ConfigurationError("gradient list does not match the parameter list")
        self.t += 1
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= lr * (m / b1t) / (np.sqrt(v / b2t) + EPS)
