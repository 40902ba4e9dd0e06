"""Training hyperparameters, the stepped learning-rate schedule, and Adam."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import POSITIVE, SEED, SIZE, ConfigurationError, Field, check, is_finite_number

# Adam's moment decay rates and denominator guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# the fields of a TrainConfig (the dataclass holds the defaults)
TRAIN_FIELDS = {
    "epochs": SIZE,
    "batch_size": SIZE,
    "learning_rate": POSITIVE,
    "decay_gamma": Field(lambda v: is_finite_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "decay_every": SIZE,
    "shuffle": Field(lambda v: isinstance(v, bool), "true or false"),
    "seed": SEED,
}


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by the sequence and dense trainers,
    checked when they are built (``ConfigurationError``)."""

    epochs: int = 100
    batch_size: int = 256
    learning_rate: float = 1e-4
    decay_gamma: float = 0.9
    decay_every: int = 10
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        for key, value in check(vars(self), TRAIN_FIELDS, "train").items():
            object.__setattr__(self, key, value)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Settings from a mapping of (some of) the fields, defaults for the
        rest."""
        return cls(**check(d, TRAIN_FIELDS, "train"))


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
