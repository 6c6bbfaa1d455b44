"""Adam with bias correction, plus the simplex re-projection hook."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import DegenerateWeightsError, ParameterError, project_to_simplex

__all__ = ["OptimConfig", "Adam", "ADAM_EPSILON"]

ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    """Training hyperparameters; defaults follow the benchmark protocol."""

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    epochs: int = 10
    batch_size: int = 10
    seed: int = 1

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ParameterError(f"{name} must lie in [0, 1), got {b}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")


class Adam:
    """Standard Adam update, in place on a named parameter dict.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    m and v hold one row per replica, each row one slice per parameter; every
    operation is elementwise, so the result equals the per-parameter update
    of each replica alone bit for bit.  ``lrs`` holds each replica's rate
    (default: one replica at ``config.lr``); each parameter but a lone
    replica's has a leading axis of the S replicas, which all step together,
    so ``t`` counts the steps of each.  Parameters named in ``simplex_names`` are
    re-projected onto the probability simplex immediately after every update,
    one replica's row at a time; a row with no positive entry stays as it
    is, as do its replica's later simplex parameters, and the step ends in a
    :class:`DegenerateWeightsError` naming every such replica.
    """

    def __init__(self, params: dict[str, np.ndarray], config: OptimConfig, simplex_names=(), lrs=None):
        self.params = params
        self.config = config
        self.simplex_names = tuple(simplex_names)
        unknown = set(self.simplex_names) - set(params)
        if unknown:
            raise ParameterError(f"simplex constraint on unknown parameters: {sorted(unknown)}")
        self.lrs = np.reshape(np.asarray((config.lr,) if lrs is None else lrs, dtype=float), (-1, 1))
        self.replicas = replicas = len(self.lrs)
        self.t = 0
        offsets = np.cumsum([0] + [p.size // replicas for p in params.values()])
        self._slices = [slice(lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])]
        self.m = np.zeros((replicas, offsets[-1]))
        self.v = np.zeros((replicas, offsets[-1]))

    def select(self, params: dict[str, np.ndarray], rows) -> "Adam":
        """An optimizer of ``params``, the replicas ``rows`` of this one's, that
        carries on with their learning rates, moments and step count."""
        adam = Adam(params, self.config, self.simplex_names, self.lrs[rows])
        adam.t, adam.m, adam.v = self.t, self.m[rows], self.v[rows]
        return adam

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.config.beta1, self.config.beta2
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        g = np.concatenate([grads[name].reshape(self.replicas, -1) for name in self.params], axis=1)
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        # in place, with each row's rate: the bits of lr * (m / c1) / (sqrt(v / c2) + eps)
        update = m / correction1
        update *= self.lrs
        update /= np.sqrt(v / correction2) + ADAM_EPSILON
        for p, part in zip(self.params.values(), self._slices):
            p -= update[:, part].reshape(p.shape)
        failed = []
        for name in self.simplex_names:
            for r, row in enumerate(self.params[name].reshape(self.replicas, -1)):
                if r not in failed:
                    try:
                        row[...] = project_to_simplex(row)
                    except DegenerateWeightsError as err:
                        failed.append(r)
                        message = str(err)
        if failed:
            raise DegenerateWeightsError(message, tuple(sorted(failed)))
