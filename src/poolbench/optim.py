"""Adam with bias correction, plus the simplex re-projection hook."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ops import DegenerateWeightsError, ParameterError, project_to_simplex

__all__ = ["OptimConfig", "Adam", "ADAM_BETAS", "ADAM_EPSILON"]

#: the moment decay rates (b1, b2) and the denominator guard of every Adam step
ADAM_BETAS = (0.9, 0.999)
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class OptimConfig:
    """A run's settable hyperparameters; defaults follow the benchmark protocol.
    Adam's other constants are fixed: :data:`ADAM_BETAS` and :data:`ADAM_EPSILON`."""

    lr: float = 1e-4
    epochs: int = 10
    batch_size: int = 10
    seed: int = 1

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ParameterError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ParameterError("epochs and batch_size must be >= 1")


class Adam:
    """Standard Adam update, in place on a net's parameter buffer.

    m <- b1*m + (1-b1)*g;  v <- b2*v + (1-b2)*g^2
    p <- p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)

    ``params`` is a net's (S, P) parameter buffer, a row per replica
    (:attr:`~poolbench.layers.ToyNet.flat_params`), and :meth:`step` takes its
    gradient buffer.  m and v are two more such buffers; every operation is
    elementwise on whole buffers, so each replica's result is, bit for bit,
    the per-parameter update of that replica alone.  ``lrs`` holds each row's
    rate (default: ``config.lr``); all rows step together, so ``t`` counts the
    steps of each.  Each array of ``simplex``, a view of ``params`` with a row
    of weights per replica, is re-projected onto the probability simplex after
    every update, a row at a time; a row with no positive entry stays as it
    is, as do its replica's later simplex arrays, and the step ends in a
    :class:`DegenerateWeightsError` naming every such replica.
    """

    def __init__(self, params: np.ndarray, config: OptimConfig, simplex=(), lrs=None):
        if not all(np.may_share_memory(arr, params) for arr in simplex):
            raise ParameterError("simplex constraint on an array outside the parameter buffer")
        self.params = params
        self.config = config
        self.simplex = tuple(simplex)
        self.lrs = np.reshape(np.asarray((config.lr,) * len(params) if lrs is None else lrs, dtype=float), (-1, 1))
        self.t = 0
        self.m, self.v = np.zeros(params.shape), np.zeros(params.shape)

    def select(self, params: np.ndarray, simplex, rows) -> "Adam":
        """An optimizer of ``params``, the replicas ``rows`` of this one's, that
        carries on with their learning rates, moments and step count."""
        adam = Adam(params, self.config, simplex, self.lrs[rows])
        adam.t, adam.m, adam.v = self.t, self.m[rows], self.v[rows]
        return adam

    def step(self, grads: np.ndarray) -> None:
        self.t += 1
        b1, b2 = ADAM_BETAS
        correction1 = 1.0 - b1**self.t
        correction2 = 1.0 - b2**self.t
        m, v = self.m, self.v
        m *= b1
        m += (1.0 - b1) * grads
        v *= b2
        v += (1.0 - b2) * (grads * grads)
        # in place, with each row's rate: the bits of lr * (m / c1) / (sqrt(v / c2) + eps)
        update = m / correction1
        update *= self.lrs
        update /= np.sqrt(v / correction2) + ADAM_EPSILON
        self.params -= update
        failed = []
        for arr in self.simplex:
            for r, row in enumerate(arr.reshape(len(self.lrs), -1)):
                if r not in failed:
                    try:
                        row[...] = project_to_simplex(row)
                    except DegenerateWeightsError as err:
                        failed.append(r)
                        message = str(err)
        if failed:
            raise DegenerateWeightsError(message, tuple(sorted(failed)))
