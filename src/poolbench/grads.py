"""Analytic gradients of the window-level operators, plus the
finite-difference (FD) oracle that checks them.

Each ``*_grad`` function takes one window, with one value of a scalar
parameter, and returns a :class:`GradBundle` holding the gradient with
respect to the window entries (``d_input``) and, where the operator has
trainable state, the gradient with respect to each parameter (``d_params``,
keyed by the flat name a pooling block stores the parameter under).
Like the operators of :mod:`poolbench.ops`, they are adapters over the
method's kernel pair in :data:`poolbench.ops.POOLING`, the code that trains;
:func:`pool_grads` evaluates it for many windows at once.

The oracle takes values, not a function.  The caller evaluates its function
at the (2n, n) stack of :func:`bumped_points`, row by row or all rows in one
call, and :func:`fd_check` compares a claimed gradient with the central
differences of those 2n values, in one pass over them as Python floats.

Non-smooth points are handled with fixed, documented conventions:

* max-pooling and ordinal-pooling break ties toward the first index in
  window order (a zero-measure set; the choice only matters exactly at a tie);
* the learned-norm operator treats the derivative of |x| at 0 as 0, the same
  convention used for differentiating a ReLU at the kink.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ops import POOLING, ParameterError, check_pooled, window_stack
from .tensor import ShapeError

__all__ = [
    "OracleError",
    "GradBundle",
    "FDOracleConfig",
    "pool_grads",
    "max_pool_grad",
    "avg_pool_grad",
    "nearest_pool_grad",
    "conv_pool_grad",
    "gated_pool_grad",
    "ordinal_pool_grad",
    "learned_norm_pool_grad",
    "lse_pool_grad",
    "smooth_max_pool_grad",
    "bumped_points",
    "fd_check",
]


class OracleError(RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


@dataclass
class GradBundle:
    """Gradients of one pooling evaluation.

    ``d_input`` is dy/dx_i per window entry; ``d_params`` maps parameter
    names to their gradients (empty for parameter-free operators).
    """

    d_input: np.ndarray
    d_params: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class FDOracleConfig:
    """Central-difference step and acceptance tolerance for gradient checks.

    The default step 1e-5 balances truncation error (~h^2) against float64
    roundoff (~eps/h); errors are measured relative to
    max(|analytic|, |numeric|, 1e-8).
    """

    step: float = 1e-5
    tolerance: float = 1e-5

    def __post_init__(self):
        # an infinite tolerance would pass every gradient, right or wrong
        if not (math.isfinite(self.step) and self.step > 0):
            raise ParameterError(f"step must be a positive finite number, got {self.step}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ParameterError(
                f"tolerance must be a positive finite number, got {self.tolerance}"
            )
        # fd_check's error is never above 2, and a tolerance of at most 1 fails a coordinate of
        # the wrong sign, or 0 where the difference is 1e-8 or more: a larger one passes them
        if self.tolerance > 1:
            raise ParameterError(f"tolerance must be at most 1, got {self.tolerance}")


def _vector(x):
    """``x``, which must be one window's input or parameter: a 2-D input (a stack
    of windows) or a column parameter (a value per window) is a ShapeError."""
    if np.ndim(x) > 1:
        raise ShapeError(f"analytic gradients take one window, got shape {np.shape(x)}")
    return x


def pool_grads(method: str, x, **params) -> GradBundle:
    """Analytic gradients of ``method`` at every window along the last axis of ``x``.

    Parameters are as for :func:`poolbench.ops.window_stack`.  ``d_input``
    has the broadcast windows' shape (..., n); each parameter gradient has
    one row per window: (..., n) for a weight per entry, an (..., 1) column
    for a scalar.  The kernel pair runs once for all the windows.  A non-finite
    gradient, such as one of an overflowing product, raises
    :class:`~poolbench.ops.DivergedRunError`.
    """
    stack, fields, batch = window_stack(method, x, params)
    pooling = POOLING[method]
    with np.errstate(over="ignore", invalid="ignore"):
        _, cache = pooling.forward(stack, fields)
        d_stack, d_fields = pooling.backward(cache, np.ones(stack.shape[1:]))
    check_pooled(method, "gradient", d_stack, *d_fields.values())

    def rows(d):  # window-first (n, M) or (M,) to window-last rows over the batch
        return np.asarray(d).T.reshape(batch + (-1,))

    return GradBundle(rows(d_stack), {name: rows(d) for name, d in d_fields.items()})


def max_pool_grad(x) -> GradBundle:
    """One-hot at the argmax; ties send the whole gradient to the first maximizer."""
    return pool_grads("MP", _vector(x))


def avg_pool_grad(x) -> GradBundle:
    """Uniform 1/n into every window entry, independent of the values."""
    return pool_grads("AP", _vector(x))


def nearest_pool_grad(x) -> GradBundle:
    """One-hot at the fixed propagated position (the first entry)."""
    return pool_grads("NN", _vector(x))


def conv_pool_grad(x, weights) -> GradBundle:
    """Bilinear: dy/dx = w and dy/dw = x."""
    return pool_grads("CONV", _vector(x), conv_w=_vector(weights))


def gated_pool_grad(x, gate_w) -> GradBundle:
    """Chain rule through g*avg + (1-g)*max with g = sigmoid(w.x)."""
    return pool_grads("GP", _vector(x), gate_w=_vector(gate_w))


def ordinal_pool_grad(x, weights) -> GradBundle:
    """dy/dx_i is the weight of the slot entry i sorts into (stable ranks: ties keep
    window order), dy/dw_slot the slot's sorted value."""
    return pool_grads("OP", _vector(x), ordinal_w=_vector(weights))


def learned_norm_pool_grad(x, p_raw) -> GradBundle:
    """Gradient of the power mean, 0 wherever x_i = 0; dy/dp_raw = dy/dp * sigmoid(p_raw)."""
    return pool_grads("LNP", _vector(x), p_raw=_vector(p_raw))


def lse_pool_grad(x, sharpness) -> GradBundle:
    """The softmax of r*x; the fixed sharpness r carries no gradient."""
    return pool_grads("LSE", _vector(x), sharpness=_vector(sharpness))


def smooth_max_pool_grad(x, tau) -> GradBundle:
    """dy/dx_i = s_i (1 + tau (x_i - y)) and dy/dtau = sum_i s_i (x_i - y)^2, s = softmax(tau x)."""
    return pool_grads("SMP_trainable", _vector(x), tau=_vector(tau))


def bumped_points(points, step) -> np.ndarray:
    """The bumped points of central differences at step h for each point along
    the last axis of ``points``: n coordinates give a (2n, n) stack, rows
    x + h e_i, then rows x - h e_i, so (..., n) points give (..., 2n, n)."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[-1]
    stack = np.empty(points.shape[:-1] + (2 * n, n))
    stack[...] = points[..., None, :]
    flat = stack.reshape(stack.shape[:-2] + (-1,))
    flat[..., : n * n : n + 1] = points + step  # the diagonal of each half
    flat[..., n * n :: n + 1] = points - step
    return stack


def fd_check(values, analytic, config: FDOracleConfig) -> float:
    """Worst relative error of ``analytic``, the claimed gradient at a point x,
    against the central differences of ``values``, the function's values at
    :func:`bumped_points` ``(x, config.step)``: f(x + h e_i) for every i, then
    f(x - h e_i).  The caller is responsible for keeping x away from
    non-differentiable sets (ties, |x| = 0 kinks).

    Per coordinate, d_i = (f(x + h e_i) - f(x - h e_i)) / 2h, and the error is
    |a_i - d_i| / max(|a_i|, |d_i|, 1e-8).  One pass over the values as Python
    floats does the IEEE operations of the array form, and costs less than its
    numpy calls at the sizes gradcheck compares.  A non-finite value raises
    :class:`OracleError`; a NaN in ``analytic`` makes the error NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or not values.size or values.size % 2:
        raise ShapeError(f"expected the 2n values of n coordinates as one flat array, got shape {values.shape}")
    n = values.size // 2
    analytic = np.asarray(analytic, dtype=np.float64).reshape(-1)
    if analytic.size == n:
        f = values.tolist()
        two_h = 2.0 * config.step
        worst = 0.0
        for a, hi, lo in zip(analytic.tolist(), f, f[n:]):
            d = (hi - lo) / two_h
            s, t = abs(a), abs(d)
            e = abs(a - d) / (s if s >= t and s >= 1e-8 else t if t >= 1e-8 else 1e-8)  # max(), without a call
            if not e <= worst:
                worst = e
                if e != e:  # NaN: a non-finite value, difference or gradient
                    break
        else:
            return worst
    # a mismatch or a NaN error; a non-finite value is named first
    hi, lo = values[:n], values[n:]
    if not np.isfinite(values).all():
        i = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))[0]
        raise OracleError(f"non-finite function value near coordinate {i} (f+={hi[i]}, f-={lo[i]})")
    if analytic.size != n:
        raise ShapeError(f"cannot compare shapes {analytic.shape} and {(n,)}")
    return worst
