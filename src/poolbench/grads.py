"""Exact analytic backward passes for the pooling operators, plus the
finite-difference oracle the test suite uses as ground truth.

Each ``*_grad`` function returns a :class:`GradBundle` holding the gradient
with respect to the window entries (``d_input``) and, where the operator has
trainable state, the gradient with respect to each parameter (``d_params``).

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

from .ops import ParameterError, norm_exponent, sigmoid
from .tensor import ShapeError

__all__ = [
    "OracleError",
    "GradBundle",
    "FDOracleConfig",
    "max_pool_grad",
    "avg_pool_grad",
    "nearest_pool_grad",
    "conv_pool_grad",
    "gated_pool_grad",
    "ordinal_pool_grad",
    "learned_norm_pool_grad",
    "lse_pool_grad",
    "smooth_max_pool_grad",
    "central_difference",
    "relative_error",
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


def _vector(x) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))  # a scalar is a one-entry window
    if arr.ndim > 1:  # ops read a 2-D input as a stack of windows
        raise ShapeError(f"analytic gradients take one window, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("window must contain at least one entry")
    return arr


def max_pool_grad(x) -> GradBundle:
    """One-hot at the argmax; ties send the whole gradient to the first maximizer."""
    x = _vector(x)
    d = np.zeros_like(x)
    d[int(np.argmax(x))] = 1.0
    return GradBundle(d)


def avg_pool_grad(x) -> GradBundle:
    """Uniform 1/n into every window entry, independent of the values."""
    x = _vector(x)
    return GradBundle(np.full(x.size, 1.0 / x.size))


def nearest_pool_grad(x) -> GradBundle:
    """One-hot at the fixed propagated position (the first entry)."""
    x = _vector(x)
    d = np.zeros_like(x)
    d[0] = 1.0
    return GradBundle(d)


def conv_pool_grad(x, weights) -> GradBundle:
    """Bilinear: dy/dx = w and dy/dw = x."""
    x = _vector(x)
    w = _vector(weights)
    if w.shape != x.shape:
        raise ShapeError(f"weights length {w.size} != window length {x.size}")
    return GradBundle(w.copy(), {"conv_w": x.copy()})


def gated_pool_grad(x, gate_w) -> GradBundle:
    """Chain rule through g*avg + (1-g)*max with g = sigmoid(w.x).

    dy/dx_i = g/n + (1-g)*[i = argmax] + g(1-g) w_i (avg - max)
    dy/dw_i = g(1-g) x_i (avg - max)
    """
    x = _vector(x)
    w = _vector(gate_w)
    if w.shape != x.shape:
        raise ShapeError(f"gate weights length {w.size} != window length {x.size}")
    g = sigmoid((w * x).sum())
    n = x.size
    mean = x.mean()
    peak = x.max()
    swing = g * (1.0 - g) * (mean - peak)
    d_input = np.full(n, g / n)
    d_input[int(np.argmax(x))] += 1.0 - g
    d_input += swing * w
    return GradBundle(d_input, {"gate_w": swing * x})


def ordinal_pool_grad(x, weights) -> GradBundle:
    """Chain rule through the sorting permutation, treated as locally constant.

    With the ascending argsort of x (stable, so ties resolve to the first
    index in window order), dy/dx_i is the weight of the slot entry i was
    sorted into, and dy/dw_slot is the slot's sorted value.
    """
    x = _vector(x)
    w = _vector(weights)
    if w.shape != x.shape:
        raise ShapeError(f"weights length {w.size} != window length {x.size}")
    order = np.argsort(x, kind="stable")
    d_input = np.empty_like(x)
    d_input[order] = w
    return GradBundle(d_input, {"ordinal_w": x[order].copy()})


def learned_norm_pool_grad(x, p_raw) -> GradBundle:
    """Gradient of the power mean y = ((1/n) sum |x_i|^p)^(1/p).

    dy/dx_i = y |x_i|^(p-1) sign(x_i) / (n * (1/n sum |x_j|^p)), with the
    convention that the derivative is 0 wherever x_i = 0.  The parameter
    gradient chains dy/dp through dp/dp_raw = sigmoid(p_raw), using
    0*log(0) = 0.  Both are evaluated in ratio form (|x_i| / max|x|) so no
    intermediate can overflow for large exponents.
    """
    x = _vector(x)
    p = norm_exponent(p_raw)
    magnitudes = np.abs(x)
    peak = magnitudes.max()
    if peak == 0.0:
        return GradBundle(np.zeros_like(x), {"p_raw": np.zeros(1)})
    ratios = magnitudes / peak
    powered = ratios**p
    mean_pow = powered.mean()
    y = peak * mean_pow ** (1.0 / p)
    d_input = np.sign(x) * ratios ** (p - 1.0) * mean_pow ** (1.0 / p - 1.0) / x.size
    log_ratios = np.where(ratios > 0.0, np.log(np.where(ratios > 0.0, ratios, 1.0)), 0.0)
    weighted_logs = (powered * log_ratios).sum()
    dy_dp = y * (weighted_logs / (p * powered.sum()) - np.log(mean_pow) / p**2)
    d_p_raw = dy_dp * sigmoid(float(p_raw))
    return GradBundle(d_input, {"p_raw": np.array([d_p_raw])})


def lse_pool_grad(x, sharpness) -> GradBundle:
    """Input gradient of log-sum-exp pooling: the softmax of r*x.

    Computed with the max-shift trick, so the entries are positive, sum to
    one, and never overflow regardless of the input magnitude.  The
    sharpness r is a fixed hyperparameter and carries no gradient.
    """
    x = _vector(x)
    r = float(sharpness)
    if not math.isfinite(r) or r <= 0.0:
        raise ParameterError(f"sharpness must be a positive finite number, got {r}")
    z = r * x
    s = np.exp(z - z.max())
    return GradBundle(s / s.sum())


def smooth_max_pool_grad(x, tau) -> GradBundle:
    """Exact gradients of the softmax-weighted average.

    With shift-stabilized weights s_i = softmax(tau * x)_i and output y:

        dy/dx_i  = s_i * (1 + tau * (x_i - y))
        dy/dtau  = sum_i s_i * (x_i - y)^2

    The input gradient uses the factored form (one fewer division than the
    raw quotient, and safe under the shift); the temperature gradient is the
    variance of the window under the softmax weights, evaluated in centered
    form so it is nonnegative by construction.  The input gradient always
    sums to 1 but its entries may be negative.
    """
    x = _vector(x)
    tau = float(tau)
    if not math.isfinite(tau) or not np.isfinite(x).all():
        raise ValueError("smooth max requires finite window entries and temperature")
    z = tau * x
    s = np.exp(z - z.max())
    s /= s.sum()
    y = (s * x).sum()
    centered = x - y
    d_input = s * (1.0 + tau * centered)
    d_tau = (s * centered**2).sum()
    return GradBundle(d_input, {"tau": np.array([d_tau])})


def central_difference(fn, point, step: float, batched: bool = False) -> np.ndarray:
    """Per-coordinate central differences (fn(x + h e_i) - fn(x - h e_i)) / 2h.

    The n coordinates give a (2n, n) stack of bumped points: rows x + h e_i,
    then rows x - h e_i.  With ``batched`` ``fn`` maps the whole stack to its
    2n values in one call; otherwise it is called once per row.
    """
    point = np.asarray(point, dtype=np.float64).reshape(-1)
    n = point.size
    stack = np.empty((2 * n, n))
    stack[:] = point
    flat = stack.reshape(-1)
    flat[: n * n : n + 1] = point + step  # the diagonal of each half
    flat[n * n :: n + 1] = point - step
    if batched:
        values = np.asarray(fn(stack), dtype=np.float64)
        if values.shape != (2 * n,):
            raise ShapeError(f"batched fn returned shape {values.shape}, expected {(2 * n,)}")
    else:
        values = np.empty(2 * n)
        for row in range(2 * n):
            values[row] = fn(stack[row])
    hi, lo = values[:n], values[n:]
    if not np.isfinite(values).all():
        i = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))[0]
        raise OracleError(
            f"non-finite function value near coordinate {i} (f+={hi[i]}, f-={lo[i]})"
        )
    return (hi - lo) / (2.0 * step)


def relative_error(a, b, floor: float = 1e-8) -> float:
    """Worst relative discrepancy max_i |a_i - b_i| / max(|a_i|, |b_i|, floor)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


def fd_check(
    fn, point, analytic, config: FDOracleConfig = FDOracleConfig(), batched: bool = False
) -> float:
    """Worst relative error of ``analytic`` against central differences of ``fn``.

    ``fn`` maps a flat coordinate vector to a scalar (with ``batched``, a stack
    of them to their values; see :func:`central_difference`); ``analytic`` is
    the claimed gradient at ``point``.  The caller is responsible for keeping
    ``point`` away from non-differentiable sets (ties, |x| = 0 kinks).
    """
    numeric = central_difference(fn, point, config.step, batched)
    return relative_error(np.asarray(analytic, dtype=np.float64).reshape(-1), numeric)
