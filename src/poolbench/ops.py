"""Forward evaluation of the pooling operators.

Every window-level operator reduces over the last axis of ``x``: its n
entries along that axis are one window.  A 1-D ``x`` is one window and gives
a float; a 2-D ``x`` is a stack of windows, one per row, and gives one value
per row.  Parameters broadcast against the windows the same way: a weight
vector is (n,) or (m, n), one row per window, and a scalar parameter
(``p_raw``, ``tau``) is a scalar or an (m, 1) column.  Every validation
applies to every row.  Max- and average-pooling sit at the two ends of a
spectrum; the remaining operators interpolate between them (and min-pooling)
through a small number of parameters:

* ``conv_pool``      -- weighted sum with free weights.
* ``gated_pool``     -- sigmoid gate blending average and max.
* ``ordinal_pool``   -- convex combination of the *sorted* window.
* ``learned_norm_pool`` -- power mean of |x| with exponent p in (1, inf).
* ``lse_pool``       -- log-sum-exp quasi-arithmetic mean with sharpness r.
* ``smooth_max_pool``-- softmax-weighted average with temperature tau.

``smooth_max_pool`` and ``lse_pool`` are evaluated with the max-shift trick
(subtract the largest exponent argument before exponentiating), so they stay
finite for inputs and temperatures far beyond the overflow threshold of a
naive implementation.  The same shifted weights are reused by the backward
passes in :mod:`poolbench.grads`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, WindowSpec, as_tensor

__all__ = [
    "ParameterError",
    "ConfigurationError",
    "DegenerateWeightsError",
    "METHODS",
    "HEADLINE_METHODS",
    "ACTIVE_PARAMS",
    "Affine",
    "PoolSpec",
    "PoolParams",
    "validate_pool_params",
    "sigmoid",
    "max_pool",
    "avg_pool",
    "nearest_pool",
    "conv_pool",
    "gated_pool",
    "ordinal_pool",
    "project_to_simplex",
    "norm_exponent",
    "learned_norm_pool",
    "lse_pool",
    "smooth_max_pool",
    "global_avg_pool",
    "se_temperatures",
    "fixed_temperatures",
]


class ParameterError(ValueError):
    """A pooling parameter violates its contract (range, shape, or invariant)."""


class ConfigurationError(ValueError):
    """A structural configuration is inconsistent (e.g. reduction ratio vs channels)."""


class DegenerateWeightsError(ParameterError):
    """Simplex projection received weights with no positive entry."""


#: All supported pooling method identifiers.
METHODS = (
    "MP",
    "AP",
    "NN",
    "CONV",
    "GP",
    "OP",
    "LNP",
    "LSE",
    "SMP_fixed",
    "SMP_trainable",
    "SESMP",
    "SEMP",
)

#: The ten methods entering the headline benchmark sweep.  CONV is covered
#: by NN preceded by a full convolution stage (a strided convolution equals
#: a stride-1 convolution followed by nearest-neighbor downsampling), and
#: LSE is kept out of the comparison because its sharpness is a fixed,
#: hand-chosen hyperparameter rather than a trained one.
HEADLINE_METHODS = (
    "MP",
    "AP",
    "NN",
    "GP",
    "OP",
    "LNP",
    "SMP_trainable",
    "SMP_fixed",
    "SESMP",
    "SEMP",
)

#: Which PoolParams fields each method reads.
ACTIVE_PARAMS = {
    "MP": (),
    "AP": (),
    "NN": (),
    "CONV": ("conv_w",),
    "GP": ("gate_w",),
    "OP": ("ordinal_w",),
    "LNP": ("p_raw",),
    "LSE": ("sharpness",),
    "SMP_fixed": ("tau",),
    "SMP_trainable": ("tau",),
    "SESMP": ("se_f1", "se_f2", "se_ratio"),
    "SEMP": ("se_f1", "se_f2", "se_ratio"),
}

# Sigmoid saturation bounds: one subnormal above 0 and one ulp below 1, so
# gate values always satisfy the strict open-interval invariant.
_SIGMOID_LO = 1e-308
_SIGMOID_HI = float(np.nextafter(1.0, 0.0))

# Tolerances for validating ordinal weights at evaluation time.  The hard
# invariant (exact simplex membership) is restored by project_to_simplex
# after every optimizer step; evaluation accepts a small slack so that
# finite-difference probing of the weight gradient stays within contract.
_SIMPLEX_SUM_TOL = 1e-3
_SIMPLEX_NEG_TOL = 1e-6


def sigmoid(t):
    """Logistic function 1/(1+exp(-t)), clamped just inside the open interval (0, 1).

    Both branches exponentiate -|t|, so large |t| never overflows.  Accepts
    scalars or arrays; returns a float for scalar input.
    """
    t = np.asarray(t, dtype=np.float64)
    e = np.exp(-np.abs(t))
    d = 1.0 + e
    out = np.where(t >= 0, 1.0 / d, e / d)
    np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)
    return _float_or_array(out)


@dataclass(frozen=True, eq=False)
class Affine:
    """Affine map v -> weight @ v + bias, weight shaped (out_dim, in_dim)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weight", np.asarray(self.weight, dtype=np.float64))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=np.float64))
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("affine map needs a 2-D weight and a 1-D bias")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"weight rows {self.weight.shape[0]} != bias length {self.bias.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.in_dim,):
            raise ShapeError(f"expected input of shape ({self.in_dim},), got {v.shape}")
        return self.weight @ v + self.bias


@dataclass(frozen=True)
class PoolSpec:
    """A pooling method plus its window geometry and channel count."""

    method: str
    window: WindowSpec
    channels: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigurationError(
                f"unknown pooling method {self.method!r}; valid: {', '.join(METHODS)}"
            )
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")

    @property
    def active_params(self) -> tuple[str, ...]:
        return ACTIVE_PARAMS[self.method]


@dataclass
class PoolParams:
    """Trainable state of one pooling block; only the method's fields are set.

    Scalar parameters (``p_raw``) are stored as shape-(1,) arrays so the
    optimizer can update every parameter in place through one interface.
    """

    conv_w: np.ndarray | None = None        # (n,) weights, shared across channels
    gate_w: np.ndarray | None = None        # (n,) gate weights, shared across channels
    ordinal_w: np.ndarray | None = None     # (n,) simplex weights over sorted slots
    p_raw: np.ndarray | None = None         # (1,) unconstrained norm exponent
    sharpness: float | None = None          # fixed log-sum-exp sharpness r > 0
    tau: np.ndarray | None = None           # (C,) per-channel temperatures
    se_f1: Affine | None = None             # squeeze branch: channels -> channels/ratio
    se_f2: Affine | None = None             # excite branch: channels/ratio -> channels
    se_ratio: int | None = None             # reduction ratio, must divide channels

    def arrays(self) -> dict[str, np.ndarray]:
        """The populated array fields by flat name, each SE affine map split
        into its ``_weight`` and ``_bias``; the stored arrays, not copies."""
        out = {
            name: getattr(self, name)
            for name in ("conv_w", "gate_w", "ordinal_w", "p_raw", "tau")
            if getattr(self, name) is not None
        }
        for name in ("se_f1", "se_f2"):
            affine = getattr(self, name)
            if affine is not None:
                out[f"{name}_weight"], out[f"{name}_bias"] = affine.weight, affine.bias
        return out

    def snapshot(self) -> dict[str, list[float]]:
        """Flat copy of the populated fields, for serialization."""
        out = {
            name: [float(v) for v in np.asarray(arr).reshape(-1)]
            for name, arr in self.arrays().items()
        }
        if self.sharpness is not None:
            out["sharpness"] = [float(self.sharpness)]
        return out


def validate_pool_params(spec: PoolSpec, params: PoolParams) -> None:
    """Check that exactly the method's fields are populated and well-formed."""
    n = spec.window.n
    for name in spec.active_params:
        if getattr(params, name) is None:
            raise ConfigurationError(f"{spec.method} requires parameter {name!r}")
    if params.conv_w is not None and params.conv_w.shape != (n,):
        raise ShapeError(f"conv_w must have shape ({n},), got {params.conv_w.shape}")
    if params.gate_w is not None and params.gate_w.shape != (n,):
        raise ShapeError(f"gate_w must have shape ({n},), got {params.gate_w.shape}")
    if params.ordinal_w is not None:
        ordinal_w = np.asarray(params.ordinal_w)
        if ordinal_w.shape != (n,):
            raise ShapeError(f"ordinal_w must have shape ({n},), got {ordinal_w.shape}")
        _check_ordinal_weights(ordinal_w, n)
    if params.sharpness is not None and not params.sharpness > 0:
        raise ParameterError(f"sharpness must be > 0, got {params.sharpness}")
    if params.tau is not None and params.tau.shape != (spec.channels,):
        raise ShapeError(
            f"tau must have shape ({spec.channels},), got {params.tau.shape}"
        )
    if spec.method in ("SESMP", "SEMP"):
        ratio = params.se_ratio
        if ratio is None or ratio < 1 or spec.channels % ratio != 0:
            raise ConfigurationError(
                f"reduction ratio {ratio!r} must divide channels={spec.channels}"
            )
        hidden = spec.channels // ratio
        if params.se_f1.in_dim != spec.channels or params.se_f1.out_dim != hidden:
            raise ConfigurationError(
                f"se_f1 must map {spec.channels} -> {hidden}, got "
                f"{params.se_f1.in_dim} -> {params.se_f1.out_dim}"
            )
        if params.se_f2.in_dim != hidden or params.se_f2.out_dim != spec.channels:
            raise ConfigurationError(
                f"se_f2 must map {hidden} -> {spec.channels}, got "
                f"{params.se_f2.in_dim} -> {params.se_f2.out_dim}"
            )


def _windows(x) -> np.ndarray:
    """``x`` as float64 windows along the last axis; a scalar is a one-entry window."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] == 0:
        raise ShapeError("window must contain at least one entry")
    return arr


def _float_or_array(out: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float; anything else unchanged."""
    return float(out) if out.ndim == 0 else out


def _check_ordinal_weights(w: np.ndarray, n: int) -> None:
    """Every row of ``w`` (one row per window) must lie on the simplex, up to tolerance."""
    if w.ndim == 0 or w.shape[-1] != n:
        raise ShapeError(f"ordinal weights must have {n} entries per row, got shape {w.shape}")
    rows = w.reshape(-1, n)
    sums = rows.sum(axis=1)
    off = (rows < -_SIMPLEX_NEG_TOL).any(axis=1) | (np.abs(sums - 1.0) > _SIMPLEX_SUM_TOL)
    bad = np.flatnonzero(off)
    if bad.size:
        raise ParameterError(
            "ordinal weights must be nonnegative and sum to 1 "
            f"(got sum={sums[bad[0]]:.6g}, min={rows[bad[0]].min():.6g})"
        )


def max_pool(x) -> float | np.ndarray:
    """Largest window entry."""
    return _float_or_array(_windows(x).max(axis=-1))


def avg_pool(x) -> float | np.ndarray:
    """Arithmetic mean of the window."""
    return _float_or_array(_windows(x).mean(axis=-1))


def nearest_pool(x) -> float | np.ndarray:
    """First window entry, in row-major window order.

    This is nearest-neighbor downsampling: a fixed position is propagated
    and the rest of the window is ignored.  Applying it after a stride-1
    convolution reproduces a strided convolution.
    """
    return _float_or_array(_windows(x)[..., 0])


def conv_pool(x, weights) -> float | np.ndarray:
    """Weighted sum of the window entries."""
    x = _windows(x)
    w = _windows(weights)
    if w.shape[-1] != x.shape[-1]:
        raise ShapeError(f"weights length {w.shape[-1]} != window length {x.shape[-1]}")
    return _float_or_array((w * x).sum(axis=-1))


def gated_pool(x, gate_w) -> float | np.ndarray:
    """Gate-blended average and max: g*avg(x) + (1-g)*max(x), g = sigmoid(w.x).

    The gate weights are shared across channels.
    """
    x = _windows(x)
    w = _windows(gate_w)
    if w.shape[-1] != x.shape[-1]:
        raise ShapeError(f"gate weights length {w.shape[-1]} != window length {x.shape[-1]}")
    g = sigmoid((w * x).sum(axis=-1))
    return _float_or_array(g * x.mean(axis=-1) + (1.0 - g) * x.max(axis=-1))


def ordinal_pool(x, weights) -> float | np.ndarray:
    """Convex combination of the window's entries sorted in ascending order.

    weights[..., 0] multiplies the minimum and weights[..., -1] the maximum,
    so a one-hot last (first) weight vector reproduces max- (min-) pooling.
    The weights are shared across channels.
    """
    x = _windows(x)
    w = np.asarray(weights, dtype=np.float64)
    _check_ordinal_weights(w, x.shape[-1])
    return _float_or_array((w * np.sort(x, axis=-1)).sum(axis=-1))


def project_to_simplex(weights) -> np.ndarray:
    """Clip negative weights to zero, then renormalize to sum to one.

    Applied to the ordinal weights after every optimizer step.  Raises
    :class:`DegenerateWeightsError` when no entry is positive: silently
    resetting to uniform weights would corrupt a training run, so the
    caller is expected to log the failure and abort the run instead.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    clipped = np.maximum(w, 0.0)
    total = clipped.sum()
    if not total > 0.0:
        raise DegenerateWeightsError(
            "cannot project weights with no positive entry onto the simplex"
        )
    return clipped / total


def norm_exponent(p_raw) -> float | np.ndarray:
    """Map the unconstrained parameter to the norm exponent: 1 + log(1 + exp(p_raw)).

    Keeps the exponent strictly inside (1, inf); evaluated via logaddexp so
    large |p_raw| cannot overflow.  Accepts a scalar (returns a float) or an
    array (returns one exponent per entry).
    """
    return _float_or_array(1.0 + np.logaddexp(0.0, np.asarray(p_raw, dtype=np.float64)))


def learned_norm_pool(x, p_raw) -> float | np.ndarray:
    """Power mean of the absolute window entries: ((1/n) sum |x_i|^p)^(1/p).

    The mean (not the sum) is used, so a constant window is a fixed point.
    The exponent p = 1 + log(1 + exp(p_raw)) stays in (1, inf).  Evaluation
    factors out max|x_i|, keeping every intermediate ratio in [0, 1] so that
    large exponents cannot overflow.  An all-zero window returns 0.
    """
    x = _windows(x)
    p = norm_exponent(p_raw)
    magnitudes = np.abs(x)
    peak = magnitudes.max(axis=-1, keepdims=True)
    # an all-zero window divides by 1 instead: its ratios, mean and result are all 0
    ratios = magnitudes / np.where(peak > 0.0, peak, 1.0)
    # float_power rounds as C's pow does, like the scalar arithmetic of the gradient;
    # numpy's vectorised ** differs from it in the last bit for a few percent of inputs
    root = np.float_power((ratios**p).mean(axis=-1, keepdims=True), 1.0 / p)
    return _float_or_array((peak * root)[..., 0])


def lse_pool(x, sharpness) -> float | np.ndarray:
    """Log-sum-exp mean: (1/r) log((1/n) sum exp(r*x_i)) with sharpness r > 0.

    Converges to the maximum as r grows and to the average as r shrinks.
    Evaluated with the max-shift trick so the exponentials never overflow;
    the backward pass reuses the same shifted weights.
    """
    x = _windows(x)
    r = float(sharpness)
    if not math.isfinite(r) or r <= 0.0:
        raise ParameterError(f"sharpness must be a positive finite number, got {r}")
    z = r * x
    d = z.max(axis=-1)
    return _float_or_array((d + np.log(np.exp(z - d[..., None]).mean(axis=-1))) / r)


def smooth_max_pool(x, tau) -> float | np.ndarray:
    """Softmax-weighted average: sum_i x_i * exp(tau*x_i) / sum_j exp(tau*x_j).

    A convex combination of the window entries for every temperature tau:
    tau = 0 gives the plain average exactly, tau -> +inf the maximum, and
    tau -> -inf the minimum.  The shifted evaluation subtracts
    d = max_i tau*x_i from every exponent argument (exact, because adding a
    scalar distributes over this operator), so no exponential can overflow.
    When several entries tie for the maximum their softmax weights split
    evenly, which the formula forces.
    """
    x = _windows(x)
    tau = np.asarray(tau, dtype=np.float64)
    if not np.isfinite(tau).all() or not np.isfinite(x).all():
        raise ValueError("smooth max requires finite window entries and temperature")
    z = tau * x
    s = np.exp(z - z.max(axis=-1, keepdims=True))
    return _float_or_array((s * x).sum(axis=-1) / s.sum(axis=-1))


def global_avg_pool(x) -> np.ndarray:
    """Per-channel spatial mean of a (C, H, W) tensor; returns a length-C vector."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a (C, H, W) tensor, got shape {x.shape}")
    return x.mean(axis=(1, 2))


def se_temperatures(mu, f1: Affine, f2: Affine, ratio: int) -> np.ndarray:
    """Squeeze-and-excitation branch: f2(relu(f1(mu))) on channel means mu.

    ``ratio`` is the reduction ratio: f1 maps C channel means down to
    C/ratio hidden units and f2 maps them back up, one output per channel.
    The outputs drive one temperature (or gate) per channel.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    channels = mu.size
    if ratio < 1 or channels % ratio != 0:
        raise ConfigurationError(
            f"reduction ratio {ratio} must divide the channel count {channels}"
        )
    hidden = channels // ratio
    if f1.in_dim != channels or f1.out_dim != hidden:
        raise ConfigurationError(
            f"f1 must map {channels} -> {hidden}, got {f1.in_dim} -> {f1.out_dim}"
        )
    if f2.in_dim != hidden or f2.out_dim != channels:
        raise ConfigurationError(
            f"f2 must map {hidden} -> {channels}, got {f2.in_dim} -> {f2.out_dim}"
        )
    return f2(np.maximum(f1(mu), 0.0))


def fixed_temperatures(channels: int) -> np.ndarray:
    """Frozen temperature ladder tau_c = log(c / C) for c = 1..C.

    All values are <= 0; the last channel gets tau = 0 and therefore behaves
    exactly like average-pooling.
    """
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")
    return np.log(np.arange(1, channels + 1, dtype=np.float64) / channels)
