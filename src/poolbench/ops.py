"""Pooling methods: one table row each, and their window-level operators.

:data:`POOLING` has one row per method: the parameters its kernel reads, its
trainable arrays, its initial parameters and its kernel pair, the only
implementation of the method's window formula.  A pooling block's
parameters are one dict keyed by the flat names that the optimizer and the
reports use: ``conv_w``, ``gate_w``, ``ordinal_w``, ``p_raw``, ``sharpness``,
``tau`` and the squeeze-and-excitation (SE) branch's ``se_f1_weight``,
``se_f1_bias``, ``se_f2_weight`` and ``se_f2_bias``; :data:`FIELD_RULES`
states the rules of each.  The pooling blocks of :mod:`poolbench.layers`
train through the kernels; the operators below and the gradients of
:mod:`poolbench.grads` are thin adapters over them.  CONV, GP, OP, LNP, LSE
and SMP interpolate between max- and average-pooling (and min-pooling)
through a few parameters.

Kernels.  ``forward(stack, fields)`` returns ``(y, cache)`` and
``backward(cache, dy)`` returns ``(d_stack, {name: gradient})``, where
``d_stack`` may also be a list of its n entries.  ``stack`` holds the windows
along its first axis, with any trailing shape: (n, H', W', B, C) in a pooling
block, (n, m) for m windows in the adapters; the forward may overwrite it.  A
forward builds no state that only its backward reads, except LNP's weighted
log mean (rebuilding it would take a window-sized array): the first-maximizer
mask and the softmax weights ``e / total`` are formed in the backward, so a
forward-only pass does not pay for them.  A field of one weight per window
entry (:data:`ENTRY_WEIGHTS`) has the window axis first; any other field, and
``dy``, broadcasts against the stack without its window axis.  Each gradient
is summed to its field's shape: over the windows that share a field, or per
window for one field row per window.

Operators.  Each reduces over the last axis of ``x``: a 1-D ``x`` is one
window and gives a float, a 2-D ``x`` is a stack of windows, one per row, and
gives one value per row.  A weight vector is (n,) or (m, n), one row per
window; a scalar parameter (``p_raw``, ``sharpness``, ``tau``) is a scalar or
an (m, 1) column.  Operators and blocks share one input rule
(:func:`check_input`): an input with a NaN or an infinite entry raises
:class:`DivergedRunError`, so no NaN is pooled into a result or a zero
gradient; so does a result that is not finite, such as that of a product
of an input and a parameter that overflows (:func:`check_pooled`).
Parameters follow :data:`FIELD_RULES`: a missing or extra key raises
:class:`ConfigurationError`, a wrong shape ``ShapeError`` and a value out of
range :class:`ParameterError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .tensor import ShapeError, WindowSpec

__all__ = [
    "ParameterError",
    "ConfigurationError",
    "DegenerateWeightsError",
    "DivergedRunError",
    "ENTRY_WEIGHTS",
    "Pooling",
    "POOLING",
    "METHODS",
    "HEADLINE_METHODS",
    "pooling_row",
    "FIELD_RULES",
    "check_field",
    "check_input",
    "check_pooled",
    "PoolSpec",
    "validate_pool_params",
    "sigmoid",
    "window_stack",
    "pool",
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
    "fixed_temperatures",
]


class ParameterError(ValueError):
    """A pooling parameter violates its contract (range, shape, or invariant)."""


class ConfigurationError(ValueError):
    """A structural configuration is inconsistent (e.g. reduction ratio vs channels)."""


class _ReplicaError(Exception):
    """An error that may name the replicas of a stack it concerns: ``replicas``
    holds their row indices, or is None when the error concerns the whole input."""

    def __init__(self, message="", replicas=None):
        super().__init__(message)
        self.replicas = replicas


class DegenerateWeightsError(_ReplicaError, ParameterError):
    """Simplex projection received weights with no positive entry."""


class DivergedRunError(_ReplicaError, RuntimeError, ValueError):
    """A loss or a pooling input became non-finite.

    Also a ``ValueError``: the pooling input rule (:func:`check_input`)
    rejects a non-finite input with a ``ValueError``, and keeps doing so
    through this class.
    """


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


def norm_exponent(p_raw) -> float | np.ndarray:
    """Map the unconstrained parameter to the norm exponent: 1 + log(1 + exp(p_raw)).

    Keeps the exponent strictly inside (1, inf); evaluated via logaddexp so
    large |p_raw| cannot overflow.  Accepts a scalar (returns a float) or an
    array (returns one exponent per entry).
    """
    return _float_or_array(1.0 + np.logaddexp(0.0, np.asarray(p_raw, dtype=np.float64)))


# -- kernels ---------------------------------------------------------------------
#
# Every fold over the window runs along axis 0 of the stack.  A pooling block
# stacks C-contiguous (H', W', B, C) views, so each fold adds contiguous planes
# in window order.


def _sum_to(grad, field):
    """``grad`` summed over the axes along which ``field`` was broadcast."""
    shape = np.shape(field)
    if grad.shape == shape:
        return grad
    lead = grad.ndim - len(shape)
    axes = [i for i in range(grad.ndim) if i < lead or (shape[i - lead] == 1 and grad.shape[i] != 1)]
    return grad.sum(axis=tuple(axes)).reshape(shape)


def _max_forward(stack, fields):
    peak = stack.max(axis=0)
    return peak, (stack, peak)


def _max_backward(cache, dy):
    """``dy`` sent to each window's first maximizer only (argmax's tie rule)."""
    stack, peak = cache
    first = stack == peak
    seen = first[0].copy()
    for mask in first[1:]:
        mask &= ~seen
        seen |= mask
    return dy * first, {}


def _conv_forward(stack, fields):
    w = fields["conv_w"]
    return (stack * w).sum(axis=0), (stack, w)


def _conv_backward(cache, dy):
    stack, w = cache
    d_w = _sum_to(stack * dy, w)  # first: one window-sized temporary at a time
    return dy * w, {"conv_w": d_w}


def _gp_forward(stack, fields):
    w = fields["gate_w"]  # g * avg + (1 - g) * max with the gate g = sigmoid(w . x)
    g = sigmoid((stack * w).sum(axis=0))
    peak = stack.max(axis=0)
    mean = stack.mean(axis=0)
    return g * mean + (1.0 - g) * peak, (stack, w, g, mean, peak)


def _gp_backward(cache, dy):
    # dy/dx_i = g/n + (1-g)[i = argmax] + swing w_i, dy/dw_i = swing x_i,
    # swing = g (1-g) (avg - max)
    stack, w, g, mean, peak = cache
    swing = g * (1.0 - g) * (mean - peak)
    d_w = _sum_to(stack * (dy * swing), w)
    d_max, _ = _max_backward((stack, peak), (1.0 - g) * dy)
    return dy * (g / len(stack) + swing * w) + d_max, {"gate_w": d_w}


def _op_forward(stack, fields):
    w = fields["ordinal_w"]  # weights of the ascending window, minimum first
    n = len(stack)
    # stable ascending rank of every entry: tied entries keep window order
    ranks = np.zeros(stack.shape, dtype=np.min_scalar_type(n))
    for j in range(n):
        for k in range(j + 1, n):
            k_first = stack[k] < stack[j]
            ranks[j] += k_first
            ranks[k] += ~k_first
    # each entry's slot weight by its index in w.ravel(): rank * rows + row
    rows = w[0].size
    slots = ranks if rows == 1 else ranks.astype(np.intp) * rows + np.arange(rows).reshape(w.shape[1:])
    # an explicit out keeps the stack's memory order; ranks are in range, so clip never acts
    slot_w = np.take(w.reshape(-1), slots, out=np.empty_like(stack), mode="clip")
    return (stack * slot_w).sum(axis=0), (stack, w, slots, slot_w)


def _op_backward(cache, dy):
    # dy/dx_i is the weight of the slot entry i sorts into; dy/dw_slot is the
    # slot's value, a scatter by slot
    stack, w, slots, slot_w = cache
    d_w = np.bincount(slots.reshape(-1), weights=(stack * dy).reshape(-1), minlength=w.size)
    return slot_w * dy, {"ordinal_w": d_w.reshape(w.shape)}


def _lnp_forward(stack, fields):
    # y = ((1/n) sum |x_i|^p)^(1/p), p = norm_exponent(p_raw), factored by the
    # window's peak |x|, so every ratio r = |x| / peak lies in [0, 1].  Every
    # power is an exp of one of two logs: log r per entry and the log of the
    # window's mean r^p.  Adding a 0/1 mask before each log is exact: a zero
    # entry and an all-zero window log to 0, with no select.  The stack becomes
    # log r in place; only it and two masks are cached.
    p_raw = fields["p_raw"]
    p = norm_exponent(p_raw)
    log_r = stack
    negative = log_r < 0.0
    np.abs(log_r, out=log_r)
    peak = log_r.max(axis=0)
    empty = peak == 0.0
    log_r /= peak + empty
    zero = log_r == 0.0  # also a ratio that underflowed to 0
    log_r += zero
    np.log(log_r, out=log_r)
    powered = np.multiply(log_r, p)
    np.exp(powered, out=powered)
    powered -= zero  # exp(0) - 1: exactly 0 at a zero entry
    total = powered.sum(axis=0)
    log_mean = np.log(total / len(log_r) + empty)
    y = peak * np.exp(log_mean / p)
    # the r^p-weighted mean of log r, with 0 log 0 = 0: dy/dp needs only it
    weighted_log = np.einsum("k...,k...->...", powered, log_r)
    weighted_log /= total + empty
    return y, (p_raw, p, negative, zero, log_r, y, log_mean, weighted_log)


def _lnp_backward(cache, dy):
    p_raw, p, negative, zero, log_r, y, log_mean, weighted_log = cache
    # dy/dx = sign(x) r^(p-1) mean^(1/p - 1) / n; the mask zeroes a zero entry's exp(0),
    # which is the derivative 0 that |x| gets at 0
    d_stack = np.multiply(log_r, p - 1.0)
    np.exp(d_stack, out=d_stack)
    d_stack -= zero
    np.copysign(d_stack, 0.5 - negative, out=d_stack)  # 0.5 - True < 0: sign(x)
    d_stack *= dy * np.exp(log_mean * (1.0 / p - 1.0)) / len(log_r)
    # dy/dp = y (weighted_log / p - log_mean / p^2), 0 for an all-zero window (y = 0),
    # then dp/dp_raw = sigmoid(p_raw); float_power rounds p^2 as C's pow does, for a
    # scalar p and an array alike (** squares an array, which rounds differently)
    d_p = _sum_to(dy * y * (weighted_log / p - log_mean / np.float_power(p, 2.0)), p_raw)
    return d_stack, {"p_raw": d_p * sigmoid(p_raw)}


def _softmax_weights(z):
    """Max-shifted exponentials of stacked logits and their sum over the window."""
    e = np.exp(z - z.max(axis=0))
    return e, e.sum(axis=0)


def _lse_forward(stack, fields):
    # (1/r) log((1/n) sum exp(r x_i)): the maximum as r grows, the average as r
    # shrinks.  Its input gradient is the softmax of r x; the sharpness r is a
    # fixed hyperparameter.  Shifted by the largest r x_i, no exp overflows.
    r = fields["sharpness"]
    z = r * stack
    e, total = _softmax_weights(z)
    return (z.max(axis=0) + np.log(total / len(z))) / r, (e, total)


def _smp_forward(stack, fields):
    # sum_i x_i exp(tau x_i) / sum_j exp(tau x_j): a convex combination of the
    # window for every tau; tau = 0 is the average exactly, tau -> +inf the
    # maximum, tau -> -inf the minimum.  Shifted by the largest tau x_i.
    tau = fields["tau"]
    e, total = _softmax_weights(tau * stack)
    y = (e * stack).sum(axis=0) / total
    return y, (stack, tau, e, total, y)


def _smp_backward(cache, dy):
    # with s = softmax(tau x): dy/dx_i = s_i (1 + tau (x_i - y)), which sums to 1 but
    # may be negative, and dy/dtau = sum_i s_i (x_i - y)^2, the softmax variance
    stack, tau, e, total, y = cache
    s = e / total
    centered = stack - y
    d_stack = dy * s * (1.0 + tau * centered)
    return d_stack, {"tau": _sum_to(dy * (s * centered**2).sum(axis=0), tau)}


# -- the method table ------------------------------------------------------------


class Pooling(NamedTuple):
    """One pooling method: its kernel pair, the parameters its kernel reads
    (``fields``) and its ``trainable`` arrays, and ``init(n, channels, rng,
    se_ratio, lse_sharpness)``, a block's initial parameters: a dict holding
    exactly the names in ``fields`` and ``trainable``.  ``trainable`` is in
    the order the optimizer flattens.  ``se`` is what the squeeze-and-
    excitation branch drives: the temperature field (``"tau"``) or, through a
    sigmoid, a per-channel input scale (``"scale"``).  ``simplex`` names the
    arrays the optimizer re-projects onto the simplex; ``report`` the
    snapshot entries that ``params-report`` summarizes.  A kernel that reads
    only the first ``entries`` entries of each window may get a stack of just
    those."""

    forward: Callable
    backward: Callable
    fields: tuple[str, ...] = ()
    trainable: tuple[str, ...] = ()
    init: Callable = lambda n, c, rng, se_ratio, lse_r: {}
    se: str = ""
    simplex: tuple[str, ...] = ()
    report: tuple[str, ...] = ()
    entries: int | None = None


def _init_se(n, channels, rng, se_ratio, lse_sharpness) -> dict[str, np.ndarray]:
    """He-uniform branch weights with zero biases; the hidden width is channels / se_ratio."""
    if channels % se_ratio != 0:
        raise ConfigurationError(f"se_ratio {se_ratio} must divide channels {channels}")
    hidden = channels // se_ratio
    bound1, bound2 = np.sqrt(6.0 / channels), np.sqrt(6.0 / hidden)
    return {
        "se_f1_weight": rng.uniform(-bound1, bound1, (hidden, channels)),
        "se_f1_bias": np.zeros(hidden),
        "se_f2_weight": rng.uniform(-bound2, bound2, (channels, hidden)),
        "se_f2_bias": np.zeros(channels),
    }


_SE_PARAMS = ("se_f1_weight", "se_f1_bias", "se_f2_weight", "se_f2_bias")

#: every pooling method by name.  Initial state: conv and ordinal weights
#: uniform (exactly average-pooling), gate weights zero (an unbiased
#: average/max blend), the norm exponent p = 3, trainable temperatures standard
#: normal, fixed ones the log(c/C) ladder.  NN propagates the first entry in
#: row-major window order (nearest-neighbor downsampling).
POOLING = {
    "MP": Pooling(_max_forward, _max_backward),
    "AP": Pooling(
        lambda stack, fields: (stack.mean(axis=0), len(stack)),
        lambda n, dy: ([dy / n] * n, {}),  # one array for all n entries
    ),
    "NN": Pooling(
        lambda stack, fields: (stack[0], len(stack)),
        lambda n, dy: (np.concatenate([dy[None], np.zeros((n - 1,) + dy.shape)]), {}),
        entries=1,
    ),
    "CONV": Pooling(
        _conv_forward, _conv_backward, ("conv_w",), ("conv_w",),
        lambda n, c, rng, se_ratio, lse_r: {"conv_w": np.full(n, 1.0 / n)}, report=("conv_w",),
    ),
    "GP": Pooling(
        _gp_forward, _gp_backward, ("gate_w",), ("gate_w",),
        lambda n, c, rng, se_ratio, lse_r: {"gate_w": np.zeros(n)}, report=("gate_w",),
    ),
    "OP": Pooling(
        _op_forward, _op_backward, ("ordinal_w",), ("ordinal_w",),
        lambda n, c, rng, se_ratio, lse_r: {"ordinal_w": np.full(n, 1.0 / n)},
        simplex=("ordinal_w",), report=("ordinal_w",),
    ),
    "LNP": Pooling(
        _lnp_forward, _lnp_backward, ("p_raw",), ("p_raw",),
        lambda n, c, rng, se_ratio, lse_r: {"p_raw": np.array([np.log(np.expm1(2.0))])},
        report=("p",),
    ),
    "LSE": Pooling(
        _lse_forward, lambda cache, dy: (dy * (cache[0] / cache[1]), {}), ("sharpness",),
        init=lambda n, c, rng, se_ratio, lse_r: {"sharpness": lse_r},
    ),
    "SMP_fixed": Pooling(
        _smp_forward, _smp_backward, ("tau",),
        init=lambda n, c, rng, se_ratio, lse_r: {"tau": fixed_temperatures(c)}, report=("tau",),
    ),
    "SMP_trainable": Pooling(
        _smp_forward, _smp_backward, ("tau",), ("tau",),
        lambda n, c, rng, se_ratio, lse_r: {"tau": rng.standard_normal(c)}, report=("tau",),
    ),
    "SESMP": Pooling(_smp_forward, _smp_backward, (), _SE_PARAMS, _init_se, "tau", report=("se_f2_bias",)),
    "SEMP": Pooling(_max_forward, _max_backward, (), _SE_PARAMS, _init_se, "scale"),
}

#: All supported pooling method identifiers.
METHODS = tuple(POOLING)

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


def pooling_row(method: str) -> Pooling:
    """``method``'s row of :data:`POOLING`; an unknown name is a :class:`ConfigurationError`."""
    if method not in POOLING:
        raise ConfigurationError(f"unknown pooling method {method!r}; valid: {', '.join(METHODS)}")
    return POOLING[method]


# -- the parameter and input rules -------------------------------------------------

#: name -> (shape in a pooling block, value rule) of every pooling parameter.  In
#: the shapes "n" is the window size, "C" the channels and "h" the SE hidden width;
#: the window operators take an ("n",) field as (n,) or (m, n) rows and the others
#: as a scalar or an (m, 1) column.  Every value must be finite; "simplex" rows are
#: also nonnegative and sum to 1 (within the FD slack) and "positive" ones are > 0.
#: A trainable array must be of floating dtype, and a dict holds exactly its
#: method's ``fields | trainable``.
FIELD_RULES = {
    "conv_w": (("n",), "finite"),
    "gate_w": (("n",), "finite"),
    "ordinal_w": (("n",), "simplex"),
    "p_raw": ((1,), "finite"),
    "sharpness": ((), "positive"),
    "tau": (("C",), "finite"),
    "se_f1_weight": (("h", "C"), "finite"),
    "se_f1_bias": (("h",), "finite"),
    "se_f2_weight": (("C", "h"), "finite"),
    "se_f2_bias": (("C",), "finite"),
}

#: parameters holding one weight per window entry, shared across channels
ENTRY_WEIGHTS = tuple(name for name, (shape, _) in FIELD_RULES.items() if shape == ("n",))


#: method -> the exact key set of its parameters
_KEYS = {method: set(pooling.fields) | set(pooling.trainable) for method, pooling in POOLING.items()}


def _check_keys(method: str, params) -> None:
    if params.keys() != _KEYS[method]:
        raise ConfigurationError(f"{method} takes parameters {sorted(_KEYS[method])}, got {sorted(params)}")


def check_field(name: str, value: np.ndarray) -> None:
    """``value`` against the value rule of ``name`` in :data:`FIELD_RULES`; a
    simplex is checked per row along the last axis."""
    rule = FIELD_RULES[name][1]
    if rule == "simplex":  # each comparison is false at a non-finite entry
        sums = value.sum(axis=-1)
        if not (value.min() >= -_SIMPLEX_NEG_TOL and np.abs(sums - 1.0).max() <= _SIMPLEX_SUM_TOL):
            raise ParameterError(
                f"{name} must be finite, nonnegative and sum to 1 per row; got min={value.min():.6g}, sums {sums}"
            )
    elif rule == "positive":
        if not ((value > 0.0) & (value < math.inf)).all():
            raise ParameterError(f"{name} must be a positive finite number, got {value}")
    elif np.count_nonzero(np.isfinite(value)) < value.size:  # as .all(), at a third of the cost
        raise ParameterError(f"{name} must be finite")


def check_input(x: np.ndarray, replicas: bool = False) -> None:
    """The one input rule of pooling blocks and window operators: at least one
    entry, and every entry finite (else :class:`DivergedRunError`).  With
    ``replicas`` the leading axis of ``x`` holds a stack's replicas, and the
    error names those with a non-finite entry."""
    if x.size == 0:
        raise ShapeError("pooling input must contain at least one entry")
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < x.size:  # one pass, as .all() at a third of the cost
        rows = tuple(np.flatnonzero(~finite.reshape(len(x), -1).all(axis=1)).tolist()) if replicas else None
        raise DivergedRunError("pooling input contains non-finite values", rows)


def check_pooled(method: str, what: str, *arrays) -> None:
    """A window operator's results: a non-finite entry in any of ``arrays``, such
    as the NaN of a finite input whose product with a parameter overflows,
    raises :class:`DivergedRunError` naming ``method`` and ``what`` it was."""
    for a in arrays:
        a = np.asarray(a)
        if np.count_nonzero(np.isfinite(a)) < a.size:
            raise DivergedRunError(f"{method} gave a non-finite {what}")


@dataclass(frozen=True)
class PoolSpec:
    """A pooling method plus its window geometry and channel count."""

    method: str
    window: WindowSpec
    channels: int

    def __post_init__(self):
        pooling_row(self.method)
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")


def validate_pool_params(spec: PoolSpec, params: dict) -> None:
    """Check ``params`` against :data:`FIELD_RULES` at the exact shapes that the
    method's ``init`` builds: exactly the method's keys, each shaped for the
    spec's n and C, and the SE branch mapping C -> hidden -> C for a hidden
    width that divides C."""
    pooling = POOLING[spec.method]
    _check_keys(spec.method, params)
    c = spec.channels
    hidden = np.shape(params.get("se_f1_weight"))[:1]  # () without an SE branch
    if hidden and (hidden[0] < 1 or c % hidden[0]):
        raise ConfigurationError(f"the SE hidden width {hidden[0]} must divide channels={c}")
    sizes = {"n": spec.window.n, "C": c, "h": hidden[0] if hidden else None}
    for name, value in params.items():
        value = np.asarray(value)
        shape = tuple(sizes.get(d, d) for d in FIELD_RULES[name][0])
        if value.shape != shape:
            raise ShapeError(f"{name} must have shape {shape}, got {value.shape}")
        if value.dtype.kind != "f" and name in pooling.trainable:  # the optimizer updates it in place
            raise ParameterError(f"{name} must be a floating-point array, got {value.dtype}")
        check_field(name, value)


# -- window-level operators ------------------------------------------------------


def _float_or_array(out: np.ndarray) -> float | np.ndarray:
    """A 0-d result as a Python float; anything else unchanged."""
    return float(out) if out.ndim == 0 else out


def window_stack(method: str, x, params, per_window=False):
    """``method``'s kernel arguments for the windows along the last axis of ``x``
    (a scalar is a one-entry window), with ``params`` checked against
    :data:`FIELD_RULES`; the rows of all broadcast over the windows' batch
    shape.  Returns ``(stack, fields, batch)``: the (n, M) stack of the M
    windows, a fresh copy, each entry weight as (n, M) and each other field as
    (M,).  A field without batch axes stays one (n, 1) column or scalar shared
    by every window, unless ``per_window`` asks for its gradient per window.
    Every (n, M) array is the transpose of a C-ordered (M, n) one, the memory
    order of a stack of rows, so a window's result does not depend on which
    other windows share the call.  The SE methods have no window form: their
    branch needs a block.
    """
    if pooling_row(method).se:
        raise ConfigurationError(f"{method} pools through its SE branch, in a PoolingBlock only")
    _check_keys(method, params)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x.reshape(1)
    check_input(x)
    n = x.shape[-1:]
    values, batch = {}, x.shape[:-1]
    for name, value in params.items():
        v = np.asarray(value, dtype=np.float64)
        width = n if name in ENTRY_WEIGHTS else ()
        if width:
            if v.shape[-1:] != n:
                raise ShapeError(f"{name} must be rows of {n[0]} entries, got shape {v.shape}")
        elif v.ndim:
            if v.shape[-1] != 1:  # never cut a vector down to its first entry
                raise ShapeError(f"{name} must be a scalar or an (..., 1) column, got shape {v.shape}")
            v = v[..., 0]
        check_field(name, v)
        values[name] = v
        rows = v.shape[: v.ndim - len(width)]
        if rows and rows != batch:  # np.broadcast_shapes costs about 2 us a call
            try:
                batch = np.broadcast_shapes(batch, rows) if batch else rows
            except ValueError:
                raise ShapeError(f"{name} rows {rows} do not broadcast against windows {batch}") from None

    def window_first(a, width, copy=False):
        if a.ndim == len(width) and not (copy or per_window):
            return a.reshape(width + (1,)) if width else a
        if copy or a.shape != batch + width:
            a, full = np.empty(batch + width), a
            a[...] = full
        return np.ascontiguousarray(a).reshape((-1,) + width).T

    fields = {name: window_first(v, n if name in ENTRY_WEIGHTS else ()) for name, v in values.items()}
    return window_first(x, n, copy=True), fields, batch


def pool(method: str, x, **params) -> float | np.ndarray:
    """``method``'s forward kernel on the windows along the last axis of ``x``,
    with parameters as for :func:`window_stack`; a float for one window.  An
    overflowing product is no warning: a result that is not finite raises
    :class:`DivergedRunError`, and one that stays finite is returned."""
    stack, fields, batch = window_stack(method, x, params)
    with np.errstate(over="ignore", invalid="ignore"):
        y, _ = POOLING[method].forward(stack, fields)
    check_pooled(method, "pooled value", y)
    return _float_or_array(y.reshape(batch))


def max_pool(x) -> float | np.ndarray:
    """Largest window entry."""
    return pool("MP", x)


def avg_pool(x) -> float | np.ndarray:
    """Arithmetic mean of the window."""
    return pool("AP", x)


def nearest_pool(x) -> float | np.ndarray:
    """First window entry, in row-major window order: after a stride-1
    convolution, the output of a strided convolution."""
    return pool("NN", x)


def conv_pool(x, weights) -> float | np.ndarray:
    """Weighted sum of the window entries."""
    return pool("CONV", x, conv_w=weights)


def gated_pool(x, gate_w) -> float | np.ndarray:
    """Gate-blended average and max: g*avg(x) + (1-g)*max(x), g = sigmoid(w.x)."""
    return pool("GP", x, gate_w=gate_w)


def ordinal_pool(x, weights) -> float | np.ndarray:
    """Convex combination of the window's entries sorted in ascending order.

    weights[..., 0] multiplies the minimum and weights[..., -1] the maximum,
    so a one-hot last (first) weight vector reproduces max- (min-) pooling.
    """
    return pool("OP", x, ordinal_w=weights)


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


def learned_norm_pool(x, p_raw) -> float | np.ndarray:
    """Power mean of the absolute window entries: ((1/n) sum |x_i|^p)^(1/p).

    The mean (not the sum) is used, so a constant window is a fixed point.
    The exponent p = 1 + log(1 + exp(p_raw)) stays in (1, inf).  Large
    exponents cannot overflow, and an all-zero window returns 0.
    """
    return pool("LNP", x, p_raw=p_raw)


def lse_pool(x, sharpness) -> float | np.ndarray:
    """Log-sum-exp mean: (1/r) log((1/n) sum exp(r*x_i)) with sharpness r > 0."""
    return pool("LSE", x, sharpness=sharpness)


def smooth_max_pool(x, tau) -> float | np.ndarray:
    """Softmax-weighted average: sum_i x_i * exp(tau*x_i) / sum_j exp(tau*x_j)."""
    return pool("SMP_trainable", x, tau=tau)


def fixed_temperatures(channels: int) -> np.ndarray:
    """Frozen temperature ladder tau_c = log(c / C) for c = 1..C.

    All values are <= 0; the last channel gets tau = 0 and therefore behaves
    exactly like average-pooling.
    """
    if channels < 1:
        raise ConfigurationError(f"channels must be >= 1, got {channels}")
    return np.log(np.arange(1, channels + 1, dtype=np.float64) / channels)
