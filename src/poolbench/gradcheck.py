"""Gradient verification driver: every pooling method against the FD oracle.

Every check runs the kernel pair that trains (:data:`poolbench.ops.POOLING`).
For the window methods a draw of random (window, parameter) points is the
only per-method entry.  The analytic gradients of a whole block of candidate
points come from one backward-kernel call; the informative points are kept
in draw order, and more are drawn for any shortfall.  Each trial then
compares the input gradient and every parameter gradient coordinate by
coordinate with central differences of the forward kernel, so every trial
makes at least one comparison.  For the squeeze-and-excitation blocks
(SESMP, SEMP) the check runs at block level through the batched layer,
probing a random linear functional of the block output: every input
coordinate in one batched forward, and the branch parameters along one
random direction.

Sampling keeps points where the comparison is informative:

* away from non-differentiable sets -- ties for MP/GP/OP/SEMP, zero entries
  for LNP, ReLU kinks inside the SE branch;
* away from derivative zero crossings: a central difference of an O(1)
  function at step 1e-5 resolves absolute magnitudes down to ~1e-9, so a
  point is redrawn when any checked coordinate is smaller than 1e-3 unless
  it is exactly zero by structure (one-hot and ReLU-off coordinates, which
  the oracle reproduces exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import grads, layers, ops
from .grads import FDOracleConfig, fd_check
from .tensor import WindowSpec, output_size

__all__ = ["GradCheckResult", "check_method", "run_gradcheck"]

_WINDOW = WindowSpec(2, 2, 2, 2)
_MIN_COORD = 1e-3  # oracle resolution guard; see module docstring
_BLOCK = 128  # candidate points per analytic-gradient call; a larger block holds more memory


@dataclass(frozen=True)
class GradCheckResult:
    """Worst relative FD error observed for one method."""

    method: str
    trials: int
    worst_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_error < self.tolerance


def _spread_window(rng, n=4, gap=1e-2, lo=-1.0, hi=1.0):
    while True:
        x = rng.uniform(lo, hi, size=n)
        if np.diff(np.sort(x)).min() > gap:  # the closest pair is adjacent once sorted
            return x


def _interior_simplex(rng, n=4, floor=0.05):
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


def _away_from_zero(rng, n=4, lo=0.05, hi=1.0):
    return rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)


def _gp_draw(rng, lse_r):
    x = _spread_window(rng)
    while np.abs(x).min() < 0.05:  # keep the gate's inputs off zero
        x = _spread_window(rng)
    return x, {"gate_w": _away_from_zero(rng)}


def _smp_draw(rng, lse_r):
    return rng.uniform(-2.0, 2.0, size=4), {"tau": rng.uniform(-3.0, 3.0)}


#: method -> draw(rng, lse_r) -> (window, {field: value}): one candidate point of each
#: window method, a weight per window entry as a vector and any other field as a float
_DRAWS = {
    "MP": lambda rng, r: (_spread_window(rng), {}),
    "AP": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4), {}),
    "NN": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4), {}),
    "CONV": lambda rng, r: (_away_from_zero(rng), {"conv_w": _away_from_zero(rng)}),
    "GP": _gp_draw,
    "OP": lambda rng, r: (_spread_window(rng), {"ordinal_w": _interior_simplex(rng)}),
    "LNP": lambda rng, r: (_away_from_zero(rng, lo=0.1, hi=1.5), {"p_raw": rng.uniform(-1.0, 2.0)}),
    # x = u / r keeps r*x, and so the softmax gradient, at the same spread for every r
    "LSE": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4) / r, {"sharpness": r}),
    "SMP_fixed": _smp_draw,
    "SMP_trainable": _smp_draw,
}


def _informative_points(method, candidates):
    """The candidates whose analytic gradients the oracle resolves, in draw order,
    each as (window, params, GradBundle).

    One kernel call gives every candidate's gradients: the windows are the rows
    of a stack, with one parameter row per window (a column for a scalar).
    """
    params = {}
    for name in candidates[0][1]:
        values = np.array([p[name] for _, p in candidates])
        params[name] = values if values.ndim == 2 else values[:, None]
    bundle = grads.pool_grads(method, np.array([x for x, _ in candidates]), **params)
    small = np.zeros(len(candidates), dtype=bool)
    for d in (bundle.d_input, *bundle.d_params.values()):
        d = np.abs(d)
        small |= ((d > 0.0) & (d < _MIN_COORD)).any(axis=1)
    for i in np.flatnonzero(~small):
        x, p = candidates[i]
        yield x, p, grads.GradBundle(bundle.d_input[i], {k: d[i] for k, d in bundle.d_params.items()})


def _check_window_method(method, trials, config, rng, lse_sharpness):
    draw, r = _DRAWS[method], float(lse_sharpness)
    worst, checked = 0.0, 0
    # the draws do not depend on the gradients, so drawing the shortfall in blocks checks
    # the points that redrawing each trial until it is informative would
    while checked < trials:
        block = [draw(rng, r) for _ in range(min(trials - checked, _BLOCK))]
        for x, params, bundle in _informative_points(method, block):
            checked += 1
            # LSE draws x = u / r with u of the same spread at every r; a step of h / r in x
            # is the oracle's step h in u, and the gradient is compared unscaled, so the
            # relative-error floor stays far below it (at r = 1 the step is the oracle's own)
            input_config = config
            if "sharpness" in params:
                input_config = replace(config, step=config.step / params["sharpness"])
            # each check evaluates its whole (2k, k) stack of bumped points in one call: a
            # stack of windows for the input, of weight rows for a vector parameter, an
            # (m, 1) column for a scalar one
            worst = max(
                worst,
                fd_check(lambda v: ops.pool(method, v, **params), x, bundle.d_input, input_config, batched=True),
            )
            for name, analytic in bundle.d_params.items():  # a fixed hyperparameter has none
                point = np.atleast_1d(params[name])
                fn = lambda v: ops.pool(method, x, **{**params, name: v})  # noqa: E731
                worst = max(worst, fd_check(fn, point, analytic, config, batched=True))
    return worst


def _check_se_block(method, trials, config, rng):
    """Block-level check of the squeeze-and-excitation pooling stages.

    Probes the scalar <R, block(X)> for a fixed random R against the layer's
    analytic backward.  Every input coordinate is checked in one batched
    forward of the bumped inputs; the branch parameters are checked along one
    random unit direction v, <grad, v> against the central difference of
    t -> f(theta + t v).
    """
    channels, hidden, size = 4, 2, 4
    worst = 0.0
    spec = ops.PoolSpec(method, _WINDOW, channels)
    probe_shape = (1, channels, *output_size(size, size, _WINDOW))
    for _ in range(trials):
        while True:
            x = rng.uniform(-1.0, 1.0, size=(1, channels, size, size))
            params = {
                "se_f1_weight": rng.uniform(-1.0, 1.0, size=(hidden, channels)),
                "se_f1_bias": rng.uniform(-0.5, 0.5, size=hidden),
                "se_f2_weight": rng.uniform(-1.0, 1.0, size=(channels, hidden)),
                "se_f2_bias": rng.uniform(-0.5, 0.5, size=channels),
            }
            # keep the ReLU kink and window ties out of FD range
            hidden_pre = params["se_f1_weight"] @ x[0].mean(axis=(1, 2)) + params["se_f1_bias"]
            sorted_win = np.sort(np.stack(layers.window_views(x.transpose(2, 3, 0, 1), _WINDOW)), axis=0)
            if np.abs(hidden_pre).min() <= 1e-3 or (sorted_win[-1] - sorted_win[-2]).min() <= 1e-2:
                continue
            block = layers.PoolingBlock(spec, params)
            probe = rng.uniform(-1.0, 1.0, size=probe_shape)
            block.forward(x)
            dx = block.backward(probe).reshape(-1)
            arrays = block.params()
            g = np.concatenate([block.grads()[name].reshape(-1) for name in arrays])
            v = rng.standard_normal(g.size)
            v /= np.linalg.norm(v)
            # the oracle resolves no |analytic| under _MIN_COORD but exact zeros, so
            # such input coordinates are left out; a cancelled <g, v> redraws the
            # point with v, which also ends the loop at points where g vanishes
            keep = ~((np.abs(dx) > 0.0) & (np.abs(dx) < _MIN_COORD))
            if keep.any() and abs(g @ v) >= _MIN_COORD:
                break
        theta = {name: arr.copy() for name, arr in arrays.items()}
        flat_x = x.reshape(-1)

        def at_inputs(stack):
            bumped = np.tile(flat_x, (len(stack), 1))
            bumped[:, keep] = stack
            out = block.forward(bumped.reshape(-1, *x.shape[1:]))
            return (probe * out).sum(axis=(1, 2, 3))

        def along_v(t):
            offset = 0
            for name, arr in arrays.items():
                arr[...] = theta[name] + t[0] * v[offset : offset + arr.size].reshape(arr.shape)
                offset += arr.size
            return float((probe * block.forward(x)).sum())

        worst = max(worst, fd_check(at_inputs, flat_x[keep], dx[keep], config, batched=True))
        worst = max(worst, fd_check(along_v, np.zeros(1), np.array([g @ v]), config))
    return worst


def check_method(
    method: str,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> GradCheckResult:
    """Worst relative FD error for one method over `trials` random points."""
    rng = np.random.default_rng(seed)
    config = FDOracleConfig(tolerance=tolerance)
    if ops.pooling_row(method).se:
        worst = _check_se_block(method, trials, config, rng)
    else:
        worst = _check_window_method(method, trials, config, rng, lse_sharpness)
    return GradCheckResult(method, trials, worst, tolerance)


def run_gradcheck(
    methods=ops.METHODS,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> list[GradCheckResult]:
    """Check every requested method; one result row per method."""
    return [
        check_method(m, trials=trials, tolerance=tolerance, seed=seed + i, lse_sharpness=lse_sharpness)
        for i, m in enumerate(methods)
    ]
