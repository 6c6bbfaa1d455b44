"""Gradient verification driver: every pooling method against the FD oracle.

Every check runs the kernel pair that trains (:data:`poolbench.ops.POOLING`).
A window method's only per-method entry is its draw of random (window,
parameter) points.  It draws a block of candidates as arrays, a row per
point, with one generator call per array (``rng.uniform``, ``rng.choice``,
``rng.dirichlet``); a draw rule, such as the spread of a window's entries,
is a mask on those rows, so a block can hold fewer points than it drew.
One backward-kernel call gives the block's analytic gradients; the
informative points are kept in draw order, and more are drawn for any
shortfall.  Each trial compares the input gradient and every parameter
gradient coordinate by coordinate with central differences of the forward
kernel, whose one call per gradient evaluates the bumped points
(:func:`poolbench.grads.bumped_points`) of every point of the block.  The
squeeze-and-excitation blocks (SESMP, SEMP) are checked at block level,
probing a random linear functional of the output: every input coordinate
through forwards of bumped inputs, and the branch parameters along one
random direction.  Their candidates are drawn the same way, one call per
input, branch array, probe and direction, less those near a ReLU kink or a
window tie, and a block's candidates are the replicas of one stacked layer.
Each trial makes its own :func:`~poolbench.grads.fd_check` call per
comparison, with its own values; the benchmark's traced run counts them, at
least one per trial and method.  A non-finite analytic gradient makes the
method's worst error NaN, and the method fails.

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

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from . import grads, layers, ops
from .grads import FDOracleConfig, fd_check
from .ops import ParameterError, check_field
from .tensor import output_size, window_view

__all__ = ["GradCheckResult", "check_method", "check_settings", "run_gradcheck"]

_MIN_COORD = 1e-3  # oracle resolution guard; see module docstring
_BLOCK = 128  # candidate points per analytic-gradient call; a larger block holds more memory
_SE_BLOCK = 32  # SE candidates per stacked block
_SE_CHUNK = 4  # input coordinates per forward of a block's bumped inputs; more hold more memory
#: one SE candidate of gradcheck's block, C = 4 channels and hidden width 2: its input X and
#: the branch's trainable arrays, each array's shape and the bound of its uniform draw
_SE_DRAWS = {
    "x": ((1, 4, 4, 4), 1.0),
    "se_f1_weight": ((2, 4), 1.0),
    "se_f1_bias": ((2,), 0.5),
    "se_f2_weight": ((4, 2), 1.0),
    "se_f2_bias": ((4,), 0.5),
}
_SE_SIZES = [math.prod(shape) for shape, _ in _SE_DRAWS.values()]
_SE_SLICES = {name: slice(end - size, end) for name, size, end in zip(_SE_DRAWS, _SE_SIZES, accumulate(_SE_SIZES))}
_SE_SIZE = sum(_SE_SIZES[1:])  # the branch parameters


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


def _worse(worst, error):
    """The larger of two errors; a NaN, a comparison that failed, outranks every number."""
    return error if error > worst or error != error else worst


def _spread_windows(rng, count, gap=1e-2, floor=0.0):
    """``count`` windows of rng.uniform(-1, 1) entries, less those with two entries
    ``gap`` or less apart or an entry under ``floor`` from zero, as rows."""
    x = rng.uniform(-1.0, 1.0, (count, 4))
    # the closest pair is adjacent once sorted
    return x[(np.diff(np.sort(x)).min(axis=1) > gap) & (np.abs(x).min(axis=1) >= floor)]


def _away_from_zero(rng, count, lo=0.05, hi=1.0):
    """``count`` rows of 4 magnitudes in [lo, hi), each of either sign."""
    return rng.uniform(lo, hi, (count, 4)) * rng.choice([-1.0, 1.0], (count, 4))


def _unit_windows(rng, r, count):  # AP's and NN's windows
    return {"x": rng.uniform(-1.0, 1.0, (count, 4))}


def _gp_draws(rng, r, count):
    x = _spread_windows(rng, count, floor=0.05)  # gate inputs off zero
    return {"x": x, "gate_w": _away_from_zero(rng, len(x))}


def _op_draws(rng, r, count):
    x = _spread_windows(rng, count)
    # the simplex's interior: every weight in [0.05, 0.85]
    return {"x": x, "ordinal_w": 0.8 * rng.dirichlet(np.full(4, 2.0), len(x)) + 0.05}


def _smp_draws(rng, r, count):
    return {"x": rng.uniform(-2.0, 2.0, (count, 4)), "tau": rng.uniform(-3.0, 3.0, (count, 1))}


#: method -> draw(rng, lse_r, count) -> the arguments of at most ``count`` candidate points:
#: a window per row of ``x``, a weight row or scalar column per field
_DRAWS = {
    "MP": lambda rng, r, count: {"x": _spread_windows(rng, count)},
    "AP": _unit_windows,
    "NN": _unit_windows,
    "CONV": lambda rng, r, count: {"x": _away_from_zero(rng, count), "conv_w": _away_from_zero(rng, count)},
    "GP": _gp_draws,
    "OP": _op_draws,
    "LNP": lambda rng, r, count: {
        "x": _away_from_zero(rng, count, lo=0.1, hi=1.5), "p_raw": rng.uniform(-1.0, 2.0, (count, 1))
    },
    # x = u / r keeps r*x, and so the softmax gradient, at the same spread for every r
    "LSE": lambda rng, r, count: {"x": _unit_windows(rng, r, count)["x"] / r, "sharpness": np.full((count, 1), r)},
    "SMP_fixed": _smp_draws,
    "SMP_trainable": _smp_draws,
}


def _informative_points(method, args):
    """The candidates of ``args`` (a row per point) whose analytic gradients the oracle
    resolves, in draw order, as ``(args, bundle)``, from one kernel call for all."""
    bundle = grads.pool_grads(method, **args)
    mag = np.abs(np.concatenate([bundle.d_input, *bundle.d_params.values()], axis=1))
    keep = ~((mag > 0.0) & (mag < _MIN_COORD)).any(axis=1)
    return {k: v[keep] for k, v in args.items()}, grads.GradBundle(
        bundle.d_input[keep], {k: d[keep] for k, d in bundle.d_params.items()}
    )


def _check_window_method(method, trials, config, rng, lse_sharpness):
    draw, r = _DRAWS[method], float(lse_sharpness)
    # LSE draws x = u / r with u of the same spread at every r; a step of h / r in x is the
    # oracle's step h in u, and the gradient is compared unscaled, so the relative-error
    # floor stays far below it (at r = 1 the step is the oracle's own)
    input_config = replace(config, step=config.step / r) if "sharpness" in ops.POOLING[method].fields else config
    worst, checked = 0.0, 0
    # a block keeps only the points its draw rules and the oracle pass; the next draws the shortfall
    while checked < trials:
        args = draw(rng, r, min(trials - checked, _BLOCK))
        if not len(args["x"]):  # every window drawn broke a draw rule
            continue
        try:
            args, bundle = _informative_points(method, args)
        except ops.DivergedRunError:  # a non-finite analytic gradient fails the method
            return math.nan
        count = len(args["x"])
        if not count:
            continue
        # every point's values at its (2k, k) stack of bumped points per gradient (of its
        # input, a weight row or a scalar's (2, 1) column; a fixed hyperparameter has none):
        # all points' stacks are the rows of one kernel call, other arguments repeated
        values = {}
        for name in ("x", *bundle.d_params):
            stack = grads.bumped_points(args[name], (input_config if name == "x" else config).step)
            rows = {key: np.repeat(v, stack.shape[1], axis=0) for key, v in args.items()}
            rows[name] = stack.reshape(-1, stack.shape[2])
            values[name] = ops.pool(method, **rows).reshape(count, -1)
        for i in range(count):
            checked += 1
            # one call per comparison, of the trial's own values: the traced benchmark counts them
            worst = _worse(worst, fd_check(values["x"][i], bundle.d_input[i], input_config))
            for name, d in bundle.d_params.items():
                worst = _worse(worst, fd_check(values[name][i], d[i], config))
    return worst


def _se_array(draws, name) -> np.ndarray:
    """Array ``name`` of :data:`_SE_DRAWS`, from the candidates' draws along the last axis."""
    return draws[..., _SE_SLICES[name]].reshape(draws.shape[:-1] + _SE_DRAWS[name][0])


def _se_candidates(rng, count, probe_shape):
    """At most ``count`` SE candidates in draw order, each a row of stacked arrays: its
    draws (input X and branch arrays, see :data:`_SE_DRAWS`, laid out flat), probe R
    and unit direction v, each array one call for all rows.  Candidates near a ReLU
    kink or a window tie are left out."""
    arrays = {name: rng.uniform(-bound, bound, (count, *shape)) for name, (shape, bound) in _SE_DRAWS.items()}
    probes = rng.uniform(-1.0, 1.0, (count, *probe_shape))
    vs = rng.standard_normal((count, _SE_SIZE))
    vs /= np.linalg.norm(vs, axis=1, keepdims=True)
    x = arrays["x"][:, 0]  # (count, C, H, W)
    # keep the ReLU kink and window ties out of FD range; each window is a column
    # of the window view, entries sorted
    hidden_pre = (arrays["se_f1_weight"] @ x.mean(axis=(2, 3))[..., None])[..., 0] + arrays["se_f1_bias"]
    windows = np.sort(window_view(x, layers.POOL_WINDOW, 2).reshape(4, count, -1), axis=0)
    keep = (np.abs(hidden_pre).min(axis=1) > 1e-3) & ((windows[3] - windows[2]).min(axis=1) > 1e-2)
    draws = np.concatenate([a.reshape(count, -1) for a in arrays.values()], axis=1)
    return draws[keep], probes[keep], vs[keep]


def _stacked_se(spec, draws, probes, vs, step):
    """The candidates as the replicas of one stacked block: each one's input
    gradient dx (a row) and <g, v> for the branch gradient g, from one forward
    and one backward; its <R, block(X)> at theta + h v and theta - h v (a row);
    and its <R, block(X')> at every bumped input X' of its X, in the order of
    :func:`~poolbench.grads.bumped_points` (a row), _SE_CHUNK coordinates a forward."""
    theta, g = draws.copy(), np.zeros_like(draws)  # the block's arrays and gradients, laid out as the draws
    arrays = {name: _se_array(theta, name) for name in _SE_DRAWS}
    xs = arrays.pop("x")
    block = layers.PoolingBlock(spec, arrays, {name: _se_array(g, name) for name in arrays}, len(xs))
    block.forward(xs)
    dxs = block.backward(probes)
    gv = np.array([g_r @ v for g_r, v in zip(g[:, -_SE_SIZE:], vs)])

    def probed(x):  # every replica's <R, block(X)>, a column per input of x
        return (probes * block.forward(x)).sum(axis=(2, 3, 4))

    flat = xs.reshape(len(xs), -1)  # the bumped inputs go first, while the arrays hold theta
    at_x = np.empty((len(xs), 2, flat.shape[1]))
    for start in range(0, flat.shape[1], _SE_CHUNK):
        cut = slice(start, start + _SE_CHUNK)
        rows = grads.bumped_points(flat[:, cut], step)  # (S, 2k, k): +h rows, then -h rows
        bumped = np.repeat(flat[:, None], len(rows[0]), axis=1)
        bumped[:, :, cut] = rows
        at_x[:, :, cut] = probed(bumped.reshape(len(xs), -1, *xs.shape[2:])).reshape(len(xs), 2, -1)
    at_t = np.empty((len(xs), 2))
    for col, t in enumerate((step, -step)):
        theta[:, -_SE_SIZE:] = draws[:, -_SE_SIZE:] + t * vs
        at_t[:, col] = probed(xs)[:, 0]
    return dxs.reshape(len(xs), -1), gv, at_t, at_x.reshape(len(xs), -1)


def _check_se_block(method, trials, config, rng):
    """Block-level check of the squeeze-and-excitation pooling stages: the scalar
    <R, block(X)> for a fixed random R against the layer's analytic backward, at
    every input coordinate and, along one random unit direction v, <grad, v>
    against the central difference of t -> f(theta + t v) (see :func:`_stacked_se`)."""
    spec = ops.PoolSpec(method, layers.POOL_WINDOW, 4)
    probe_shape = (1, 4, *output_size(4, 4, spec.window))
    worst, checked = 0.0, 0
    while checked < trials:
        draws, probes, vs = _se_candidates(rng, min(trials - checked, _SE_BLOCK), probe_shape)
        if not len(draws):
            continue
        dxs, gv, at_t, at_x = _stacked_se(spec, draws, probes, vs, config.step)
        # the oracle resolves no |analytic| under _MIN_COORD but exact zeros, so such
        # input coordinates are left out, and so is a point whose <g, v> cancels.  A NaN
        # is kept: it fails.
        keep = ~((np.abs(dxs) > 0.0) & (np.abs(dxs) < _MIN_COORD))
        for r in np.flatnonzero(keep.any(axis=1) & ~(np.abs(gv) < _MIN_COORD)):
            checked += 1
            # each trial takes the rows of its kept coordinates, +h then -h
            worst = _worse(worst, fd_check(at_x[r][np.tile(keep[r], 2)], dxs[r][keep[r]], config))
            worst = _worse(worst, fd_check(at_t[r], gv[r : r + 1], config))
    return worst


def check_settings(trials: int, tolerance: float, lse_sharpness: float) -> FDOracleConfig:
    """The oracle config of a check of ``trials`` points at ``tolerance``; a
    ``ValueError`` unless the check can fail: at least one trial, an oracle
    tolerance (:class:`~poolbench.grads.FDOracleConfig`), and an LSE sharpness r
    that is positive and finite, with LSE's windows u / r (|u| <= 1) finite at
    their bumped points, a step h / r away."""
    if trials < 1:  # no trial, no comparison: a worst error of 0 would pass vacuously
        raise ValueError(f"trials must be >= 1, got {trials}")
    config = FDOracleConfig(tolerance=tolerance)
    check_field("sharpness", np.asarray(lse_sharpness))
    if not math.isfinite((1.0 + config.step) / float(lse_sharpness)):  # else NaN values, no comparison
        raise ParameterError(
            f"gradcheck draws LSE's windows as u / r, bumped by {config.step} / r: "
            f"(1 + {config.step}) / r must be finite, got r = {lse_sharpness}"
        )
    return config


def check_method(
    method: str,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> GradCheckResult:
    """Worst relative FD error for one method over `trials` random points."""
    config = check_settings(trials, tolerance, lse_sharpness)
    rng = np.random.default_rng(seed)
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
