"""Gradient verification driver: every pooling method against the FD oracle.

Every check runs the kernel pair that trains (:data:`poolbench.ops.POOLING`).
For the window methods a draw of random (window, parameter) points is the
only per-method entry.  The analytic gradients of a whole block of candidate
points come from one backward-kernel call; the informative points are kept
in draw order, and more are drawn for any shortfall.  Each trial then
compares the input gradient and every parameter gradient coordinate by
coordinate with central differences of the forward kernel, so every trial
makes at least one comparison.  For the squeeze-and-excitation blocks
(SESMP, SEMP) the check runs at block level through the layer, probing a
random linear functional of the block output: every input coordinate
through forwards of stacks of bumped inputs, and the branch parameters
along one random direction.

The work is done per block of trials: one forward-kernel call per gradient
evaluates the bumped points (:func:`poolbench.grads.bumped_points`) of every
point of a window block, and the SE candidates of a block are the replicas
of one stacked layer, whose forwards and backward give all their gradients
and their values at their bumped inputs.  Each trial still makes its own
:func:`~poolbench.grads.fd_check` call per comparison, with that trial's own
values at its bumped points; the benchmark's traced run counts those calls,
at least one per trial and method.  A non-finite analytic gradient makes the
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
from .tensor import WindowSpec, output_size

__all__ = ["GradCheckResult", "check_method", "run_gradcheck"]

_WINDOW = WindowSpec(2, 2, 2, 2)
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
#: each array's slice of a candidate's draws, in the order of _SE_DRAWS
_SE_SLICES = {name: slice(end - size, end) for name, size, end in zip(_SE_DRAWS, _SE_SIZES, accumulate(_SE_SIZES))}
_SE_SIZE = sum(_SE_SIZES[1:])  # the branch parameters
#: a candidate's draws as low + width * u for the u of one rng.random call: the values of
#: an rng.uniform(-bound, bound) call per array, in the order of _SE_DRAWS
_SE_LOW = np.repeat([-bound for _, bound in _SE_DRAWS.values()], _SE_SIZES)
_SE_WIDTH = -2.0 * _SE_LOW


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


def _spread_window(rng, n=4, gap=1e-2, lo=-1.0, hi=1.0):
    while True:
        x = rng.uniform(lo, hi, size=n)
        if np.diff(np.sort(x)).min() > gap:  # the closest pair is adjacent once sorted
            return x


def _interior_simplex(rng, n=4, floor=0.05):
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


_SIGNS = np.array([-1.0, 1.0])


def _away_from_zero(rng, n=4, lo=0.05, hi=1.0):
    # the draws of rng.choice([-1.0, 1.0], size=n), at under half its cost
    return rng.uniform(lo, hi, size=n) * _SIGNS[rng.integers(0, 2, size=n)]


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
    as ``(args, bundle)``: each argument and each gradient holds one row per point,
    ``args["x"]`` the windows, a weight vector as rows and a scalar as a column.

    One kernel call gives every candidate's gradients.
    """
    args = {"x": np.array([x for x, _ in candidates])}
    for name in candidates[0][1]:
        args[name] = np.array([p[name] for _, p in candidates]).reshape(len(candidates), -1)
    bundle = grads.pool_grads(method, **args)
    small = np.zeros(len(candidates), dtype=bool)
    for d in (bundle.d_input, *bundle.d_params.values()):
        d = np.abs(d)
        small |= ((d > 0.0) & (d < _MIN_COORD)).any(axis=1)
    keep = ~small
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
    # the draws do not depend on the gradients, so drawing the shortfall in blocks checks
    # the points that redrawing each trial until it is informative would
    while checked < trials:
        block = [draw(rng, r) for _ in range(min(trials - checked, _BLOCK))]
        try:
            args, bundle = _informative_points(method, block)
        except ops.DivergedRunError:  # a non-finite analytic gradient fails the method
            return math.nan
        count = len(args["x"])
        if not count:
            continue
        # every point's values at its (2k, k) stack of bumped points, one stack per
        # gradient: of its input, of a weight row, or a scalar's (2, 1) column (a fixed
        # hyperparameter has none); the stacks of all points are the rows of one kernel
        # call, with each point's other arguments repeated on its rows
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
    """``count`` SE candidates in draw order, each as a row of stacked arrays: the
    input X, the branch arrays, the probe R and the unit direction v.  A candidate
    near a ReLU kink or a window tie is redrawn."""
    draws = np.empty((count, _SE_LOW.size))
    probes, vs = np.empty((count, *probe_shape)), np.empty((count, _SE_SIZE))
    i = 0
    while i < count:
        draw = _SE_LOW + _SE_WIDTH * rng.random(_SE_LOW.size)
        x = _se_array(draw, "x")
        # keep the ReLU kink and window ties out of FD range; the 2 x 2 windows tile
        # the 4 x 4 input, so each window's entries are a row of the reshaped input
        hidden_pre = _se_array(draw, "se_f1_weight") @ x[0].mean(axis=(1, 2)) + _se_array(draw, "se_f1_bias")
        sorted_win = np.sort(x.reshape(4, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(16, 4), axis=1)
        if np.abs(hidden_pre).min() <= 1e-3 or (sorted_win[:, -1] - sorted_win[:, -2]).min() <= 1e-2:
            continue
        draws[i] = draw
        probes[i] = rng.uniform(-1.0, 1.0, size=probe_shape)
        v = rng.standard_normal(_SE_SIZE)
        vs[i] = v / np.linalg.norm(v)
        i += 1
    params = {name: _se_array(draws, name) for name in _SE_DRAWS}
    return params.pop("x"), params, probes, vs


def _stacked_se(spec, xs, params, probes, vs, step):
    """The candidates as the replicas of one stacked block: each one's input
    gradient dx (a row) and <g, v> for the branch gradient g, from one forward
    and one backward; its <R, block(X)> at theta + h v and theta - h v (a row);
    and its <R, block(X')> at every bumped input X' of its X, in the order of
    :func:`~poolbench.grads.bumped_points` (a row), _SE_CHUNK coordinates a forward."""
    block = layers.PoolingBlock(spec, {name: a.copy() for name, a in params.items()}, len(xs))
    block.forward(xs)
    dxs = block.backward(probes)
    arrays = block.params()
    g = np.concatenate([block.grads()[name].reshape(len(xs), -1) for name in arrays], axis=1)
    gv = np.array([g_r @ v for g_r, v in zip(g, vs)])

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
        offset = 0
        for name, arr in arrays.items():
            arr[...] = params[name] + t * vs[:, offset : offset + arr[0].size].reshape(arr.shape)
            offset += arr[0].size
        at_t[:, col] = probed(xs)[:, 0]
    return dxs.reshape(len(xs), -1), gv, at_t, at_x.reshape(len(xs), -1)


def _check_se_block(method, trials, config, rng):
    """Block-level check of the squeeze-and-excitation pooling stages.

    Probes the scalar <R, block(X)> for a fixed random R against the layer's
    analytic backward.  Every input coordinate is checked through forwards
    of the bumped inputs; the branch parameters are checked along one random
    unit direction v, <grad, v> against the central difference of t ->
    f(theta + t v).  The candidates of a block are the replicas of one
    stacked layer: one forward and one backward give all their gradients,
    and more forwards of the same layer their values at theta +- h v and at
    their bumped inputs.
    """
    spec = ops.PoolSpec(method, _WINDOW, 4)
    probe_shape = (1, 4, *output_size(4, 4, _WINDOW))
    worst, checked = 0.0, 0
    while checked < trials:
        xs, params, probes, vs = _se_candidates(rng, min(trials - checked, _SE_BLOCK), probe_shape)
        dxs, gv, at_t, at_x = _stacked_se(spec, xs, params, probes, vs, config.step)
        # the oracle resolves no |analytic| under _MIN_COORD but exact zeros, so such
        # input coordinates are left out; a cancelled <g, v> redraws the point with v,
        # which also ends the loop at points where g vanishes.  A NaN is kept: it fails.
        keep = ~((np.abs(dxs) > 0.0) & (np.abs(dxs) < _MIN_COORD))
        for r in np.flatnonzero(keep.any(axis=1) & ~(np.abs(gv) < _MIN_COORD)):
            checked += 1
            # each trial takes the rows of its kept coordinates, +h then -h
            worst = _worse(worst, fd_check(at_x[r][np.tile(keep[r], 2)], dxs[r][keep[r]], config))
            worst = _worse(worst, fd_check(at_t[r], gv[r : r + 1], config))
    return worst


def check_method(
    method: str,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> GradCheckResult:
    """Worst relative FD error for one method over `trials` random points."""
    if trials < 1:  # no trial, no comparison: a worst error of 0 would pass vacuously
        raise ValueError(f"trials must be at least 1, got {trials}")
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
