"""Gradient verification driver: every pooling method against the FD oracle.

Every check runs the kernel pair that trains (:data:`poolbench.ops.POOLING`).
A window method's only per-method entry is its draw of random (window,
parameter) points.  It draws a block of candidates as arrays, a row per
point, with the values and the generator stream of drawing them one at a
time: one ``rng.random`` call for uniform draws (MP's windows one call a
round, for the rows still missing), and each point's own calls where
``integers`` or ``dirichlet`` calls interleave.  One backward-kernel call
gives the block's analytic gradients; the informative points are kept in
draw order, and more are drawn for any shortfall.  Each trial compares the
input gradient and every parameter gradient coordinate by coordinate with
central differences of the forward kernel, whose one call per gradient
evaluates the bumped points (:func:`poolbench.grads.bumped_points`) of every
point of the block.  The squeeze-and-excitation blocks (SESMP, SEMP) are
checked at block level, probing a random linear functional of the output:
every input coordinate through forwards of bumped inputs, and the branch
parameters along one random direction; a block's candidates are the
replicas of one stacked layer.  Each trial makes its own
:func:`~poolbench.grads.fd_check` call per comparison, with its own values;
the benchmark's traced run counts them, at least one per trial and method.
A non-finite analytic gradient makes the method's worst error NaN, and the
method fails.

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
from functools import partial
from itertools import accumulate
from operator import methodcaller, sub

import numpy as np

from . import grads, layers, ops
from .grads import FDOracleConfig, fd_check
from .tensor import output_size, window_view

__all__ = ["GradCheckResult", "check_method", "run_gradcheck"]

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
#: a candidate's draws, each array's slice of them in the order of _SE_DRAWS, as low + width * u
#: for the u of one rng.random call: the values of an rng.uniform(-bound, bound) call per array
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


def _uniform(u, lo, hi):
    """rng.uniform(lo, hi)'s own arithmetic on the u of rng.random."""
    return lo + (hi - lo) * u


def _rows(rng, lse_r, count, **calls):
    # count rounds of the calls, as a row per round of each argument: draws one rng.random call cannot replay
    rounds = [[call(rng) for call in calls.values()] for _ in range(count)]
    return {name: np.array(col).reshape(count, -1) for name, col in zip(calls, zip(*rounds))}


def _spread_windows(rng, count, n=4, gap=1e-2):
    # count windows of _spread_window as rows; each round draws only the rows still missing
    x = np.empty((0, n))
    while len(x) < count:
        u = _uniform(rng.random((count - len(x), n)), -1.0, 1.0)
        x = np.concatenate([x, u[np.diff(np.sort(u)).min(axis=1) > gap]])  # adjacent once sorted
    return x


def _spread_window(rng, n=4, gap=1e-2, floor=0.0):
    # n rng.uniform(-1, 1) draws, redrawn until pairs are over gap apart and |entries| at least floor
    while True:
        s = sorted((x := rng.uniform(-1.0, 1.0, size=n)).tolist())  # Python floats: cheaper than numpy on 4
        if min(map(sub, s[1:], s)) > gap and min(map(abs, s)) >= floor:  # the closest pair is adjacent once sorted
            return x


def _interior_simplex(rng, n=4, floor=0.05):
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


_SIGNS = np.array([-1.0, 1.0])


def _away_from_zero(rng, n=4, lo=0.05, hi=1.0):
    # the draws of rng.choice([-1.0, 1.0], size=n), at under half its cost
    return rng.uniform(lo, hi, size=n) * _SIGNS[rng.integers(0, 2, size=n)]


def _unit_windows(rng, r, count):  # AP's and NN's windows
    return {"x": _uniform(rng.random((count, 4)), -1.0, 1.0)}


def _smp_draws(rng, r, count):
    u = rng.random((count, 5))
    return {"x": _uniform(u[:, :4], -2.0, 2.0), "tau": _uniform(u[:, 4:], -3.0, 3.0)}


#: method -> draw(rng, lse_r, count) -> the arguments of its next ``count`` candidate points, those
#: of drawing one at a time: a window per row of ``x``, a weight row or scalar column per field
_DRAWS = {
    "MP": lambda rng, r, count: {"x": _spread_windows(rng, count)},
    "AP": _unit_windows,
    "NN": _unit_windows,
    "CONV": partial(_rows, x=_away_from_zero, conv_w=_away_from_zero),
    "GP": partial(_rows, x=partial(_spread_window, floor=0.05), gate_w=_away_from_zero),  # gate inputs off zero
    "OP": partial(_rows, x=_spread_window, ordinal_w=_interior_simplex),
    "LNP": partial(_rows, x=partial(_away_from_zero, lo=0.1, hi=1.5), p_raw=methodcaller("uniform", -1.0, 2.0)),
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
    # the draws do not depend on the gradients, so drawing the shortfall in blocks checks
    # the points that redrawing each trial until it is informative would
    while checked < trials:
        try:
            args, bundle = _informative_points(method, draw(rng, r, min(trials - checked, _BLOCK)))
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
    """``count`` SE candidates in draw order, each a row of stacked arrays: its draws
    (input X and branch arrays, see :data:`_SE_DRAWS`), probe R and unit direction
    v.  A candidate near a ReLU kink or a window tie is redrawn."""
    draws = np.empty((count, _SE_LOW.size))
    probes, vs = np.empty((count, *probe_shape)), np.empty((count, _SE_SIZE))
    i = 0
    while i < count:
        draw = draws[i] = _SE_LOW + _SE_WIDTH * rng.random(_SE_LOW.size)  # a redraw overwrites it
        x = _se_array(draw, "x")[0]
        # keep the ReLU kink and window ties out of FD range, tested on Python floats;
        # np.add.reduce then / 16 is x.mean's own arithmetic
        hidden_pre = _se_array(draw, "se_f1_weight") @ (np.add.reduce(x, axis=(1, 2)) / 16)
        if min(map(abs, (hidden_pre + _se_array(draw, "se_f1_bias")).tolist())) <= 1e-3:
            continue
        # each window is a column of its (C, H, W) input's window view, entries sorted
        windows = np.sort(window_view(x, layers.POOL_WINDOW, 1).reshape(4, -1), axis=0)
        if min((windows[3] - windows[2]).tolist()) <= 1e-2:
            continue
        rng.random(out=probes[i])
        v = rng.standard_normal(_SE_SIZE)
        vs[i] = v / math.sqrt(v.dot(v))  # np.linalg.norm's own arithmetic
        i += 1
    return draws, _uniform(probes, -1.0, 1.0), vs


def _stacked_se(spec, draws, probes, vs, step):
    """The candidates as the replicas of one stacked block: each one's input
    gradient dx (a row) and <g, v> for the branch gradient g, from one forward
    and one backward; its <R, block(X)> at theta + h v and theta - h v (a row);
    and its <R, block(X')> at every bumped input X' of its X, in the order of
    :func:`~poolbench.grads.bumped_points` (a row), _SE_CHUNK coordinates a forward."""
    theta, g = draws.copy(), np.zeros_like(draws)  # the block's arrays and gradients, laid out as the draws
    arrays = {name: _se_array(theta, name) for name in _SE_DRAWS}
    xs = arrays.pop("x")
    block = layers.PoolingBlock(spec, arrays, len(xs))
    block.bind(arrays, {name: _se_array(g, name) for name in arrays})
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
        dxs, gv, at_t, at_x = _stacked_se(spec, draws, probes, vs, config.step)
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
