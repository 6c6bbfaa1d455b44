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

The work is done per block of trials: one forward-kernel call per gradient
evaluates the bumped points (:func:`poolbench.grads.bumped_points`) of every
point of a window block, and the SE candidates of a block are the replicas
of one stacked layer, whose forward and backward give all their gradients.
Each trial still makes its own :func:`~poolbench.grads.fd_check` call per
comparison, with a function that hands back that trial's values and raises
on any other points; the benchmark's traced run counts those calls, at
least one per trial and method.

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
from functools import partial

import numpy as np

from . import grads, layers, ops
from .grads import FDOracleConfig, fd_check
from .tensor import WindowSpec, output_size

__all__ = ["GradCheckResult", "check_method", "run_gradcheck"]

_WINDOW = WindowSpec(2, 2, 2, 2)
_MIN_COORD = 1e-3  # oracle resolution guard; see module docstring
_BLOCK = 128  # candidate points per analytic-gradient call; a larger block holds more memory
_SE_BLOCK = 32  # SE candidates per stacked block
#: the SE branch of gradcheck's block, C = 4 channels and hidden width 2: each array's
#: shape and the bound of its uniform draw, in the order of the trainable arrays
_SE_DRAWS = {
    "se_f1_weight": ((2, 4), 1.0),
    "se_f1_bias": ((2,), 0.5),
    "se_f2_weight": ((4, 2), 1.0),
    "se_f2_bias": ((4,), 0.5),
}
_SE_SIZE = sum(int(np.prod(shape)) for shape, _ in _SE_DRAWS.values())


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


def _precomputed(stack, values, points):
    """``fd_check``'s function over values computed ahead: ``values`` at the bumped
    points ``stack``, all of them for the whole stack and its own for one row.  Any
    other points raise, so a trial cannot read another trial's values."""
    if points.shape == stack.shape and points.tobytes() == stack.tobytes():
        return values
    for row, value in zip(stack, values):
        if points.shape == row.shape and points.tobytes() == row.tobytes():
            return value
    raise grads.OracleError(f"no values were computed at {points}")


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
        args, bundle = _informative_points(method, block)
        count = len(args["x"])
        if not count:
            continue
        # every point's (2k, k) stack of bumped points, one per gradient: of its input, of a
        # weight row, or a scalar's (2, 1) column; the stacks of all points are the rows of
        # one kernel call, with each point's other arguments repeated on its rows
        stacks = {"x": grads.bumped_points(args["x"], input_config.step)}
        for name in bundle.d_params:  # a fixed hyperparameter has none
            stacks[name] = grads.bumped_points(args[name], config.step)
        values = {}
        for name, stack in stacks.items():
            rows = {key: np.repeat(v, stack.shape[1], axis=0) for key, v in args.items()}
            rows[name] = stack.reshape(-1, stack.shape[2])
            values[name] = ops.pool(method, **rows).reshape(count, -1)
        for i in range(count):
            checked += 1
            # each trial's own comparison, of its values at the stacks fd_check builds
            fn = partial(_precomputed, stacks["x"][i], values["x"][i])
            worst = max(worst, fd_check(fn, args["x"][i], bundle.d_input[i], input_config, batched=True))
            for name, d in bundle.d_params.items():
                fn = partial(_precomputed, stacks[name][i], values[name][i])
                worst = max(worst, fd_check(fn, args[name][i], d[i], config, batched=True))
    return worst


def _se_candidates(rng, count, probe_shape):
    """``count`` SE candidates in draw order, each as a row of stacked arrays: the
    input X, the branch arrays, the probe R and the unit direction v.  A candidate
    near a ReLU kink or a window tie is redrawn."""
    xs = np.empty((count, 1, 4, 4, 4))
    params = {name: np.empty((count, *shape)) for name, (shape, _) in _SE_DRAWS.items()}
    probes, vs = np.empty((count, *probe_shape)), np.empty((count, _SE_SIZE))
    i = 0
    while i < count:
        x = rng.uniform(-1.0, 1.0, size=xs.shape[1:])
        draw = {name: rng.uniform(-bound, bound, size=shape) for name, (shape, bound) in _SE_DRAWS.items()}
        # keep the ReLU kink and window ties out of FD range
        hidden_pre = draw["se_f1_weight"] @ x[0].mean(axis=(1, 2)) + draw["se_f1_bias"]
        sorted_win = np.sort(np.stack(layers.window_views(x.transpose(2, 3, 0, 1), _WINDOW)), axis=0)
        if np.abs(hidden_pre).min() <= 1e-3 or (sorted_win[-1] - sorted_win[-2]).min() <= 1e-2:
            continue
        xs[i] = x
        for name, value in draw.items():
            params[name][i] = value
        probes[i] = rng.uniform(-1.0, 1.0, size=probe_shape)
        v = rng.standard_normal(_SE_SIZE)
        vs[i] = v / np.linalg.norm(v)
        i += 1
    return xs, params, probes, vs


def _stacked_se(spec, xs, params, probes, vs, along):
    """The candidates as the replicas of one stacked block: each one's input
    gradient dx and <g, v> for the branch gradient g, from one forward and one
    backward, and its <R, block(X)> at theta + t v for each t of ``along``."""
    block = layers.PoolingBlock(spec, {name: a.copy() for name, a in params.items()}, len(xs))
    block.forward(xs)
    dxs = block.backward(probes)
    arrays = block.params()
    g = [np.concatenate([block.grads()[name][r].reshape(-1) for name in arrays]) for r in range(len(xs))]
    gv = np.array([g_r @ v for g_r, v in zip(g, vs)])
    values = np.empty((len(along), len(xs)))
    for row, t in enumerate(along[:, 0]):
        offset = 0
        for name, arr in arrays.items():
            arr[...] = params[name] + t * vs[:, offset : offset + arr[0].size].reshape(arr.shape)
            offset += arr[0].size
        out = block.forward(xs)
        values[row] = [float((probe * out[r]).sum()) for r, probe in enumerate(probes)]
    return dxs, gv, values


def _check_se_block(method, trials, config, rng):
    """Block-level check of the squeeze-and-excitation pooling stages.

    Probes the scalar <R, block(X)> for a fixed random R against the layer's
    analytic backward.  Every input coordinate is checked in one batched
    forward of the bumped inputs; the branch parameters are checked along one
    random unit direction v, <grad, v> against the central difference of
    t -> f(theta + t v).  The candidates of a block are the replicas of one
    stacked layer: one forward and one backward give all their gradients, and
    two more forwards their values at theta +- h v.
    """
    spec = ops.PoolSpec(method, _WINDOW, 4)
    probe_shape = (1, 4, *output_size(4, 4, _WINDOW))
    single = layers.PoolingBlock(spec, {name: np.zeros(shape) for name, (shape, _) in _SE_DRAWS.items()})
    along = grads.bumped_points(np.zeros(1), config.step)  # t = +h, then t = -h
    worst, checked = 0.0, 0
    while checked < trials:
        xs, params, probes, vs = _se_candidates(rng, min(trials - checked, _SE_BLOCK), probe_shape)
        dxs, gv, at_t = _stacked_se(spec, xs, params, probes, vs, along)
        for r, (x, dx) in enumerate(zip(xs, dxs)):
            dx = dx.reshape(-1)
            # the oracle resolves no |analytic| under _MIN_COORD but exact zeros, so
            # such input coordinates are left out; a cancelled <g, v> redraws the
            # point with v, which also ends the loop at points where g vanishes
            keep = ~((np.abs(dx) > 0.0) & (np.abs(dx) < _MIN_COORD))
            if not (keep.any() and abs(gv[r]) >= _MIN_COORD):
                continue
            checked += 1
            for name, arr in single.pool_params.items():
                arr[...] = params[name][r]
            # the trial's input check: one batched forward of its own bumped inputs
            flat_x = x.reshape(-1)
            stack = grads.bumped_points(flat_x[keep], config.step)
            bumped = np.tile(flat_x, (len(stack), 1))
            bumped[:, keep] = stack
            out = single.forward(bumped.reshape(-1, *x.shape[1:]))
            fn = partial(_precomputed, stack, (probes[r] * out).sum(axis=(1, 2, 3)))
            worst = max(worst, fd_check(fn, flat_x[keep], dx[keep], config, batched=True))
            fn = partial(_precomputed, along, at_t[:, r])
            worst = max(worst, fd_check(fn, np.zeros(1), gv[r : r + 1], config))
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
