"""Test-only reference: gradcheck's trials one at a time.

``poolbench.gradcheck`` evaluates the bumped points of a block of trials
together and hands each trial's ``fd_check`` call its share of the values.
The loops here do the same checks the plain way: each ``fd_check`` call gets
the values of its own bumped stack, from one ``ops.pool`` call per gradient
for a window method and from the trial's own ``PoolingBlock`` for an SE
method.  They draw the same points from the same generator, one candidate
at a time through a frozen copy of the draws gradcheck made before it drew
whole blocks (``DRAWS``), so the ``fd_check`` calls here get the same
arguments, in the same order, as ``check_method``'s, and :func:`worst_error`
must equal ``check_method(...).worst_error`` bit for bit.
"""

from dataclasses import replace

import numpy as np

from poolbench import gradcheck, grads, layers, ops
from poolbench.grads import FDOracleConfig, fd_check
from poolbench.tensor import output_size

from helpers import values_at, with_zero_grads
from window_reference import window_entries


def spread_window(rng, n=4, gap=1e-2, lo=-1.0, hi=1.0):
    while True:
        x = rng.uniform(lo, hi, size=n)
        if np.diff(np.sort(x)).min() > gap:  # the closest pair is adjacent once sorted
            return x


def interior_simplex(rng, n=4, floor=0.05):
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


SIGNS = np.array([-1.0, 1.0])


def away_from_zero(rng, n=4, lo=0.05, hi=1.0):
    # the draws of rng.choice([-1.0, 1.0], size=n), at under half its cost
    return rng.uniform(lo, hi, size=n) * SIGNS[rng.integers(0, 2, size=n)]


def gp_draw(rng, lse_r):
    x = spread_window(rng)
    while np.abs(x).min() < 0.05:  # keep the gate's inputs off zero
        x = spread_window(rng)
    return x, {"gate_w": away_from_zero(rng)}


def smp_draw(rng, lse_r):
    return rng.uniform(-2.0, 2.0, size=4), {"tau": rng.uniform(-3.0, 3.0)}


#: method -> draw(rng, lse_r) -> (window, {field: value}): one candidate point of each
#: window method, a weight per window entry as a vector and any other field as a float
DRAWS = {
    "MP": lambda rng, r: (spread_window(rng), {}),
    "AP": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4), {}),
    "NN": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4), {}),
    "CONV": lambda rng, r: (away_from_zero(rng), {"conv_w": away_from_zero(rng)}),
    "GP": gp_draw,
    "OP": lambda rng, r: (spread_window(rng), {"ordinal_w": interior_simplex(rng)}),
    "LNP": lambda rng, r: (away_from_zero(rng, lo=0.1, hi=1.5), {"p_raw": rng.uniform(-1.0, 2.0)}),
    # x = u / r keeps r*x, and so the softmax gradient, at the same spread for every r
    "LSE": lambda rng, r: (rng.uniform(-1.0, 1.0, size=4) / r, {"sharpness": r}),
    "SMP_fixed": smp_draw,
    "SMP_trainable": smp_draw,
}


def worse(worst, error):
    """The larger error, where a NaN (a comparison that failed) outranks every number
    and stays: ``max(worst, nan)`` would keep ``worst`` and pass a NaN gradient."""
    return worst if np.isnan(worst) else error if np.isnan(error) else max(worst, error)


def _informative_points(method, candidates):
    """The candidates whose gradients the oracle resolves, one (window, params,
    GradBundle) at a time in draw order, from one kernel call for all of them."""
    params = {}
    for name in candidates[0][1]:
        values = np.array([p[name] for _, p in candidates])
        params[name] = values if values.ndim == 2 else values[:, None]
    bundle = grads.pool_grads(method, np.array([x for x, _ in candidates]), **params)
    small = np.zeros(len(candidates), dtype=bool)
    for d in (bundle.d_input, *bundle.d_params.values()):
        d = np.abs(d)
        small |= ((d > 0.0) & (d < gradcheck._MIN_COORD)).any(axis=1)
    for i in np.flatnonzero(~small):
        x, p = candidates[i]
        yield x, p, grads.GradBundle(bundle.d_input[i], {k: d[i] for k, d in bundle.d_params.items()})


def _window_method(method, trials, config, rng, lse_sharpness):
    draw, r = DRAWS[method], float(lse_sharpness)
    worst, checked = 0.0, 0
    while checked < trials:
        block = [draw(rng, r) for _ in range(min(trials - checked, gradcheck._BLOCK))]
        for x, params, bundle in _informative_points(method, block):
            checked += 1
            input_config = config
            if "sharpness" in params:
                input_config = replace(config, step=config.step / params["sharpness"])
            values = values_at(lambda v: ops.pool(method, v, **params), x, input_config.step, batched=True)
            worst = worse(worst, fd_check(values, bundle.d_input, input_config))
            for name, analytic in bundle.d_params.items():
                fn = lambda v: ops.pool(method, x, **{**params, name: v})  # noqa: E731
                values = values_at(fn, params[name], config.step, batched=True)
                worst = worse(worst, fd_check(values, analytic, config))
    return worst


def _se_block(method, trials, config, rng):
    channels, hidden, size = 4, 2, 4
    worst = 0.0
    spec = ops.PoolSpec(method, layers.POOL_WINDOW, channels)
    probe_shape = (1, channels, *output_size(size, size, spec.window))
    for _ in range(trials):
        while True:
            x = rng.uniform(-1.0, 1.0, size=(1, channels, size, size))
            params = {
                "se_f1_weight": rng.uniform(-1.0, 1.0, size=(hidden, channels)),
                "se_f1_bias": rng.uniform(-0.5, 0.5, size=hidden),
                "se_f2_weight": rng.uniform(-1.0, 1.0, size=(channels, hidden)),
                "se_f2_bias": rng.uniform(-0.5, 0.5, size=channels),
            }
            hidden_pre = params["se_f1_weight"] @ x[0].mean(axis=(1, 2)) + params["se_f1_bias"]
            sorted_win = np.sort(window_entries(x, spec.window), axis=-1)
            if np.abs(hidden_pre).min() <= 1e-3 or (sorted_win[..., -1] - sorted_win[..., -2]).min() <= 1e-2:
                continue
            block = with_zero_grads(layers.PoolingBlock(spec, params))
            probe = rng.uniform(-1.0, 1.0, size=probe_shape)
            block.forward(x)
            dx = block.backward(probe).reshape(-1)
            arrays = block.params()
            g = np.concatenate([block.grads()[name].reshape(-1) for name in arrays])
            v = rng.standard_normal(g.size)
            v /= np.linalg.norm(v)
            keep = ~((np.abs(dx) > 0.0) & (np.abs(dx) < gradcheck._MIN_COORD))
            if keep.any() and not abs(g @ v) < gradcheck._MIN_COORD:  # a NaN is checked, and fails
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

        worst = worse(worst, fd_check(values_at(at_inputs, flat_x[keep], config.step, batched=True), dx[keep], config))
        worst = worse(worst, fd_check(values_at(along_v, np.zeros(1), config.step), np.array([g @ v]), config))
    return worst


def worst_error(method, trials, tolerance=1e-5, seed=0, lse_sharpness=1.0):
    """The worst relative error of ``check_method`` with the same arguments."""
    rng = np.random.default_rng(seed)
    config = FDOracleConfig(tolerance=tolerance)
    if ops.pooling_row(method).se:
        return _se_block(method, trials, config, rng)
    try:
        return _window_method(method, trials, config, rng, lse_sharpness)
    except ops.DivergedRunError:  # a non-finite analytic gradient fails the method
        return np.nan
