"""Test-only reference: gradcheck's trials one at a time.

``poolbench.gradcheck`` evaluates the bumped points of a block of trials
together and hands each trial's ``fd_check`` call its precomputed values.
The loops here do the same checks the plain way: each ``fd_check`` call gets
a function that evaluates its bumped stack itself, through one ``ops.pool``
call per gradient for a window method and through the trial's own
``PoolingBlock`` for an SE method.  They draw the same points from the same
generator, so :func:`worst_error` must equal ``check_method(...).worst_error``
bit for bit.
"""

from dataclasses import replace

import numpy as np

from poolbench import gradcheck, grads, layers, ops
from poolbench.grads import FDOracleConfig, fd_check
from poolbench.tensor import output_size


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
    draw, r = gradcheck._DRAWS[method], float(lse_sharpness)
    worst, checked = 0.0, 0
    while checked < trials:
        block = [draw(rng, r) for _ in range(min(trials - checked, gradcheck._BLOCK))]
        for x, params, bundle in _informative_points(method, block):
            checked += 1
            input_config = config
            if "sharpness" in params:
                input_config = replace(config, step=config.step / params["sharpness"])
            worst = max(
                worst,
                fd_check(lambda v: ops.pool(method, v, **params), x, bundle.d_input, input_config, batched=True),
            )
            for name, analytic in bundle.d_params.items():
                point = np.atleast_1d(params[name])
                fn = lambda v: ops.pool(method, x, **{**params, name: v})  # noqa: E731
                worst = max(worst, fd_check(fn, point, analytic, config, batched=True))
    return worst


def _se_block(method, trials, config, rng):
    channels, hidden, size = 4, 2, 4
    worst = 0.0
    spec = ops.PoolSpec(method, gradcheck._WINDOW, channels)
    probe_shape = (1, channels, *output_size(size, size, gradcheck._WINDOW))
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
            windows = layers.window_views(x.transpose(2, 3, 0, 1), gradcheck._WINDOW)
            sorted_win = np.sort(np.stack(windows), axis=0)
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
            keep = ~((np.abs(dx) > 0.0) & (np.abs(dx) < gradcheck._MIN_COORD))
            if keep.any() and abs(g @ v) >= gradcheck._MIN_COORD:
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


def worst_error(method, trials, tolerance=1e-5, seed=0, lse_sharpness=1.0):
    """The worst relative error of ``check_method`` with the same arguments."""
    rng = np.random.default_rng(seed)
    config = FDOracleConfig(tolerance=tolerance)
    if ops.pooling_row(method).se:
        return _se_block(method, trials, config, rng)
    return _window_method(method, trials, config, rng, lse_sharpness)
