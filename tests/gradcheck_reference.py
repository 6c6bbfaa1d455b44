"""Test-only reference: gradcheck's trials one at a time.

``poolbench.gradcheck`` evaluates the bumped points of a block of trials
together and hands each trial's ``fd_check`` call its share of the values.
The loops here do the same checks the plain way: each ``fd_check`` call gets
the values of its own bumped stack, from one ``ops.pool`` call per gradient
for a window method and from the trial's own ``PoolingBlock`` for an SE
method.  They take their candidates from the program's own draws, blocks of
the same sizes from the same generator (the draws' rules are tested on their
own), so the ``fd_check`` calls here get the same arguments, in the same
order, as ``check_method``'s, and :func:`worst_error` must equal
``check_method(...).worst_error`` bit for bit.
"""

from dataclasses import replace

import numpy as np

from poolbench import gradcheck, grads, layers, ops
from poolbench.grads import FDOracleConfig, fd_check
from poolbench.tensor import output_size

from helpers import pooling_block, values_at


def worse(worst, error):
    """The larger error, where a NaN (a comparison that failed) outranks every number
    and stays: ``max(worst, nan)`` would keep ``worst`` and pass a NaN gradient."""
    return worst if np.isnan(worst) else error if np.isnan(error) else max(worst, error)


def _informative_points(method, block):
    """The candidates of ``block`` (a row per point) whose gradients the oracle
    resolves, one (window, params, GradBundle) at a time in draw order, from one
    kernel call for all of them; a weight row is a vector and a scalar a float."""
    bundle = grads.pool_grads(method, **block)
    small = np.zeros(len(block["x"]), dtype=bool)
    for d in (bundle.d_input, *bundle.d_params.values()):
        d = np.abs(d)
        small |= ((d > 0.0) & (d < gradcheck._MIN_COORD)).any(axis=1)
    for i in np.flatnonzero(~small):
        params = {name: v[i] if v.shape[1] > 1 else v[i, 0].item() for name, v in block.items() if name != "x"}
        yield block["x"][i], params, grads.GradBundle(bundle.d_input[i], {k: d[i] for k, d in bundle.d_params.items()})


def _window_method(method, trials, config, rng, lse_sharpness):
    worst, checked = 0.0, 0
    while checked < trials:
        block = gradcheck._DRAWS[method](rng, float(lse_sharpness), min(trials - checked, gradcheck._BLOCK))
        if not len(block["x"]):
            continue
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
    worst, checked = 0.0, 0
    spec = ops.PoolSpec(method, layers.POOL_WINDOW, 4)
    probe_shape = (1, 4, *output_size(4, 4, spec.window))
    while checked < trials:
        candidates = gradcheck._se_candidates(rng, min(trials - checked, gradcheck._SE_BLOCK), probe_shape)
        for draw, probe, v in zip(*candidates):
            x = gradcheck._se_array(draw, "x")
            params = {name: gradcheck._se_array(draw, name).copy() for name in gradcheck._SE_DRAWS if name != "x"}
            block = pooling_block(spec, params)
            block.forward(x)
            dx = block.backward(probe).reshape(-1)
            arrays = block.params()
            g = np.concatenate([block.grads()[name].reshape(-1) for name in params])
            keep = ~((np.abs(dx) > 0.0) & (np.abs(dx) < gradcheck._MIN_COORD))
            if not keep.any() or abs(g @ v) < gradcheck._MIN_COORD:  # a NaN is checked, and fails
                continue
            checked += 1
            theta = {name: arrays[name].copy() for name in params}  # in the order of v's entries
            flat_x = x.reshape(-1)

            def at_inputs(stack):
                bumped = np.tile(flat_x, (len(stack), 1))
                bumped[:, keep] = stack
                out = block.forward(bumped.reshape(-1, *x.shape[1:]))
                return (probe * out).sum(axis=(1, 2, 3))

            def along_v(t):
                offset = 0
                for name, value in theta.items():
                    arrays[name][...] = value + t[0] * v[offset : offset + value.size].reshape(value.shape)
                    offset += value.size
                return float((probe * block.forward(x)).sum())

            inputs = values_at(at_inputs, flat_x[keep], config.step, batched=True)
            worst = worse(worst, fd_check(inputs, dx[keep], config))
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
