"""Every window kernel on gradcheck's blocked shapes against the test-only reference.

gradcheck evaluates the analytic gradients of a block of candidate points in
one kernel call: a 2-D stack of windows with one parameter row per window (a
column for a scalar parameter).  Each case runs that shape through the
``ops.pool``/``grads.pool_grads`` adapters and compares every row with the
formulas of ``window_reference``, one window at a time.
"""

import numpy as np
import pytest

import window_reference as ref
from poolbench import grads, ops

N = 4


def p_raw_for(p):
    """Invert p = 1 + log(1 + exp(p_raw)) for a target exponent p > 1."""
    return float(np.log(np.expm1(p - 1.0)))


def stacked_windows(rng, m):
    """m random windows, the first rows with ties and zero entries."""
    x = rng.uniform(-2.0, 2.0, size=(m, N))
    x[0] = [1.5, -0.5, 1.5, 0.25]  # tied maxima
    x[1] = [-0.5, -0.5, 2.0, -0.5]  # tied minima
    x[2] = [0.0, 0.0, 0.0, 0.0]  # all-zero window
    x[3] = [0.0, 1.25, -0.75, 0.0]  # zero entries
    x[4] = [0.5, 0.5, 0.5, 0.5]  # constant window
    return x


def parameter_rows(method, rng, m):
    """One parameter row per window: (m, n) for a weight per entry, (m, 1) otherwise."""
    name = ref.METHODS[method][2]
    if name is None:
        return {}
    if name == "ordinal_w":
        return {name: rng.dirichlet(np.full(N, 2.0), size=m)}
    if name in ops.ENTRY_WEIGHTS:
        return {name: rng.normal(0.0, 0.7, size=(m, N))}
    if name == "sharpness":
        return {name: rng.uniform(0.2, 5.0, size=(m, 1))}
    column = rng.uniform(-3.0, 3.0, size=(m, 1))
    column[::5] = 0.0  # tau = 0 rows; p_raw = 0 is p = 1 + log 2
    return {name: column}


def assert_rows_match_reference(method, x, params):
    forward, gradient, name = ref.METHODS[method]
    y = ops.pool(method, x, **params)
    bundle = grads.pool_grads(method, x, **params)
    assert y.shape == (len(x),) and bundle.d_input.shape == x.shape
    for i, window in enumerate(x):
        args = [params[name][i]] if name else []
        np.testing.assert_allclose(y[i], forward(window, *args), rtol=1e-13, atol=1e-15)
        d_input, d_params = gradient(window, *args)
        np.testing.assert_allclose(bundle.d_input[i], d_input, rtol=1e-12, atol=1e-15)
        assert bundle.d_params.keys() == d_params.keys()
        for key, d in d_params.items():
            np.testing.assert_allclose(bundle.d_params[key][i], d, rtol=1e-12, atol=1e-15, err_msg=key)


@pytest.mark.parametrize("method", list(ref.METHODS))
def test_blocked_rows_match_reference(method):
    rng = np.random.default_rng(sorted(ref.METHODS).index(method))
    x = stacked_windows(rng, 60)
    assert_rows_match_reference(method, x, parameter_rows(method, rng, len(x)))


@pytest.mark.parametrize("p", [3.0, 2.5])
def test_learned_norm_rows_at_integer_and_fractional_exponent(p):
    # p = 3 is an integer power; 2.5 takes the general path of every power
    rng = np.random.default_rng(31)
    x = stacked_windows(rng, 30)
    x[rng.random(x.shape) < 0.3] = 0.0
    assert_rows_match_reference("LNP", x, {"p_raw": np.full((len(x), 1), p_raw_for(p))})
    zero = grads.pool_grads("LNP", x[2:3], p_raw=p_raw_for(p))
    assert ops.pool("LNP", x[2:3], p_raw=p_raw_for(p))[0] == 0.0
    assert not zero.d_input.any() and not zero.d_params["p_raw"].any()


def test_smooth_max_at_zero_temperature_is_the_average_exactly():
    x = stacked_windows(np.random.default_rng(32), 25)
    tau = np.zeros((len(x), 1))
    np.testing.assert_array_equal(ops.pool("SMP_trainable", x, tau=tau), ops.pool("AP", x))
    np.testing.assert_array_equal(
        grads.pool_grads("SMP_trainable", x, tau=tau).d_input, grads.pool_grads("AP", x).d_input
    )
