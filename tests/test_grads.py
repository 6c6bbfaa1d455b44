"""Analytic backward passes checked against worked examples and the FD oracle."""

import numpy as np
import pytest

from poolbench import (
    FDOracleConfig,
    OracleError,
    ParameterError,
    PoolSpec,
    WindowSpec,
    avg_pool,
    avg_pool_grad,
    conv_pool,
    conv_pool_grad,
    fd_check,
    gated_pool,
    gated_pool_grad,
    learned_norm_pool,
    learned_norm_pool_grad,
    lse_pool,
    lse_pool_grad,
    max_pool,
    max_pool_grad,
    nearest_pool_grad,
    ordinal_pool,
    ordinal_pool_grad,
    project_to_simplex,
    ShapeError,
    smooth_max_pool,
    smooth_max_pool_grad,
)
from poolbench.grads import bumped_points
from poolbench.layers import PoolingBlock
from helpers import central_difference, fd_check_fn, relative_error, values_at, with_zero_grads
from window_reference import global_avg_pool, se_params, se_temperatures

X = np.array([1.0, 3.0, 2.0, 0.0])
CFG = FDOracleConfig()


def spread_window(rng, n=4, gap=1e-2, lo=-1.0, hi=1.0):
    """Random window whose pairwise gaps exceed `gap` (away from ties)."""
    while True:
        x = rng.uniform(lo, hi, size=n)
        diffs = np.abs(np.subtract.outer(x, x))
        if diffs[np.triu_indices(n, k=1)].min() > gap:
            return x


def interior_simplex(rng, n=4, floor=0.05):
    """Random simplex point with every coordinate at least `floor`."""
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


#: each analytic window gradient, with its parameters for an n-entry window
WINDOW_GRADS = [
    (max_pool_grad, lambda n: ()),
    (avg_pool_grad, lambda n: ()),
    (nearest_pool_grad, lambda n: ()),
    (conv_pool_grad, lambda n: (np.full(n, 1.0 / n),)),
    (gated_pool_grad, lambda n: (np.linspace(-0.5, 0.5, n),)),
    (ordinal_pool_grad, lambda n: (np.full(n, 1.0 / n),)),
    (learned_norm_pool_grad, lambda n: (0.5,)),
    (lse_pool_grad, lambda n: (1.0,)),
    (smooth_max_pool_grad, lambda n: (0.5,)),
]


@pytest.mark.parametrize("grad, params", WINDOW_GRADS, ids=[g.__name__ for g, _ in WINDOW_GRADS])
def test_gradients_take_one_window(grad, params):
    # ops.* read a 2-D input as a stack of windows; flattening it would mix two windows
    with pytest.raises(ShapeError):
        grad(X.reshape(2, 2), *params(4))
    assert grad(3.0, *params(1)).d_input.shape == (1,)  # a scalar is a one-entry window
    if grad in (learned_norm_pool_grad, smooth_max_pool_grad):
        # an (m, 1) column is m windows' values of the scalar parameter
        with pytest.raises(ShapeError):
            grad(X, np.full((2, 1), 0.5))


class TestMaxPoolGrad:
    def test_one_hot_at_argmax(self):
        np.testing.assert_array_equal(max_pool_grad(X).d_input, [0.0, 1.0, 0.0, 0.0])

    def test_tie_goes_to_first_maximizer(self):
        np.testing.assert_array_equal(
            max_pool_grad([2.0, 2.0, 1.0, 1.0]).d_input, [1.0, 0.0, 0.0, 0.0]
        )

    def test_matches_fd_away_from_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = spread_window(rng)
            err = fd_check_fn(max_pool, x, max_pool_grad(x).d_input, CFG)
            assert err < 1e-6


class TestNearestPoolGrad:
    def test_one_hot_at_fixed_position(self):
        np.testing.assert_array_equal(nearest_pool_grad(X).d_input, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(nearest_pool_grad([7.0]).d_input, [1.0])


class TestAvgPoolGrad:
    def test_uniform(self):
        np.testing.assert_array_equal(avg_pool_grad(X).d_input, [0.25] * 4)

    def test_independent_of_values(self):
        rng = np.random.default_rng(1)
        np.testing.assert_array_equal(
            avg_pool_grad(rng.normal(size=4) * 100).d_input, [0.25] * 4
        )

    def test_matches_fd(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=4)
            assert fd_check_fn(avg_pool, x, avg_pool_grad(x).d_input, CFG) < 1e-8


class TestConvPoolGrad:
    def test_uniform_weights_reduce_to_average_grad(self):
        w = np.full(4, 0.25)
        np.testing.assert_array_equal(
            conv_pool_grad(X, w).d_input, avg_pool_grad(X).d_input
        )

    def test_weight_gradient_is_input(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=4)
        np.testing.assert_array_equal(conv_pool_grad(X, w).d_params["conv_w"], X)

    def test_matches_fd(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, w = rng.normal(size=4), rng.normal(size=4)
            bundle = conv_pool_grad(x, w)
            assert fd_check_fn(lambda v: conv_pool(v, w), x, bundle.d_input, CFG) < 1e-8
            assert (
                fd_check_fn(lambda v: conv_pool(x, v), w, bundle.d_params["conv_w"], CFG)
                < 1e-8
            )


class TestGatedPoolGrad:
    def test_zero_weights_hand_oracle(self):
        # g = 1/2, d_gate_w = x * (avg - max) / 4
        bundle = gated_pool_grad(X, np.zeros(4))
        np.testing.assert_allclose(
            bundle.d_params["gate_w"], [-0.375, -1.125, -0.75, 0.0], atol=1e-15
        )

    def test_constant_window_kills_weight_gradient(self):
        bundle = gated_pool_grad(np.full(4, 2.0), np.ones(4))
        np.testing.assert_allclose(bundle.d_params["gate_w"], np.zeros(4), atol=1e-15)

    def test_matches_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = spread_window(rng)
            w = rng.normal(size=4)
            bundle = gated_pool_grad(x, w)
            err_x = fd_check_fn(lambda v: gated_pool(v, w), x, bundle.d_input, CFG)
            err_w = fd_check_fn(lambda v: gated_pool(x, v), w, bundle.d_params["gate_w"], CFG)
            assert err_x < 1e-6
            assert err_w < 1e-6


class TestOrdinalPoolGrad:
    W = np.array([0.1, 0.2, 0.3, 0.4])

    def test_uniform_weights_uniform_gradient(self):
        bundle = ordinal_pool_grad(X, np.full(4, 0.25))
        np.testing.assert_array_equal(bundle.d_input, [0.25] * 4)

    def test_permutation_bookkeeping(self):
        bundle = ordinal_pool_grad(X, self.W)
        np.testing.assert_allclose(bundle.d_input, [0.2, 0.4, 0.3, 0.1], atol=1e-15)
        np.testing.assert_array_equal(bundle.d_params["ordinal_w"], [0.0, 1.0, 2.0, 3.0])

    def test_matches_fd_away_from_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = spread_window(rng)
            w = interior_simplex(rng)
            bundle = ordinal_pool_grad(x, w)
            err_x = fd_check_fn(lambda v: ordinal_pool(v, w), x, bundle.d_input, CFG)
            err_w = fd_check_fn(
                lambda v: ordinal_pool(x, v), w, bundle.d_params["ordinal_w"], CFG
            )
            assert err_x < 1e-6
            assert err_w < 1e-6

    def test_weights_the_forward_rejects_are_rejected(self):
        for bad in ([2.0, -1.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]):
            with pytest.raises(ParameterError):
                ordinal_pool(X, bad)
            with pytest.raises(ParameterError):
                ordinal_pool_grad(X, bad)


class TestLearnedNormPoolGrad:
    def test_quadratic_mean_nonneg_inputs(self):
        # for p = 2 and x >= 0: dy/dx_i = x_i / (n * y)
        x = np.array([1.0, 3.0, 2.0, 0.5])
        p_raw = float(np.log(np.expm1(1.0)))  # p = 2
        y = learned_norm_pool(x, p_raw)
        np.testing.assert_allclose(
            learned_norm_pool_grad(x, p_raw).d_input, x / (4 * y), atol=1e-12
        )

    def test_zero_coordinate_convention(self):
        bundle = learned_norm_pool_grad(np.array([1.0, 0.0, -2.0, 0.5]), 0.3)
        assert bundle.d_input[1] == 0.0
        assert np.isfinite(bundle.d_input).all()

    def test_exponent_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(0.2, 2.0, size=4)
            p_raw = rng.uniform(-1.0, 2.0)
            bundle = learned_norm_pool_grad(x, p_raw)
            err = fd_check_fn(
                lambda v: learned_norm_pool(x, v[0]),
                np.array([p_raw]),
                bundle.d_params["p_raw"],
                CFG,
            )
            assert err < 1e-5

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            x = rng.uniform(0.2, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            p_raw = rng.uniform(-1.0, 2.0)
            bundle = learned_norm_pool_grad(x, p_raw)
            err = fd_check_fn(lambda v: learned_norm_pool(v, p_raw), x, bundle.d_input, CFG)
            assert err < 1e-6


class TestLsePoolGrad:
    def test_softmax_normalization(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.normal(size=4) * 10
            d = lse_pool_grad(x, 2.0).d_input
            assert d.sum() == pytest.approx(1.0, abs=1e-12)
            assert (d > 0).all()

    def test_constant_window_uniform(self):
        np.testing.assert_allclose(
            lse_pool_grad(np.full(4, 3.0), 1.0).d_input, [0.25] * 4, atol=1e-15
        )

    def test_shifted_softmax_values(self):
        np.testing.assert_allclose(
            lse_pool_grad(X, 1.0).d_input,
            [0.08714432, 0.64391426, 0.23688282, 0.03205860],
            atol=1e-8,
        )

    def test_matches_fd(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, size=4)
            r = rng.uniform(0.1, 5.0)
            err = fd_check_fn(lambda v: lse_pool(v, r), x, lse_pool_grad(x, r).d_input, CFG)
            assert err < 1e-6

    def test_no_overflow_for_extreme_inputs(self):
        d = lse_pool_grad(np.array([1e4, -1e4, 5e3, 0.0]), 1e4).d_input
        assert np.isfinite(d).all()
        assert d.sum() == pytest.approx(1.0, abs=1e-12)


class TestSmoothMaxPoolGrad:
    def test_zero_temperature(self):
        bundle = smooth_max_pool_grad(X, 0.0)
        np.testing.assert_array_equal(bundle.d_input, avg_pool_grad(X).d_input)
        # variance oracle: mean(x^2) - mean(x)^2 = 3.5 - 2.25
        assert bundle.d_params["tau"][0] == pytest.approx(1.25, abs=1e-12)

    def test_constant_window_zero_temperature_gradient(self):
        assert smooth_max_pool_grad(np.full(4, 7.0), 2.0).d_params["tau"][0] == 0.0

    def test_input_gradient_sums_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            x = rng.uniform(-5.0, 5.0, size=4)
            tau = rng.uniform(-20.0, 20.0)
            assert smooth_max_pool_grad(x, tau).d_input.sum() == pytest.approx(
                1.0, abs=1e-10
            )

    @staticmethod
    def conditioned_point(rng):
        # reject draws whose derivative coordinates sit below the central
        # difference oracle's resolution (~1e-9 absolute for O(1) values at
        # h = 1e-5); conditioning is computed with an independent softmax
        while True:
            x = rng.uniform(-5.0, 5.0, size=4)
            tau = rng.uniform(-5.0, 5.0)
            s = np.exp(tau * x - (tau * x).max())
            s /= s.sum()
            y = (s * x).sum()
            d_in = s * (1.0 + tau * (x - y))
            d_tau = (s * (x - y) ** 2).sum()
            if np.abs(d_in).min() >= 1e-3 and d_tau >= 1e-3:
                return x, tau

    def test_matches_fd(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            x, tau = self.conditioned_point(rng)
            bundle = smooth_max_pool_grad(x, tau)
            err_x = fd_check_fn(lambda v: smooth_max_pool(v, tau), x, bundle.d_input, CFG)
            err_t = fd_check_fn(
                lambda v: smooth_max_pool(x, v[0]),
                np.array([tau]),
                bundle.d_params["tau"],
                CFG,
            )
            assert err_x < 1e-6
            assert err_t < 1e-6

    def test_factored_form_equals_raw_quotient(self):
        # d/dx_i = [(tau x_i + 1) e^(tau x_i) - tau e^(tau x_i) y] / sum_j e^(tau x_j)
        rng = np.random.default_rng(13)
        for _ in range(300):
            x = rng.uniform(-3.0, 3.0, size=4)
            tau = rng.uniform(-3.0, 3.0)
            y = smooth_max_pool(x, tau)
            e = np.exp(tau * x)
            raw = ((tau * x + 1.0) * e - tau * e * y) / e.sum()
            np.testing.assert_allclose(
                smooth_max_pool_grad(x, tau).d_input, raw, atol=1e-12
            )

    def test_temperature_gradient_is_softmax_variance(self):
        # nonnegative for every (x, tau) because it is a variance
        rng = np.random.default_rng(14)
        for _ in range(10_000):
            x = rng.uniform(-3.0, 3.0, size=4)
            tau = rng.uniform(-30.0, 30.0)
            d_tau = smooth_max_pool_grad(x, tau).d_params["tau"][0]
            assert d_tau >= 0.0
        # and in raw moment form: E[X^2] - y^2
        x = np.array([0.5, -1.0, 2.0, 0.0])
        s = np.exp(1.3 * x) / np.exp(1.3 * x).sum()
        y = (s * x).sum()
        assert smooth_max_pool_grad(x, 1.3).d_params["tau"][0] == pytest.approx(
            (s * x * x).sum() - y * y, abs=1e-12
        )

    def test_extreme_temperature_is_one_hot(self):
        d_hi = smooth_max_pool_grad(X, 1e4).d_input
        d_lo = smooth_max_pool_grad(X, -1e4).d_input
        np.testing.assert_allclose(d_hi, [0.0, 1.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(d_lo, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_gradients_finite_for_extreme_magnitudes(self):
        bundle = smooth_max_pool_grad(np.array([1e4, -1e4, 5e3, 0.0]), 1e4)
        assert np.isfinite(bundle.d_input).all()
        assert np.isfinite(bundle.d_params["tau"]).all()


class TestConvexityWeights:
    def test_lse_and_ordinal_inputs_get_convex_weights(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            x = rng.uniform(-2.0, 2.0, size=4)
            d = lse_pool_grad(x, rng.uniform(0.1, 10.0)).d_input
            assert (d >= 0).all() and d.sum() == pytest.approx(1.0, abs=1e-12)
            w = project_to_simplex(rng.uniform(size=4))
            d = ordinal_pool_grad(x, w).d_input
            assert (d >= -1e-15).all() and d.sum() == pytest.approx(1.0, abs=1e-12)

    def test_smooth_max_weights_sum_to_one_but_can_go_negative(self):
        # witness: a far-below-max entry picks up a small negative gradient
        d = smooth_max_pool_grad(np.array([0.0, 10.0]), 1.0).d_input
        assert d.sum() == pytest.approx(1.0, abs=1e-12)
        assert d[0] < 0.0


def se_block(method, se):
    spec = PoolSpec(method, WindowSpec(2, 2, 2, 2), se["se_f1_weight"].shape[1])
    return with_zero_grads(PoolingBlock(spec, se))


class TestSeBranchGrad:
    """The squeeze-and-excitation branch backward of the SE pooling blocks."""

    def test_zero_upstream_gives_zeros(self):
        rng = np.random.default_rng(16)
        se = se_params(rng.normal(size=(2, 4)), rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=4))
        for method in ("SESMP", "SEMP"):
            block = se_block(method, se)
            block.forward(rng.normal(size=(1, 4, 4, 4)))
            assert not block.backward(np.zeros((1, 4, 2, 2))).any()
            assert not any(v.any() for v in block.grads().values())

    def test_single_channel_hand_chain_rule(self):
        # 1 channel, ratio 1, one 2x2 window: y = s * max(x), s = sigmoid(t),
        # t = w2 * relu(w1*mu + b1) + b2 = 3 * 3.5 - 10.5 = 0, so s = 1/2 and
        # dy/dt = s(1-s) * max(x) = 0.75
        block = se_block("SEMP", se_params([[2.0]], [0.5], [[3.0]], [-10.5]))
        x = X.reshape(1, 1, 2, 2)  # mu = 1.5, hidden_pre = 3.5 > 0
        assert block.forward(x)[0, 0, 0, 0] == 1.5
        dx = block.backward(np.ones((1, 1, 1, 1)))
        g = block.grads()
        assert g["se_f2_weight"][0, 0] == pytest.approx(0.75 * 3.5)
        assert g["se_f2_bias"][0] == pytest.approx(0.75)
        assert g["se_f1_weight"][0, 0] == pytest.approx(0.75 * 3.0 * 1.5)
        assert g["se_f1_bias"][0] == pytest.approx(0.75 * 3.0)
        # s at the argmax, plus d_mu = 0.75 * 3 * 2 spread evenly over the 4 entries
        np.testing.assert_allclose(dx.reshape(-1), [1.125, 1.625, 1.125, 1.125])

    def test_matches_fd(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            channels, hidden = 6, 3
            se = se_params(
                rng.normal(size=(hidden, channels)), rng.normal(size=hidden),
                rng.normal(size=(channels, hidden)), rng.normal(size=channels),
            )
            block = se_block("SESMP", se)
            x = rng.normal(size=(1, channels, 4, 4))
            upstream = rng.normal(size=(1, channels))
            block.forward(x)  # caches the branch activations and the input shape
            # the branch backward works in the kernels' (H, W, B, C) frame
            d_x = block._branch_backward(upstream).transpose(2, 3, 0, 1)

            def scalar_out(flat):
                mu = global_avg_pool(flat.reshape(x.shape[1:]))
                return float(upstream[0] @ se_temperatures(mu, se, 2))

            assert fd_check_fn(scalar_out, x.reshape(-1), d_x.reshape(-1), CFG) < 1e-6

            def weight_out(flat):
                probe = {**se, "se_f1_weight": flat.reshape(hidden, channels)}
                mu = global_avg_pool(x[0])
                return float(upstream[0] @ se_temperatures(mu, probe, 2))

            err = fd_check_fn(
                weight_out,
                se["se_f1_weight"].reshape(-1),
                block.grads()["se_f1_weight"].reshape(-1),
                CFG,
            )
            assert err < 1e-6


class TestFdOracle:
    def test_linear_function_exact(self):
        w = np.array([0.3, -1.2, 2.0, 0.7])
        x = np.array([0.4, 0.1, -0.9, 1.3])
        for step in (1e-3, 1e-5, 1e-7):
            err = fd_check_fn(lambda v: float(w @ v), x, w, FDOracleConfig(step=step))
            assert err < 1e-8

    def test_smooth_max_is_the_oracle_run(self):
        rng = np.random.default_rng(18)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=4)
            tau = rng.uniform(-3.0, 3.0)
            err = fd_check_fn(
                lambda v: smooth_max_pool(v, tau),
                x,
                smooth_max_pool_grad(x, tau).d_input,
                CFG,
            )
            assert err < 1e-6

    def test_tie_is_a_non_differentiable_point(self):
        # at an exact tie the analytic convention (first maximizer) and the
        # two-sided difference disagree: such points are excluded by samplers
        x = np.array([2.0, 2.0, 1.0, 0.0])
        numeric = central_difference(values_at(max_pool, x, 1e-5), 1e-5)
        analytic = max_pool_grad(x).d_input
        assert relative_error(analytic, numeric) > 0.4
        assert (spread_window(np.random.default_rng(19)) != x).any()

    def test_non_finite_forward_raises(self):
        with pytest.raises(OracleError):
            fd_check(values_at(lambda v: float("nan"), np.zeros(2), 1e-5), np.zeros(2), CFG)

    def test_scalar_mode_matches_per_coordinate_loop(self):
        def per_coordinate(fn, point, step):
            out = np.empty_like(point)
            for i in range(point.size):
                bumped = point.copy()
                bumped[i] = point[i] + step
                hi = fn(bumped)
                bumped[i] = point[i] - step
                out[i] = (hi - fn(bumped)) / (2.0 * step)
            return out

        rng = np.random.default_rng(20)
        for _ in range(50):
            x, tau, r = rng.uniform(-2.0, 2.0, size=5), rng.uniform(-3.0, 3.0), rng.uniform(0.1, 10.0)
            for fn in (lambda v: smooth_max_pool(v, tau), lambda v: lse_pool(v, r), max_pool):
                for step in (1e-3, 1e-5):
                    np.testing.assert_array_equal(
                        central_difference(values_at(fn, x, step), step), per_coordinate(fn, x, step)
                    )

    def test_stacked_values_are_bit_identical_to_row_values(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=6)
        for _ in range(50):
            x = rng.uniform(-2.0, 2.0, size=6)
            # a matrix product may sum in another order than a dot product, so w . v is
            # an elementwise product summed along the row both ways
            for one, stack in (
                (lambda v: float((v * w).sum()), lambda s: (s * w).sum(axis=1)),
                (max_pool, lambda s: s.max(axis=1)),
            ):
                np.testing.assert_array_equal(
                    central_difference(values_at(stack, x, 1e-5, batched=True), 1e-5),
                    central_difference(values_at(one, x, 1e-5), 1e-5),
                )
        assert fd_check_fn(lambda s: s @ w, x, w, CFG, batched=True) < 1e-8

    def test_bumped_points_are_the_rows_of_the_values(self):
        x = np.array([0.5, -1.0, 2.0])
        expected = np.vstack([x + 0.25 * np.eye(3), x - 0.25 * np.eye(3)])
        np.testing.assert_array_equal(bumped_points(x, 0.25), expected)
        # a stack of points gives each point's own bumped rows
        points = np.array([x, -x])
        stacks = bumped_points(points, 0.25)
        assert stacks.shape == (2, 6, 3)
        for point, stack in zip(points, stacks):
            np.testing.assert_array_equal(stack, bumped_points(point, 0.25))

    @pytest.mark.parametrize("row", range(6))
    def test_non_finite_value_names_its_coordinate(self, row):
        values = np.arange(6.0)
        values[row] = np.inf if row % 2 else np.nan
        with pytest.raises(OracleError, match=f"coordinate {row % 3} "):
            fd_check(values, np.zeros(3), CFG)

    @pytest.mark.parametrize("shape", [(0,), (5,), (3, 2), (6, 1), ()], ids=["empty", "odd", "2-D", "column", "0-d"])
    def test_values_of_the_wrong_shape_rejected(self, shape):
        with pytest.raises(ShapeError):
            fd_check(np.zeros(shape), np.zeros(1), CFG)

    def test_values_of_the_wrong_length_rejected(self):
        # the 2n values of 4 coordinates against a gradient of 3
        with pytest.raises(ShapeError):
            fd_check(np.zeros(8), np.zeros(3), CFG)

    def test_relative_error_floor(self):
        assert relative_error([0.0], [1e-12]) == pytest.approx(1e-4)
        # values 2e-17 apart at step 1e-5: a central difference of 1e-12 against 0
        assert fd_check(np.array([2e-17, 0.0]), np.zeros(1), CFG) == pytest.approx(1e-4)


def reference_fd_check(values, analytic, config):
    """``fd_check`` in array form: the reference it must equal bit for bit.
    Overflow and NaN are results here, not numpy warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        return relative_error(analytic, central_difference(values, config.step))


def outcome(check, *args):
    """``check(*args)``'s result as bytes (any NaN as "nan": its sign bit means
    nothing), or its error's type and message."""
    try:
        result = check(*args)
    except (ShapeError, OracleError) as err:
        return type(err), str(err)
    assert type(result) is float
    return "nan" if np.isnan(result) else np.float64(result).tobytes()


class TestOnePassFdCheck:
    """``fd_check`` loops over Python floats; the array form in ``helpers`` is its reference."""

    def assert_same(self, values, analytic, config=CFG):
        got = outcome(fd_check, values, analytic, config)
        assert got == outcome(reference_fd_check, values, analytic, config)
        return got

    @pytest.mark.parametrize("n", [1, 2, 4, 16, 64])
    def test_random_values_match_the_array_form(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            scale = 10.0 ** rng.integers(-12, 12)
            values = rng.normal(size=2 * n) * scale
            analytic = rng.normal(size=n) * scale * 1e5
            # a near-exact gradient too, whose error sits at roundoff
            exact = (values[:n] - values[n:]) / (2.0 * CFG.step)
            for a in (analytic, exact, exact * (1.0 + 1e-9)):
                self.assert_same(values, a)
        # other steps, and a gradient given as a column: it is compared flattened
        self.assert_same(rng.normal(size=2 * n), rng.normal(size=(n, 1)), FDOracleConfig(step=1e-3))

    def test_signed_zeros_and_subnormals_match(self):
        tiny = 5e-324
        cases = [
            ([0.0, -0.0], [0.0]),
            ([-0.0, 0.0], [-0.0]),
            ([0.0, 0.0, -0.0, -0.0], [-0.0, 0.0]),
            ([tiny, 0.0], [0.0]),
            ([tiny, -tiny, 3 * tiny, 0.0], [tiny, -tiny]),
            ([1e-310, -1e-310], [1e-305]),
            ([2e-308, 1e-308], [-1e-303]),
        ]
        for values, analytic in cases:
            self.assert_same(np.array(values), np.array(analytic))
        assert self.assert_same(np.array([0.0, -0.0]), np.array([0.0])) == np.float64(0.0).tobytes()

    def test_overflow_and_nan_gradient_give_nan(self):
        # hi - lo overflows to inf: the array form compares inf / inf
        self.assert_same(np.array([1.7e308, 1.0, -1.7e308, 0.0]), np.array([1.0, 5e4]))
        # a - d overflows with both finite: an infinite error
        assert self.assert_same(np.array([1.7e303, -1.7e303]), np.array([-1.7e308])) == np.float64(np.inf).tobytes()
        for where in range(4):
            analytic = np.arange(1.0, 5.0)
            analytic[where] = np.nan
            values = np.concatenate([np.nan_to_num(analytic) * 2e-5, np.zeros(4)])
            assert np.isnan(fd_check(values, analytic, CFG))
            self.assert_same(values, analytic)
        # an infinite gradient, and a NaN after an error larger than every other
        self.assert_same(np.zeros(4), np.array([np.inf, 1.0]))
        self.assert_same(np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1e9, np.nan]))

    @pytest.mark.parametrize("values, analytic", [
        (np.zeros(0), np.zeros(0)),
        (np.zeros(5), np.zeros(2)),
        (np.zeros((3, 2)), np.zeros(3)),
        (np.zeros(()), np.zeros(1)),
        (np.zeros(8), np.zeros(3)),  # the 2n values of 4 coordinates against 3
        (np.array([1.0, np.inf, 0.0, 0.0]), np.zeros(2)),
        (np.array([np.nan, 0.0, 0.0, -np.inf]), np.zeros(2)),
        (np.array([0.0, 0.0, np.nan, 0.0]), np.array([np.nan, 1.0])),
        (np.array([0.0, np.inf]), np.zeros(3)),  # a non-finite value outranks a shape mismatch
    ], ids=["empty", "odd", "2-D", "0-d", "mismatch", "inf", "nan-and-inf", "nan-both", "inf-and-mismatch"])
    def test_errors_and_messages_are_unchanged(self, values, analytic):
        kind, message = self.assert_same(values, analytic)
        assert kind in (ShapeError, OracleError) and message
