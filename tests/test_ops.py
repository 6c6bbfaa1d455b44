"""Forward pooling operators: worked examples, limits, and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import window_reference as ref
from poolbench import (
    ConfigurationError,
    DegenerateWeightsError,
    ParameterError,
    PoolSpec,
    ShapeError,
    WindowSpec,
    avg_pool,
    conv_pool,
    fixed_temperatures,
    gated_pool,
    learned_norm_pool,
    lse_pool,
    max_pool,
    nearest_pool,
    norm_exponent,
    ordinal_pool,
    project_to_simplex,
    sigmoid,
    smooth_max_pool,
    validate_pool_params,
)
from poolbench import grads, ops
from poolbench.gradcheck import check_method
from poolbench.layers import PoolingBlock, ToyNet, ToyNetConfig
from poolbench.ops import DivergedRunError
from poolbench.train import _snapshots
from window_reference import global_avg_pool, map_windows, se_params, se_temperatures

X = np.array([1.0, 3.0, 2.0, 0.0])
POOL22 = WindowSpec(2, 2, 2, 2)


def p_raw_for(p):
    """Invert p = 1 + log(1 + exp(p_raw)) for a target exponent p > 1."""
    return float(np.log(np.expm1(p - 1.0)))


def reference_smooth_max(x, tau):
    """Oracle: direct softmax-weighted sum at scales where exp cannot overflow."""
    w = np.exp(tau * np.asarray(x, dtype=float))
    w = w / w.sum()
    return float((w * x).sum())


class TestBasicPools:
    def test_max(self):
        assert max_pool(X) == 3.0
        assert max_pool([-5.0, -1.0, -3.0, -2.0]) == -1.0
        assert max_pool([2.0, 2.0, 2.0, 2.0]) == 2.0

    def test_avg(self):
        assert avg_pool(X) == 1.5
        assert avg_pool([0.3, 0.3, 0.3]) == pytest.approx(0.3, abs=1e-15)
        assert avg_pool([-1.0, 1.0, -1.0, 1.0]) == 0.0

    def test_nearest(self):
        assert nearest_pool(X) == 1.0
        assert nearest_pool([7.0]) == 7.0
        pooled = map_windows(np.arange(1.0, 17.0).reshape(1, 4, 4), POOL22, nearest_pool)
        np.testing.assert_array_equal(pooled, [[[1.0, 3.0], [9.0, 11.0]]])

    def test_empty_window_rejected(self):
        for fn in (max_pool, avg_pool, nearest_pool):
            with pytest.raises(ShapeError):
                fn([])


class TestConvPool:
    def test_uniform_weights_equal_average(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(size=4)
            assert conv_pool(x, np.full(4, 0.25)) == pytest.approx(avg_pool(x), abs=1e-15)

    def test_basis_weight_equals_nearest(self):
        assert conv_pool(X, [1.0, 0.0, 0.0, 0.0]) == nearest_pool(X)

    def test_dot_product(self):
        # hand oracle: 0.1*1 + 0.2*3 + 0.3*2 + 0.4*0
        assert conv_pool(X, [0.1, 0.2, 0.3, 0.4]) == pytest.approx(1.3, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            conv_pool(X, [1.0, 2.0])


def two_branch_sigmoid(t):
    """Reference: exp(-t) on t >= 0 and exp(t) on t < 0, each on its own subset."""
    t = np.asarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return np.clip(out, 1e-308, np.nextafter(1.0, 0.0))


class TestSigmoid:
    def test_bit_identical_to_two_branch_formula(self):
        rng = np.random.default_rng(18)
        t = np.concatenate(
            [
                rng.normal(0.0, 5.0, size=10_000),
                rng.uniform(-800.0, 800.0, size=10_000),
                [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, np.nan],
            ]
        )
        np.testing.assert_array_equal(sigmoid(t), two_branch_sigmoid(t))

    def test_strictly_inside_unit_interval_when_saturated(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert 0.0 < out[0] < out[1] < 1.0

    def test_scalar_input_gives_float(self):
        assert type(sigmoid(0.0)) is float and sigmoid(0.0) == 0.5


class TestGatedPool:
    def test_zero_weights_blend_evenly(self):
        w = np.zeros(4)
        value = gated_pool(X, w)
        assert sigmoid(np.dot(w, X)) == 0.5
        assert value == pytest.approx(0.5 * 1.5 + 0.5 * 3.0, abs=1e-15)
        assert value == pytest.approx(2.25)

    def test_saturated_gate_returns_average(self):
        w = [100.0, 100.0, 100.0, 100.0]
        value = gated_pool(X, w)
        assert 0.0 < sigmoid(np.dot(w, X)) < 1.0
        assert value == pytest.approx(avg_pool(X), abs=1e-12)

    def test_single_active_weight(self):
        # scalar oracle: g = sigmoid(1), out = g*1.5 + (1-g)*3
        g = 1.0 / (1.0 + np.exp(-1.0))
        w = [1.0, 0.0, 0.0, 0.0]
        value = gated_pool(X, w)
        assert sigmoid(np.dot(w, X)) == pytest.approx(g, abs=1e-15)
        assert value == pytest.approx(1.9034121320549926, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            gated_pool(X, [0.0, 0.0])


class TestOrdinalPool:
    def test_one_hot_last_is_max(self):
        assert ordinal_pool(X, [0.0, 0.0, 0.0, 1.0]) == 3.0

    def test_uniform_is_average(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=4)
            assert ordinal_pool(x, np.full(4, 0.25)) == pytest.approx(avg_pool(x), abs=1e-14)

    def test_sorted_dot(self):
        # sort-and-dot oracle: weights against (0, 1, 2, 3)
        assert ordinal_pool(X, [0.1, 0.2, 0.3, 0.4]) == pytest.approx(2.0, abs=1e-15)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ParameterError):
            ordinal_pool(X, [0.5, 0.5, 0.5, 0.5])
        with pytest.raises(ParameterError):
            ordinal_pool(X, [-0.5, 0.5, 0.5, 0.5])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        w = project_to_simplex(rng.uniform(size=4))
        x = rng.normal(size=4)
        for _ in range(10):
            perm = rng.permutation(4)
            assert ordinal_pool(x[perm], w) == ordinal_pool(x, w)

    def test_conv_and_nearest_are_order_sensitive(self):
        # witness: swapping two entries changes the value
        w = np.array([0.1, 0.2, 0.3, 0.4])
        swapped = X[[1, 0, 2, 3]]
        assert conv_pool(swapped, w) != conv_pool(X, w)
        assert nearest_pool(swapped) != nearest_pool(X)


class TestSimplexProjection:
    def test_negative_clipped_then_normalized(self):
        np.testing.assert_allclose(
            project_to_simplex([-1.0, 1.0, 2.0, 1.0]), [0.0, 0.25, 0.5, 0.25]
        )

    def test_fixed_point(self):
        w = np.array([0.2, 0.3, 0.5])
        np.testing.assert_array_equal(project_to_simplex(w), w)

    def test_mixed_signs(self):
        np.testing.assert_allclose(
            project_to_simplex([0.5, 0.5, -0.2, 0.2]),
            [5.0 / 12.0, 5.0 / 12.0, 0.0, 1.0 / 6.0],
        )

    def test_degenerate_input_raises(self):
        with pytest.raises(DegenerateWeightsError):
            project_to_simplex([-1.0, 0.0, -2.0])


class TestLearnedNormPool:
    def test_exponent_at_zero(self):
        assert norm_exponent(0.0) == pytest.approx(1.0 + np.log(2.0), abs=1e-15)

    def test_large_exponent_approaches_max(self):
        value = learned_norm_pool(X, p_raw_for(50.0))
        assert abs(value - 3.0) < 0.15

    def test_quadratic_mean(self):
        assert learned_norm_pool(X, p_raw_for(2.0)) == pytest.approx(
            np.sqrt(3.5), abs=1e-12
        )

    def test_zero_window(self):
        assert learned_norm_pool(np.zeros(4), 0.3) == 0.0

    def test_power_mean_monotonicity(self):
        # generalized-mean inequality on nonnegative windows
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            x = rng.uniform(0.0, 2.0, size=4)
            p1, p2 = np.sort(rng.uniform(-2.0, 4.0, size=2))
            lo = learned_norm_pool(x, p1)
            hi = learned_norm_pool(x, p2)
            assert lo <= hi + 1e-12

    def test_huge_inputs_and_exponents_stay_finite(self):
        assert np.isfinite(learned_norm_pool([1e4, -1e4, 5e3, 0.0], 1e4))


class TestLsePool:
    def test_unit_sharpness(self):
        # direct evaluation oracle
        expected = np.log(np.exp(X).mean())
        assert lse_pool(X, 1.0) == pytest.approx(expected, abs=1e-15)
        assert lse_pool(X, 1.0) == pytest.approx(2.0538953374413045, abs=1e-12)

    def test_sharp_limit_near_max(self):
        assert abs(lse_pool(X, 100.0) - 3.0) < 0.02

    def test_constant_window_fixed_point(self):
        for r in (0.1, 1.0, 10.0, 1e4):
            assert lse_pool(np.full(4, -2.5), r) == pytest.approx(-2.5, abs=1e-12)

    def test_nonpositive_sharpness_rejected(self):
        with pytest.raises(ParameterError):
            lse_pool(X, 0.0)
        with pytest.raises(ParameterError):
            lse_pool(X, -1.0)

    def test_limits_on_random_windows(self):
        rng = np.random.default_rng(4)
        for _ in range(2000):
            x = rng.uniform(-1.0, 1.0, size=4)
            assert abs(lse_pool(x, 1e3) - x.max()) <= 1e-2
            assert abs(lse_pool(x, 1e-6) - x.mean()) <= 1e-5

    def test_extreme_magnitudes_finite(self):
        assert np.isfinite(lse_pool([1e4, -1e4, 0.0, 5e3], 1e4))


class TestSmoothMaxPool:
    def test_zero_temperature_is_exact_average(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x = rng.normal(size=4) * rng.choice([1.0, 1e3])
            assert smooth_max_pool(x, 0.0) == avg_pool(x)
        assert smooth_max_pool(X, 0.0) == 1.5

    def test_unit_temperature(self):
        assert smooth_max_pool(X, 1.0) == pytest.approx(
            reference_smooth_max(X, 1.0), abs=1e-14
        )
        assert smooth_max_pool(X, 1.0) == pytest.approx(2.4926527345857696, abs=1e-12)

    def test_extreme_temperatures_hit_max_and_min(self):
        assert smooth_max_pool(X, 1e4) == pytest.approx(3.0, abs=1e-12)
        assert smooth_max_pool(X, -1e4) == pytest.approx(0.0, abs=1e-12)

    def test_convex_combination_bound(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            x = rng.uniform(-5.0, 5.0, size=4)
            tau = rng.uniform(-50.0, 50.0)
            y = smooth_max_pool(x, tau)
            assert x.min() - 1e-12 <= y <= x.max() + 1e-12

    def test_shift_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x = rng.uniform(-1.0, 1.0, size=4)
            tau = rng.uniform(-10.0, 10.0)
            c = rng.uniform(-1e3, 1e3)
            assert abs(smooth_max_pool(x + c, tau) - smooth_max_pool(x, tau) - c) < 1e-12

    def test_scale_identity(self):
        # f(x, tau) = f(tau*x, 1) / tau for tau != 0: rescaling the inputs and
        # dividing out the temperature leaves the value unchanged
        rng = np.random.default_rng(8)
        for _ in range(2000):
            x = rng.uniform(-1.0, 1.0, size=4)
            tau = rng.uniform(-10.0, 10.0)
            if abs(tau) < 1e-3:
                continue
            assert smooth_max_pool(x, tau) == pytest.approx(
                smooth_max_pool(tau * x, 1.0) / tau, abs=1e-10
            )

    def test_overflow_safe(self):
        x = np.array([1e4, -1e4, 5e3, 0.0])
        for tau in (1e4, -1e4, 709.0):
            assert np.isfinite(smooth_max_pool(x, tau))

    def test_non_finite_rejected(self):
        with pytest.raises(DivergedRunError):
            smooth_max_pool([np.nan, 0.0], 1.0)
        with pytest.raises(DivergedRunError):
            smooth_max_pool([np.inf, 0.0], 1.0)
        with pytest.raises(ParameterError):
            smooth_max_pool(X, np.nan)


class TestGapAndBranch:
    def test_constant_channel(self):
        x = np.full((3, 4, 4), 1.5)
        np.testing.assert_allclose(global_avg_pool(x), [1.5, 1.5, 1.5])

    def test_alternating_channel_is_zero(self):
        plane = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        assert global_avg_pool(plane[None])[0] == 0.0

    def test_small_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])[None]
        assert global_avg_pool(x)[0] == 2.5

    def test_hidden_width(self):
        rng = np.random.default_rng(9)
        se = se_params(rng.normal(size=(2, 32)), np.zeros(2), rng.normal(size=(32, 2)), np.zeros(32))
        out = se_temperatures(rng.normal(size=32), se, ratio=16)
        assert out.shape == (32,)

    def test_zero_maps_give_bias(self):
        se = se_params(np.zeros((2, 8)), np.zeros(2), np.zeros((8, 2)), np.zeros(8))
        np.testing.assert_array_equal(
            se_temperatures(np.ones(8), se, ratio=4), np.zeros(8)
        )

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(10)
        w1, b1 = rng.normal(size=(4, 8)), rng.normal(size=4)
        w2, b2 = rng.normal(size=(8, 4)), rng.normal(size=8)
        mu = rng.normal(size=8)
        expected = w2 @ np.maximum(w1 @ mu + b1, 0.0) + b2
        got = se_temperatures(mu, se_params(w1, b1, w2, b2), ratio=2)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_ratio_must_divide(self):
        se = se_params(np.zeros((3, 8)), np.zeros(3), np.zeros((8, 3)), np.zeros(8))
        with pytest.raises(ConfigurationError):
            se_temperatures(np.ones(8), se, ratio=3)


def semp_forward(x, se):
    """SEMP block output for one (C, H, W) sample at ratio 2 and 2x2 windows."""
    block = PoolingBlock(PoolSpec("SEMP", POOL22, x.shape[0]), se)
    return block.forward(x[None])[0]


class TestSeGatedMaxPool:
    def test_zero_branch_halves_max(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.0, 1.0, size=(4, 4, 4))  # nonnegative inputs
        se = se_params(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 2)), np.zeros(4))
        out = semp_forward(x, se)
        np.testing.assert_allclose(out, 0.5 * map_windows(x, POOL22, ref.max_pool), atol=1e-14)

    def test_saturated_gate_is_plain_max(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 4, 4))
        se = se_params(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 2)), np.full(4, 60.0))  # sigmoid -> 1
        out = semp_forward(x, se)
        np.testing.assert_allclose(out, map_windows(x, POOL22, ref.max_pool), atol=1e-12)

    def test_matches_scale_then_max_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 6, 6))
        se = se_params(rng.normal(size=(2, 4)), rng.normal(size=2), rng.normal(size=(4, 2)), rng.normal(size=4))
        scales = sigmoid(se_temperatures(global_avg_pool(x), se, 2))
        expected = map_windows(x * scales[:, None, None], POOL22, ref.max_pool)
        np.testing.assert_allclose(semp_forward(x, se), expected)


class TestFixedTemperatures:
    def test_last_channel_is_average(self):
        assert fixed_temperatures(4)[-1] == 0.0

    def test_values_for_four_channels(self):
        np.testing.assert_allclose(
            fixed_temperatures(4),
            [np.log(0.25), np.log(0.5), np.log(0.75), 0.0],
            atol=1e-12,
        )

    def test_all_nonpositive(self):
        for c in (1, 3, 16, 100):
            assert (fixed_temperatures(c) <= 0.0).all()


class TestGatedOrdinalBounds:
    def test_outputs_stay_inside_window_range(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            x = rng.uniform(-3.0, 3.0, size=4)
            w = project_to_simplex(rng.uniform(size=4))
            gw = rng.normal(size=4)
            lo, hi = x.min() - 1e-12, x.max() + 1e-12
            assert lo <= ordinal_pool(x, w) <= hi
            assert lo <= gated_pool(x, gw) <= hi


class TestPoolParamsValidation:
    """A pooling block's parameter dict: exactly the method's keys, each shaped as
    the method's ``init`` shapes it, finite and in range."""

    def test_missing_field(self):
        spec = PoolSpec("CONV", POOL22, channels=2)
        with pytest.raises(ConfigurationError):
            validate_pool_params(spec, {})

    def test_extra_field(self):
        spec = PoolSpec("SMP_trainable", POOL22, channels=2)
        with pytest.raises(ConfigurationError):
            validate_pool_params(spec, {"tau": np.zeros(2), "sharpness": 2.0})
        with pytest.raises(ConfigurationError):
            PoolingBlock(PoolSpec("MP", POOL22, channels=2), {"conv_w": np.full(4, 0.25)})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="MP, AP"):
            PoolSpec("WAT", POOL22, channels=2)

    def test_se_ratio_checked(self):
        # a hidden width of 4 does not divide 6 channels
        spec = PoolSpec("SESMP", POOL22, channels=6)
        params = se_params(np.zeros((4, 6)), np.zeros(4), np.zeros((6, 4)), np.zeros(6))
        with pytest.raises(ConfigurationError):
            validate_pool_params(spec, params)

    @pytest.mark.parametrize("name, shape", [
        ("se_f1_weight", (2,)),  # an affine map needs a 2-D weight
        ("se_f1_bias", (3,)),  # weight rows != bias length
        ("se_f1_weight", (2, 6)),  # f1 must take the 4 channel means
        ("se_f2_weight", (4, 3)),  # f2 must map the hidden width 2 back to 4 channels
        ("se_f2_bias", (2,)),
    ])
    def test_se_shapes_checked(self, name, shape):
        params = se_params(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 2)), np.zeros(4))
        params[name] = np.zeros(shape)
        for method in ("SESMP", "SEMP"):
            with pytest.raises(ShapeError):
                PoolingBlock(PoolSpec(method, POOL22, channels=4), params)

    @pytest.mark.parametrize("method, name", [("CONV", "conv_w"), ("GP", "gate_w"), ("OP", "ordinal_w")])
    def test_entry_weights_need_one_weight_per_window_entry(self, method, name):
        spec = PoolSpec(method, POOL22, channels=2)
        PoolingBlock(spec, {name: np.full(4, 0.25)})
        for shape in ((3,), (2, 4), ()):
            with pytest.raises(ShapeError):
                PoolingBlock(spec, {name: np.full(shape, 0.25)})

    def test_ordinal_weights_on_the_simplex(self):
        spec = PoolSpec("OP", POOL22, channels=2)
        with pytest.raises(ParameterError):
            PoolingBlock(spec, {"ordinal_w": np.full(4, 0.5)})

    def test_p_raw_is_one_exponent(self):
        # a (2,) p_raw would train one exponent per channel while the snapshot reports one
        spec = PoolSpec("LNP", POOL22, channels=2)
        PoolingBlock(spec, {"p_raw": np.array([0.3])})
        for shape in ((2,), (), (1, 1)):
            with pytest.raises(ShapeError):
                PoolingBlock(spec, {"p_raw": np.full(shape, 0.3)})

    @pytest.mark.parametrize("method", ["SMP_fixed", "SMP_trainable"])
    def test_tau_is_finite_and_one_per_channel(self, method):
        spec = PoolSpec(method, POOL22, channels=2)
        PoolingBlock(spec, {"tau": np.array([-1.0, 1.0])})
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ParameterError):
                PoolingBlock(spec, {"tau": np.array([bad, 1.0])})
        with pytest.raises(ShapeError):
            PoolingBlock(spec, {"tau": np.zeros(3)})

    def test_sharpness_is_positive_and_finite(self):
        # the sharpness rule of ops.FIELD_RULES: an infinite sharpness would pool to NaN
        spec = PoolSpec("LSE", POOL22, channels=2)
        PoolingBlock(spec, {"sharpness": 2.0})
        for bad in (np.inf, np.nan, 0.0, -1.0):
            with pytest.raises(ParameterError):
                PoolingBlock(spec, {"sharpness": bad})
            with pytest.raises(ParameterError, match="positive finite"):  # the CLI's --lse-r too
                ToyNetConfig(lse_sharpness=bad)

    def test_trainable_arrays_must_be_floating(self):
        # the optimizer updates a trainable array in place: an integer one failed at the first step
        with pytest.raises(ParameterError, match="conv_w"):
            PoolingBlock(PoolSpec("CONV", POOL22, channels=2), {"conv_w": np.array([1, 0, 0, 0])})
        params = se_params(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 2)), np.zeros(4))
        params["se_f2_bias"] = np.zeros(4, dtype=bool)
        with pytest.raises(ParameterError, match="se_f2_bias"):
            PoolingBlock(PoolSpec("SEMP", POOL22, channels=4), params)

    def test_non_finite_entries_rejected(self):
        params = se_params(np.zeros((2, 4)), np.zeros(2), np.zeros((4, 2)), np.zeros(4))
        params["se_f2_bias"][1] = np.nan
        with pytest.raises(ParameterError):
            PoolingBlock(PoolSpec("SEMP", POOL22, channels=4), params)
        with pytest.raises(ParameterError):
            PoolingBlock(PoolSpec("GP", POOL22, channels=4), {"gate_w": np.array([0.0, np.inf, 0.0, 0.0])})


class TestStackedPoolParamsValidation:
    """A stacked block's (S, ...) arrays: each rule runs once on the whole stack and
    still reaches every replica."""

    @staticmethod
    def stacked(method, channels, replicas=4):
        params = ops.POOLING[method].init(4, channels, np.random.default_rng(0), 1.0)
        return PoolSpec(method, POOL22, channels), {k: np.stack([v] * replicas) for k, v in params.items()}

    @pytest.mark.parametrize("method", ["CONV", "GP", "OP", "LNP", "LSE", "SMP_trainable", "SESMP", "SEMP"])
    def test_valid_stack_builds(self, method):
        spec, params = self.stacked(method, 4)
        validate_pool_params(spec, params, 4)
        assert PoolingBlock(spec, params, 4).replicas == 4

    @pytest.mark.parametrize("method, name, index", [
        ("SEMP", "se_f1_weight", (2, 1, 3)),
        ("SESMP", "se_f2_bias", (2, 0)),
        ("SMP_trainable", "tau", (2, 1)),
        ("CONV", "conv_w", (2, 3)),
        ("LNP", "p_raw", (2, 0)),
        ("LSE", "sharpness", (2,)),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bad_entry_in_replica_3_of_4(self, method, name, index, bad):
        spec, params = self.stacked(method, 8)  # 8 channels: an SE hidden width of 2
        params[name][index] = bad
        with pytest.raises(ParameterError, match=name):
            PoolingBlock(spec, params, 4)

    @pytest.mark.parametrize("row", [[0.4, 0.4, 0.4, 0.4], [0.5, 0.5, 0.5, -0.5], [np.nan, 0.5, 0.25, 0.25]])
    def test_off_simplex_row_in_replica_3_of_4(self, row):
        spec, params = self.stacked("OP", 2)
        params["ordinal_w"][2] = row
        with pytest.raises(ParameterError, match="ordinal_w"):
            PoolingBlock(spec, params, 4)

    @pytest.mark.parametrize("method", ["CONV", "LNP", "SESMP"])
    @pytest.mark.parametrize("replicas", [3, 5, None])
    def test_wrong_replica_count(self, method, replicas):
        spec, params = self.stacked(method, 4)
        with pytest.raises(ShapeError):
            PoolingBlock(spec, params, replicas)

    def test_se_hidden_width_after_the_replica_axis(self):
        # (4, 4, 6) stacks a hidden width of 4, which does not divide 6 channels
        spec = PoolSpec("SESMP", POOL22, channels=6)
        params = se_params(np.zeros((4, 6)), np.zeros(4), np.zeros((6, 4)), np.zeros(6))
        with pytest.raises(ConfigurationError):
            PoolingBlock(spec, {k: np.stack([v] * 4) for k, v in params.items()}, 4)


class TestPoolParamsArrays:
    def test_stored_arrays_by_flat_name(self):
        params = se_params(np.zeros((2, 4)), np.ones(2), np.zeros((4, 2)), np.ones(4))
        block = PoolingBlock(PoolSpec("SESMP", POOL22, channels=4), params)
        arrays = block.params()
        # the method's trainable order: it fixes the optimizer's flat vector
        assert list(arrays) == ["se_f1_weight", "se_f1_bias", "se_f2_weight", "se_f2_bias"]
        assert block.pool_params is params
        for name, arr in arrays.items():
            assert arr is params[name]  # the optimizer updates these in place
        tau = np.zeros(4)
        assert PoolingBlock(PoolSpec("SMP_trainable", POOL22, channels=4), {"tau": tau}).params()["tau"] is tau
        assert PoolingBlock(PoolSpec("LSE", POOL22, channels=4), {"sharpness": 2.0}).params() == {}

    def test_snapshot_reports_every_stored_parameter(self):
        config = ToyNetConfig(lse_sharpness=2.0)
        rng = np.random.default_rng(0)
        (lse, _), (lnp, _), (se, _) = (
            _snapshots(ToyNet(config, method, [rng]), 0) for method in ("LSE", "LNP", "SESMP")
        )
        assert lse.params == {"sharpness": [2.0]}
        assert lnp.params == {"p_raw": [float(np.log(np.expm1(2.0)))], "p": [norm_exponent(np.log(np.expm1(2.0)))]}
        assert lnp.params["p"][0] == pytest.approx(3.0)
        assert sorted(se.params) == ["se_f1_bias", "se_f1_weight", "se_f2_bias", "se_f2_weight"]
        assert len(se.params["se_f1_weight"]) == 2 * 8  # row-major (hidden, channels): 8 / SE_RATIO by 8


windows = st.lists(
    st.floats(-100.0, 100.0, allow_nan=False, allow_subnormal=False), min_size=1, max_size=9
).map(np.array)


class TestWindowProperties:
    """Derandomized property tests of the window-level operators."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=windows, ordinal=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
           r=st.floats(1e-3, 1e3), tau=st.floats(-50.0, 50.0))
    def test_bounded_by_window_min_and_max(self, x, ordinal, r, tau):
        w = np.asarray(ordinal[: x.size]) + 1e-3
        slack = 1e-12 * np.abs(x).max()  # rounding of a convex combination
        for y in (avg_pool(x), ordinal_pool(x, w / w.sum()), smooth_max_pool(x, tau), lse_pool(x, r)):
            assert x.min() - slack <= y <= x.max() + slack

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=windows, p_raw=st.floats(-10.0, 10.0), dp=st.floats(1e-6, 10.0))
    def test_norm_pool_does_not_decrease_with_p(self, x, p_raw, dp):
        # the power-mean inequality: ((1/n) sum |x|^p)^(1/p) is non-decreasing in p
        assert norm_exponent(p_raw + dp) > norm_exponent(p_raw)
        lo, hi = learned_norm_pool(x, p_raw), learned_norm_pool(x, p_raw + dp)
        assert hi >= lo * (1.0 - 1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(x=windows, c=st.floats(-100.0, 100.0), tau=st.floats(-5.0, 5.0))
    def test_smooth_max_is_shift_equivariant(self, x, c, tau):
        scale = np.abs(x).max() + abs(c)
        assert smooth_max_pool(x + c, tau) == pytest.approx(
            smooth_max_pool(x, tau) + c, rel=1e-12, abs=1e-12 * scale
        )


def stacked_calls(rng, m, n):
    """Each operator on an (m, n) stack: (call, stack), where call takes the stack
    or one of its rows.  Windows are stacked for every operator, and each parameter
    is stacked on a fixed window: weight rows as (m, n), scalars as an (m, 1) column."""
    x = rng.uniform(-2.0, 2.0, size=(m, n))
    w = rng.uniform(-1.0, 1.0, size=(m, n))
    simplex = rng.dirichlet(np.full(n, 2.0), size=m)
    column = rng.uniform(-3.0, 3.0, size=(m, 1))
    x0, w0, s0, c0 = x[0], w[0], simplex[0], float(column[0, 0])
    return {
        "max_pool": (max_pool, x),
        "avg_pool": (avg_pool, x),
        "nearest_pool": (nearest_pool, x),
        "conv_pool": (lambda v: conv_pool(v, w0), x),
        "conv_pool/weights": (lambda v: conv_pool(x0, v), w),
        "gated_pool": (lambda v: gated_pool(v, w0), x),
        "gated_pool/gate_w": (lambda v: gated_pool(x0, v), w),
        "ordinal_pool": (lambda v: ordinal_pool(v, s0), x),
        "ordinal_pool/weights": (lambda v: ordinal_pool(x0, v), simplex),
        "learned_norm_pool": (lambda v: learned_norm_pool(v, c0), x),
        "learned_norm_pool/p_raw": (lambda v: learned_norm_pool(x0, v), column),
        "lse_pool": (lambda v: lse_pool(v, abs(c0) + 0.1), x),
        "lse_pool/sharpness": (lambda v: lse_pool(x0, v), np.abs(column) + 0.1),
        "smooth_max_pool": (lambda v: smooth_max_pool(v, c0), x),
        "smooth_max_pool/tau": (lambda v: smooth_max_pool(x0, v), column),
    }


class TestStackedWindows:
    """A 2-D input is a stack of windows, reduced over its last axis."""

    @pytest.mark.parametrize("case", list(stacked_calls(np.random.default_rng(0), 1, 1)))
    def test_each_row_matches_its_single_window_bit_for_bit(self, case):
        rng = np.random.default_rng(21)
        for n in range(1, 10):
            for m in (1, 2, 7, 2 * n):
                call, stack = stacked_calls(rng, m, n)[case]
                out = call(stack)
                assert isinstance(out, np.ndarray) and out.shape == (m,)
                for i in range(m):
                    one = call(stack[i])
                    assert type(one) is float
                    assert one == out[i], (n, m, i)

    def test_zero_rows_of_a_norm_stack_give_zero(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
        out = learned_norm_pool(x, 0.3)
        assert out[0] == 0.0 and out[2] == 0.0
        assert out[1] == learned_norm_pool(x[1], 0.3)

    @pytest.mark.parametrize("row", [0, 2])
    def test_one_stacked_ordinal_row_off_the_simplex_raises(self, row):
        rng = np.random.default_rng(3)
        weights = rng.dirichlet(np.full(4, 2.0), size=3)
        ordinal_pool(X, weights)  # on the simplex: accepted
        for bad in ([0.5, 0.5, 0.5, 0.5], [-0.5, 0.5, 0.5, 0.5]):
            off = weights.copy()
            off[row] = bad
            with pytest.raises(ParameterError):
                ordinal_pool(X, off)

    def test_one_non_finite_row_raises_for_smooth_max(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1.0, 1.0, size=(5, 4))
        smooth_max_pool(x, 1.0)
        for bad in (np.nan, np.inf, -np.inf):
            stack = x.copy()
            stack[3, 1] = bad
            with pytest.raises(DivergedRunError):
                smooth_max_pool(stack, 1.0)
            column = np.ones((5, 1))
            column[3, 0] = bad
            with pytest.raises(ParameterError):
                smooth_max_pool(x[0], column)

    def test_scalar_parameter_given_as_a_vector_raises(self):
        # p_raw, sharpness and tau are a scalar or an (m, 1) column, never cut to a first entry
        x = np.linspace(-1.0, 1.0, 4)
        for call in (
            lambda: smooth_max_pool(x, [1.0, 99.0, 5.0]),
            lambda: learned_norm_pool(x, [0.3, 7.0]),
            lambda: lse_pool(x, [1.0, 2.0]),
            lambda: smooth_max_pool(np.ones((3, 4)), np.ones((3, 2))),
            lambda: learned_norm_pool(np.ones((3, 4)), np.full(3, 0.3)),
            lambda: lse_pool(np.ones((3, 4)), np.full(3, 2.0)),
        ):
            with pytest.raises(ShapeError):
                call()
        assert smooth_max_pool(x, [2.0]) == smooth_max_pool(x, 2.0)
        assert learned_norm_pool(x, np.full(1, 0.3)) == learned_norm_pool(x, 0.3)
        assert lse_pool(x, [2.0]) == lse_pool(x, 2.0)
        np.testing.assert_array_equal(lse_pool(np.ones((3, 4)), np.ones((3, 1))), np.ones(3))

    def test_empty_windows_and_bad_sharpness_still_rejected(self):
        for op in (max_pool, avg_pool, nearest_pool):
            with pytest.raises(ShapeError):
                op(np.empty((3, 0)))
        with pytest.raises(ShapeError):
            conv_pool(np.ones((3, 4)), np.ones(3))
        for r in (0.0, -1.0, np.inf, np.nan):
            for sharpness in (r, np.array([[1.0], [r], [1.0]])):  # every row of a column is checked
                with pytest.raises(ParameterError):
                    lse_pool(np.ones((3, 4)), sharpness)


#: every window operator by name, with valid parameters for a 4-entry window
OPERATOR_PARAMS = {
    "max_pool": (),
    "avg_pool": (),
    "nearest_pool": (),
    "conv_pool": (np.full(4, 0.25),),
    "gated_pool": (np.linspace(-0.5, 0.5, 4),),
    "ordinal_pool": (np.full(4, 0.25),),
    "learned_norm_pool": (0.5,),
    "lse_pool": (1.0,),
    "smooth_max_pool": (0.5,),
}
ADAPTERS = [(getattr(ops, name), params) for name, params in OPERATOR_PARAMS.items()] + [
    (getattr(grads, f"{name}_grad"), params) for name, params in OPERATOR_PARAMS.items()
]


class TestValidationContract:
    """Every window operator and gradient applies the one input rule and the
    parameter rules of ``ops.FIELD_RULES``."""

    @pytest.mark.parametrize("adapter, params", ADAPTERS, ids=[a.__name__ for a, _ in ADAPTERS])
    def test_non_finite_window_or_parameter_raises(self, adapter, params):
        adapter(X, *params)
        for bad in (np.nan, np.inf, -np.inf):
            x = X.copy()
            x[2] = bad
            with pytest.raises(DivergedRunError):
                adapter(x, *params)
            for i in range(len(params)):
                param = np.array(params[i], dtype=np.float64)
                param.flat[-1] = bad
                with pytest.raises(ParameterError):
                    adapter(X, *params[:i], param, *params[i + 1 :])

    @pytest.mark.parametrize("entry", [ops.pool, grads.pool_grads], ids=["pool", "pool_grads"])
    @pytest.mark.parametrize(
        "method, x, params, error",
        [
            ("CONV", X, {}, ConfigurationError),  # a missing key: was a bare KeyError
            ("MP", X, {"tau": 1.0}, ConfigurationError),  # a key MP does not take
            ("CONV", [1.0, 2.0, 3.0], {"conv_w": [1.0, 1.0]}, ShapeError),  # a short weight row
            ("OP", [1.0, 2.0], {"ordinal_w": [3.0, 3.0]}, ParameterError),  # pooled to 9.0
            ("LSE", [1.0, 2.0], {"sharpness": -1.0}, ParameterError),
            ("CONV", np.ones((3, 2)), {"conv_w": np.ones((2, 2))}, ShapeError),  # 3 windows, 2 rows
            ("WAT", X, {}, ConfigurationError),
            ("SESMP", X, {"tau": 1.0}, ConfigurationError),  # pools through its block's branch
        ],
    )
    def test_pool_applies_the_rule_table(self, entry, method, x, params, error):
        with pytest.raises(error):
            entry(method, x, **params)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry", [ops.pool, grads.pool_grads], ids=["pool", "pool_grads"])
    @pytest.mark.parametrize(
        "method, x, params",
        [
            ("LSE", [1e10, 2.0], {"sharpness": 1e300}),  # r * x overflows: pooled to NaN
            ("SMP_trainable", [1e300, -1e300], {"tau": 1e10}),  # tau * x overflows both ways
        ],
    )
    def test_overflowing_product_raises_naming_the_method(self, entry, method, x, params):
        with pytest.raises(DivergedRunError, match=method):
            entry(method, x, **params)

    @pytest.mark.filterwarnings("error")
    def test_overflow_in_the_operators_is_no_warning(self):
        with pytest.raises(DivergedRunError, match="LSE"):
            lse_pool([1e10, 2.0], 1e300)
        with pytest.raises(DivergedRunError, match="SMP_trainable"):
            smooth_max_pool([1e300, -1e300], 1e10)
        # w . x overflows to inf, and the saturated gate still blends a finite result
        assert gated_pool([1e300, 1e300], [1e10, 1.0]) == 1e300

    def test_one_unknown_method_rule(self):
        with pytest.raises(ConfigurationError) as spec_error:
            PoolSpec("WAT", POOL22, channels=2)
        with pytest.raises(ConfigurationError) as check_error:
            check_method("WAT")
        assert str(check_error.value) == str(spec_error.value)
