"""Batched layers against the per-window reference path and the FD oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poolbench import (
    PoolSpec,
    WindowSpec,
    avg_pool,
    conv_pool,
    extract_window,
    gated_pool,
    global_avg_pool,
    learned_norm_pool,
    lse_pool,
    map_windows,
    max_pool,
    nearest_pool,
    ordinal_pool,
    se_temperatures,
    sigmoid,
    smooth_max_pool,
)
from poolbench.grads import (
    gated_pool_grad,
    learned_norm_pool_grad,
    max_pool_grad,
    ordinal_pool_grad,
)
from poolbench.layers import (
    Conv2D,
    Linear,
    PoolingBlock,
    ReLU,
    ToyNet,
    ToyNetConfig,
    init_pool_params,
    softmax_cross_entropy,
    window_views,
)
from poolbench.ops import norm_exponent

POOL22 = WindowSpec(2, 2, 2, 2)


def make_block(method, channels=4, rng=None, window=POOL22):
    rng = rng or np.random.default_rng(0)
    spec = PoolSpec(method, window, channels)
    params = init_pool_params(spec, rng, se_ratio=2)
    # move trainable state off its symmetric initial point
    if method == "CONV":
        params.conv_w += rng.uniform(-0.1, 0.4, size=params.conv_w.shape)
    if method == "GP":
        params.gate_w += rng.normal(0.0, 0.7, size=params.gate_w.shape)
    if method == "OP":
        w = rng.dirichlet(np.full(window.n, 3.0))
        params.ordinal_w[...] = w
    if method == "LNP":
        params.p_raw += rng.uniform(-0.5, 0.5)
    if method in ("SESMP", "SEMP"):
        params.se_f1.bias[...] = rng.uniform(-0.3, 0.3, size=params.se_f1.bias.shape)
        params.se_f2.bias[...] = rng.uniform(-0.3, 0.3, size=params.se_f2.bias.shape)
    return PoolingBlock(spec, params)


def reference_forward(block, x):
    """Oracle: one sample and channel at a time through the window-level ops."""
    p = block.pool_params
    method = block.method
    outs = []
    for b in range(x.shape[0]):
        sample = x[b]
        if method == "SESMP":
            tau = se_temperatures(
                global_avg_pool(sample), p.se_f1, p.se_f2, p.se_ratio
            )
            planes = [
                map_windows(
                    sample[c][None], block.window, lambda w, t=tau[c]: smooth_max_pool(w, t)
                )[0]
                for c in range(sample.shape[0])
            ]
            outs.append(np.stack(planes))
            continue
        if method == "SEMP":
            scales = sigmoid(
                se_temperatures(global_avg_pool(sample), p.se_f1, p.se_f2, p.se_ratio)
            )
            outs.append(
                map_windows(sample * scales[:, None, None], block.window, max_pool)
            )
            continue
        per_channel = {
            "MP": lambda c: max_pool,
            "AP": lambda c: avg_pool,
            "NN": lambda c: nearest_pool,
            "CONV": lambda c: (lambda w: conv_pool(w, p.conv_w)),
            "GP": lambda c: (lambda w: gated_pool(w, p.gate_w)),
            "OP": lambda c: (lambda w: ordinal_pool(w, p.ordinal_w)),
            "LNP": lambda c: (lambda w: learned_norm_pool(w, p.p_raw[0])),
            "LSE": lambda c: (lambda w: lse_pool(w, p.sharpness)),
            "SMP_fixed": lambda c: (lambda w: smooth_max_pool(w, p.tau[c])),
            "SMP_trainable": lambda c: (lambda w: smooth_max_pool(w, p.tau[c])),
        }[method]
        planes = [
            map_windows(sample[c][None], block.window, per_channel(c))[0]
            for c in range(sample.shape[0])
        ]
        outs.append(np.stack(planes))
    return np.stack(outs)


def assert_backward_matches_fd(block, x, rng, input_coords):
    """Block backward against central differences of <probe, block(x)>.

    Checks ``input_coords`` random input coordinates and up to six
    coordinates of every trainable parameter.
    """
    probe = rng.normal(size=block.forward(x).shape)

    def scalar(xx):
        return float((probe * block.forward(xx)).sum())

    block.forward(x)
    dx = block.backward(probe)

    h = 1e-6
    flat_x = x.reshape(-1)
    idx = rng.choice(flat_x.size, size=min(input_coords, flat_x.size), replace=False)
    for i in idx:
        bumped = flat_x.copy()
        bumped[i] += h
        hi = scalar(bumped.reshape(x.shape))
        bumped[i] -= 2 * h
        lo = scalar(bumped.reshape(x.shape))
        numeric = (hi - lo) / (2 * h)
        assert numeric == pytest.approx(dx.reshape(-1)[i], rel=1e-4, abs=1e-7)

    for name, arr in block.params().items():
        grad = block.grads()[name]
        flat = arr.reshape(-1)
        for i in rng.choice(flat.size, size=min(6, flat.size), replace=False):
            saved = flat[i]
            flat[i] = saved + h
            hi = scalar(x)
            flat[i] = saved - h
            lo = scalar(x)
            flat[i] = saved
            numeric = (hi - lo) / (2 * h)
            assert numeric == pytest.approx(
                grad.reshape(-1)[i], rel=1e-4, abs=1e-7
            ), f"{name}[{i}]"


ALL_METHODS = [
    "MP",
    "AP",
    "NN",
    "CONV",
    "GP",
    "OP",
    "LNP",
    "LSE",
    "SMP_fixed",
    "SMP_trainable",
    "SESMP",
    "SEMP",
]


class TestWindowViews:
    def test_round_trip_partition(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 6, 2, 3))  # views slice the two leading axes
        views = window_views(x, POOL22)
        assert len(views) == 4 and all(v.shape == (3, 3, 2, 3) for v in views)
        # for s = k the views partition the grid: copying them back rebuilds x
        rebuilt = np.zeros_like(x)
        for dst, src in zip(window_views(rebuilt, POOL22), views):
            dst[...] = src
        np.testing.assert_array_equal(rebuilt, x)

    def test_overlapping_scatter_accumulates(self):
        counts = np.zeros((3, 3, 1, 1))
        for view in window_views(counts, WindowSpec(2, 2, 1, 1)):
            view += 1.0
        np.testing.assert_array_equal(
            counts[:, :, 0, 0], [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]
        )

    def test_windows_match_extraction(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 7, 1, 2))
        spec = WindowSpec(2, 3, 1, 2)
        views = window_views(x, spec)
        assert len(views) == spec.n and views[0].shape == (4, 3, 1, 2)
        for c in range(2):
            for i in range(4):
                for j in range(3):
                    np.testing.assert_array_equal(
                        [v[i, j, 0, c] for v in views], extract_window(x[:, :, 0, c], spec, i + 1, j + 1)
                    )


class TestPoolingBlockForward:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_per_window_reference(self, method):
        rng = np.random.default_rng(3)
        block = make_block(method, rng=rng)
        x = rng.normal(size=(3, 4, 6, 6))
        got = block.forward(x)
        expected = reference_forward(block, x)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_output_shape(self, method):
        rng = np.random.default_rng(4)
        block = make_block(method, rng=rng)
        out = block.forward(rng.normal(size=(2, 4, 8, 8)))
        assert out.shape == (2, 4, 4, 4)

    def test_non_finite_input_rejected(self):
        block = make_block("MP")
        x = np.zeros((1, 4, 4, 4))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            block.forward(x)


class TestPoolingBlockBackward:
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_matches_finite_differences(self, method):
        rng = np.random.default_rng(5)
        block = make_block(method, rng=rng)
        # keep clear of ties and ReLU kinks so FD is well-defined
        while True:
            x = rng.uniform(-1.0, 1.0, size=(2, 4, 4, 4))
            win = np.sort(np.stack(window_views(x.transpose(2, 3, 0, 1), POOL22)), axis=0)
            if (win[-1] - win[-2]).min() > 1e-2:
                break
        assert_backward_matches_fd(block, x, rng, input_coords=24)

    @pytest.mark.parametrize(
        "window", [[0.0, 0.0, 0.0, 0.0], [1.0, 3.0, 3.0, 0.0], [2.0, 2.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0]]
    )
    @pytest.mark.parametrize("method", ["MP", "GP", "OP"])
    def test_ties_follow_window_level_rule(self, method, window):
        # ReLU outputs tie at zero; the first tied entry in window order wins
        block = make_block(method, channels=1)
        x = np.array(window).reshape(1, 1, 2, 2)
        block.forward(x)
        dx = block.backward(np.ones((1, 1, 1, 1)))
        p = block.pool_params
        bundle = {
            "MP": lambda: max_pool_grad(window),
            "GP": lambda: gated_pool_grad(window, p.gate_w),
            "OP": lambda: ordinal_pool_grad(window, p.ordinal_w),
        }[method]()
        np.testing.assert_allclose(dx.reshape(-1), bundle.d_input, rtol=1e-14, atol=1e-15)
        for name, grad in bundle.d_params.items():
            np.testing.assert_allclose(block.grads()[name], grad, rtol=1e-14, atol=1e-15)

    def test_gradients_accumulate_until_zeroed(self):
        rng = np.random.default_rng(6)
        block = make_block("CONV", rng=rng)
        x = rng.normal(size=(1, 4, 4, 4))
        dy = np.ones_like(block.forward(x))
        block.backward(dy)
        once = block.grads()["conv_w"].copy()
        block.forward(x)
        block.backward(dy)
        np.testing.assert_allclose(block.grads()["conv_w"], 2 * once)



class TestLearnedNormZeros:
    """The LNP block on exact zeros: windows with some zero entries and one
    all-zero window, against the window-level value and gradient.  p = 3
    exactly is an integer power; the other exponents are not."""

    @pytest.mark.parametrize("p", [3.0, 1.05, 2.5, 7.5])
    def test_matches_window_reference(self, p):
        rng = np.random.default_rng(17)
        block = make_block("LNP", channels=2, rng=rng)
        p_raw = float(np.log(np.expm1(p - 1.0)))
        assert norm_exponent(p_raw) == p
        block.pool_params.p_raw[0] = p_raw
        x = rng.uniform(-2.0, 2.0, size=(2, 2, 4, 4))
        x[rng.random(x.shape) < 0.4] = 0.0
        x[0, 1, :2, 2:] = 0.0  # one all-zero window
        x[1, 0, 2:, :2] = [[0.0, 1.5], [0.0, 0.0]]  # one non-zero entry
        windows = np.stack(window_views(x.transpose(2, 3, 0, 1), POOL22))  # (4, 2, 2, B, C)
        windows = np.moveaxis(windows, 0, -1)
        assert (windows == 0.0).any(axis=-1).sum() >= 4
        dy = rng.normal(size=(2, 2, 2, 2))

        y = block.forward(x)
        dx = block.backward(dy)

        expected_y = np.zeros_like(y)
        expected_dx = np.zeros_like(windows)
        expected_dp = 0.0
        for i, j, b, c in np.ndindex(windows.shape[:-1]):
            window = windows[i, j, b, c]
            expected_y[b, c, i, j] = learned_norm_pool(window, p_raw)
            bundle = learned_norm_pool_grad(window, p_raw)
            expected_dx[i, j, b, c] = dy[b, c, i, j] * bundle.d_input
            expected_dp += dy[b, c, i, j] * bundle.d_params["p_raw"][0]
        assert expected_y[0, 1, 0, 1] == 0.0
        np.testing.assert_allclose(y, expected_y, rtol=1e-13, atol=0.0)
        dx_windows = np.moveaxis(
            np.stack(window_views(dx.transpose(2, 3, 0, 1), POOL22)), 0, -1
        )
        np.testing.assert_allclose(dx_windows, expected_dx, rtol=1e-13, atol=0.0)
        assert (dx_windows[windows == 0.0] == 0.0).all()
        np.testing.assert_allclose(block.grads()["p_raw"], [expected_dp], rtol=1e-12, atol=0.0)


def channels_last(a):
    """The same (B, C, H, W) values, stored as a C-contiguous (H, W, B, C) buffer."""
    stored = np.ascontiguousarray(a.transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)
    assert stored.shape == a.shape and not stored.flags.c_contiguous
    return stored


class TestMemoryOrder:
    """C-contiguous (B, C, H, W) and channels-last storage of the same values
    give the same y, dx and parameter gradients.  Batch 3 differs from the
    4 channels, so a per-channel factor broadcast along the batch axis fails."""

    @staticmethod
    def assert_same_for_both_orders(make_layer, x, dy):
        results = []
        for store in (np.ascontiguousarray, channels_last):
            layer = make_layer()
            y = layer.forward(store(x))
            dx = layer.backward(store(dy))
            results.append((y, dx, {k: v.copy() for k, v in layer.grads().items()}))
        (y0, dx0, g0), (y1, dx1, g1) = results
        np.testing.assert_allclose(y1, y0, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(dx1, dx0, rtol=1e-13, atol=0.0)
        assert g1.keys() == g0.keys()
        for name in g0:
            np.testing.assert_allclose(g1[name], g0[name], rtol=1e-13, atol=0.0, err_msg=name)

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_pooling_block(self, method):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(3, 4, 6, 6))
        dy = rng.normal(size=(3, 4, 3, 3))
        self.assert_same_for_both_orders(lambda: make_block(method, rng=np.random.default_rng(42)), x, dy)

    def test_conv(self):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(3, 4, 7, 6))
        dy = rng.normal(size=(3, 5, 5, 4))

        def conv():
            layer = Conv2D(4, 5, 3, np.random.default_rng(44))
            layer.bias[...] = np.arange(5.0)
            return layer

        self.assert_same_for_both_orders(conv, x, dy)


@st.composite
def window_geometry(draw):
    """A window spec and an input size with 1-3 windows per axis.

    Covers non-square windows, overlapping (k > s) and strided (s > k)
    windows, and trailing rows/columns that fit no complete window.
    """
    k1, k2, s1, s2 = (draw(st.integers(1, 3)) for _ in range(4))
    h = (draw(st.integers(1, 3)) - 1) * s1 + k1 + draw(st.integers(0, s1 - 1))
    w = (draw(st.integers(1, 3)) - 1) * s2 + k2 + draw(st.integers(0, s2 - 1))
    return WindowSpec(k1, k2, s1, s2), h, w


def clear_of_se_kink(block, x):
    """True unless a squeeze-and-excitation ReLU input lies within FD range of 0."""
    f1 = block.pool_params.se_f1
    return f1 is None or np.abs(x.mean(axis=(2, 3)) @ f1.weight.T + f1.bias).min() > 1e-3


class TestRandomGeometry:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(geometry=window_geometry(), seed=st.integers(0, 2**32 - 1))
    def test_block_matches_reference_and_fd(self, method, geometry, seed):
        window, h, w = geometry
        rng = np.random.default_rng(seed)
        block = make_block(method, rng=rng, window=window)
        size = 2 * 4 * h * w
        while True:
            # distinct entries 0.02 apart and none zero: no ties, no |x| kink
            x = ((rng.permutation(size) - size // 2 + 0.25) * 0.02).reshape(2, 4, h, w)
            if clear_of_se_kink(block, x):
                break
        np.testing.assert_allclose(
            block.forward(x), reference_forward(block, x), rtol=1e-13, atol=1e-13
        )
        assert_backward_matches_fd(block, x, rng, input_coords=16)


class TestConvAndHead:
    def test_conv_matches_direct_correlation(self):
        rng = np.random.default_rng(7)
        conv = Conv2D(2, 3, kernel=3, rng=rng)
        for shape in [(2, 2, 5, 5), (3, 2, 6, 9), (1, 2, 5, 5)]:  # square, non-square, batch 1
            x = rng.normal(size=shape)
            out = conv.forward(x)
            b, _, h, w = shape
            # direct quadruple-loop oracle
            expected = np.zeros((b, 3, h - 2, w - 2))
            for n in range(b):
                for o in range(3):
                    for i in range(h - 2):
                        for j in range(w - 2):
                            patch = x[n, :, i : i + 3, j : j + 3]
                            expected[n, o, i, j] = (patch * conv.weight[o]).sum() + conv.bias[o]
            assert out.shape == expected.shape
            np.testing.assert_allclose(out, expected, atol=1e-12)
            conv.bias[...] = rng.normal(size=3)

    def test_conv_bias_gradient_matches_fd(self):
        rng = np.random.default_rng(18)
        conv = Conv2D(2, 3, kernel=3, rng=rng)
        x = rng.normal(size=(2, 2, 5, 7))
        probe = rng.normal(size=conv.forward(x).shape)
        conv.backward(probe)
        h = 1e-6
        for i in range(3):
            saved = conv.bias[i]
            conv.bias[i] = saved + h
            hi = float((probe * conv.forward(x)).sum())
            conv.bias[i] = saved - h
            lo = float((probe * conv.forward(x)).sum())
            conv.bias[i] = saved
            assert (hi - lo) / (2 * h) == pytest.approx(conv.grads()["bias"][i], rel=1e-5, abs=1e-8)

    def test_conv_without_input_grad_accumulates_the_same_parameter_grads(self):
        rng = np.random.default_rng(19)
        full = Conv2D(2, 3, kernel=3, rng=np.random.default_rng(5))
        params_only = Conv2D(2, 3, kernel=3, rng=np.random.default_rng(5), input_grad=False)
        for _ in range(2):  # gradients accumulate across calls
            x = rng.normal(size=(2, 2, 6, 5))
            dy = rng.normal(size=(2, 3, 4, 3))
            full.forward(x)
            params_only.forward(x)
            assert full.backward(dy).shape == x.shape
            assert params_only.backward(dy) is None
        for name in ("weight", "bias"):
            np.testing.assert_array_equal(params_only.grads()[name], full.grads()[name])

    def test_toynet_first_conv_skips_its_input_gradient(self):
        rng = np.random.default_rng(20)
        net = ToyNet(ToyNetConfig(), "MP", rng)
        assert not net.conv1.input_grad and net.conv2.input_grad
        net.forward(rng.normal(size=(2, 1, 16, 16)))
        assert net.backward(rng.normal(size=(2, 4)) / 2) is None
        assert net.grads()["conv1.weight"].any()

    def test_conv_backward_matches_fd(self):
        rng = np.random.default_rng(8)
        conv = Conv2D(2, 3, kernel=3, rng=rng)
        x = rng.normal(size=(2, 2, 6, 6))
        probe = rng.normal(size=conv.forward(x).shape)

        def scalar():
            return float((probe * conv.forward(x)).sum())

        conv.forward(x)
        dx = conv.backward(probe)
        h = 1e-6
        flat = x.reshape(-1)
        for i in rng.choice(flat.size, size=12, replace=False):
            saved = flat[i]
            flat[i] = saved + h
            hi = scalar()
            flat[i] = saved - h
            lo = scalar()
            flat[i] = saved
            assert (hi - lo) / (2 * h) == pytest.approx(dx.reshape(-1)[i], rel=1e-5, abs=1e-8)
        wflat = conv.weight.reshape(-1)
        grad_w = conv.grads()["weight"].reshape(-1)
        for i in rng.choice(wflat.size, size=12, replace=False):
            saved = wflat[i]
            wflat[i] = saved + h
            hi = scalar()
            wflat[i] = saved - h
            lo = scalar()
            wflat[i] = saved
            assert (hi - lo) / (2 * h) == pytest.approx(grad_w[i], rel=1e-5, abs=1e-8)

    def test_linear_backward(self):
        rng = np.random.default_rng(9)
        lin = Linear(5, 3, rng=rng)
        x = rng.normal(size=(4, 5))
        dy = rng.normal(size=(4, 3))
        lin.forward(x)
        dx = lin.backward(dy)
        np.testing.assert_allclose(dx, dy @ lin.weight, atol=1e-14)
        np.testing.assert_allclose(lin.grads()["weight"], dy.T @ x, atol=1e-14)
        np.testing.assert_allclose(lin.grads()["bias"], dy.sum(0), atol=1e-14)

    def test_relu(self):
        r = ReLU()
        x = np.array([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(r.forward(x), [[0.0, 2.0], [0.0, 0.0]])
        np.testing.assert_array_equal(
            r.backward(np.ones_like(x)), [[0.0, 1.0], [0.0, 0.0]]
        )


class TestLoss:
    def test_uniform_logits_give_log_k(self):
        logits = np.zeros((8, 4))
        labels = np.arange(8) % 4
        loss, _, acc = softmax_cross_entropy(logits, labels)
        assert loss == np.log(4.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(3, 4))
        labels = np.array([0, 2, 1])
        _, d, _ = softmax_cross_entropy(logits, labels)
        h = 1e-6
        flat = logits.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            hi, _, _ = softmax_cross_entropy(logits, labels)
            flat[i] = saved - h
            lo, _, _ = softmax_cross_entropy(logits, labels)
            flat[i] = saved
            assert (hi - lo) / (2 * h) == pytest.approx(d.reshape(-1)[i], abs=1e-8)

    def test_accuracy(self):
        logits = np.array([[2.0, 1.0], [0.0, 1.0], [3.0, 0.0]])
        _, _, acc = softmax_cross_entropy(logits, np.array([0, 1, 1]))
        assert acc == pytest.approx(2.0 / 3.0)


class TestToyNet:
    def test_forward_shapes(self):
        rng = np.random.default_rng(11)
        net = ToyNet(ToyNetConfig(), "MP", rng)
        logits = net.forward(rng.normal(size=(5, 1, 16, 16)))
        assert logits.shape == (5, 4)

    def test_param_names_cover_pooling(self):
        rng = np.random.default_rng(12)
        net = ToyNet(ToyNetConfig(), "SMP_trainable", rng)
        names = set(net.params())
        assert {"conv1.weight", "conv2.bias", "head.weight", "pool1.tau", "pool2.tau"} <= names

    def test_fixed_temperatures_not_trainable(self):
        rng = np.random.default_rng(13)
        net = ToyNet(ToyNetConfig(), "SMP_fixed", rng)
        assert not any(name.startswith("pool") for name in net.params())

    def test_simplex_params_only_for_ordinal(self):
        rng = np.random.default_rng(14)
        assert ToyNet(ToyNetConfig(), "OP", rng).simplex_params() == (
            "pool1.ordinal_w",
            "pool2.ordinal_w",
        )
        assert ToyNet(ToyNetConfig(), "MP", rng).simplex_params() == ()
