"""Batched layers against the test-only window formulas and the FD oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import window_reference as ref
from poolbench import PoolSpec, WindowSpec, sigmoid
from helpers import load_reference, with_zero_grads
from poolbench.layers import (
    Conv2D,
    Linear,
    PoolingBlock,
    ReLU,
    ToyNet,
    ToyNetConfig,
    softmax_cross_entropy,
)
from poolbench.ops import METHODS, POOLING, norm_exponent
from poolbench.optim import Adam, OptimConfig
from poolbench.tensor import scatter_windows, window_view
from window_reference import extract_window, global_avg_pool, map_windows, se_temperatures, window_entries

POOL22 = WindowSpec(2, 2, 2, 2)
#: the reduction ratio of make_block's SE branches: a hidden width of 2 on 4
#: channels, where the net's SE_RATIO of 4 would leave a single hidden unit
SE_RATIO = 2


def se_branch(channels, rng):
    """He-uniform SE branch arrays of hidden width channels / SE_RATIO and zero
    biases, drawn in the order the method's ``init`` draws its own."""
    hidden = channels // SE_RATIO
    bound1, bound2 = np.sqrt(6.0 / channels), np.sqrt(6.0 / hidden)
    w1 = rng.uniform(-bound1, bound1, (hidden, channels))
    return ref.se_params(w1, np.zeros(hidden), rng.uniform(-bound2, bound2, (channels, hidden)), np.zeros(channels))


def make_block(method, channels=4, rng=None, window=POOL22):
    rng = rng or np.random.default_rng(0)
    spec = PoolSpec(method, window, channels)
    if POOLING[method].se:
        params = se_branch(channels, rng)
    else:
        params = POOLING[method].init(window.n, channels, rng, 1.0)
    # move trainable state off its symmetric initial point
    if method == "CONV":
        params["conv_w"] += rng.uniform(-0.1, 0.4, size=params["conv_w"].shape)
    if method == "GP":
        params["gate_w"] += rng.normal(0.0, 0.7, size=params["gate_w"].shape)
    if method == "OP":
        w = rng.dirichlet(np.full(window.n, 3.0))
        params["ordinal_w"][...] = w
    if method == "LNP":
        params["p_raw"] += rng.uniform(-0.5, 0.5)
    if method in ("SESMP", "SEMP"):
        params["se_f1_bias"][...] = rng.uniform(-0.3, 0.3, size=params["se_f1_bias"].shape)
        params["se_f2_bias"][...] = rng.uniform(-0.3, 0.3, size=params["se_f2_bias"].shape)
    return with_zero_grads(PoolingBlock(spec, params))


def conv_layer(weight, **options):
    """A standalone Conv2D on ``weight`` with gradient arrays of its own."""
    return with_zero_grads(Conv2D(weight, **options))


def conv_weight(rng, c_in, c_out, kernel=3):
    """A He-normal (c_out, c_in, k, k) convolution weight, drawn as ToyNet draws its own."""
    return rng.normal(0.0, np.sqrt(2.0 / (c_in * kernel * kernel)), (c_out, c_in, kernel, kernel))


def reference_forward(block, x):
    """Oracle: one sample and channel at a time through the test-only window formulas."""
    p = block.pool_params
    method = block.method
    outs = []
    for b in range(x.shape[0]):
        sample = x[b]
        if method == "SESMP":
            tau = se_temperatures(global_avg_pool(sample), p, SE_RATIO)
            planes = [
                map_windows(
                    sample[c][None], block.window, lambda w, t=tau[c]: ref.smooth_max_pool(w, t)
                )[0]
                for c in range(sample.shape[0])
            ]
            outs.append(np.stack(planes))
            continue
        if method == "SEMP":
            scales = sigmoid(
                se_temperatures(global_avg_pool(sample), p, SE_RATIO)
            )
            outs.append(
                map_windows(sample * scales[:, None, None], block.window, ref.max_pool)
            )
            continue
        per_channel = {
            "MP": lambda c: ref.max_pool,
            "AP": lambda c: ref.avg_pool,
            "NN": lambda c: ref.nearest_pool,
            "CONV": lambda c: (lambda w: ref.conv_pool(w, p["conv_w"])),
            "GP": lambda c: (lambda w: ref.gated_pool(w, p["gate_w"])),
            "OP": lambda c: (lambda w: ref.ordinal_pool(w, p["ordinal_w"])),
            "LNP": lambda c: (lambda w: ref.learned_norm_pool(w, p["p_raw"][0])),
            "LSE": lambda c: (lambda w: ref.lse_pool(w, p["sharpness"])),
            "SMP_fixed": lambda c: (lambda w: ref.smooth_max_pool(w, p["tau"][c])),
            "SMP_trainable": lambda c: (lambda w: ref.smooth_max_pool(w, p["tau"][c])),
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
        x = rng.normal(size=(6, 6, 2, 3))  # the view slices the two leading axes
        view = window_view(x, POOL22)
        assert view.shape == (2, 2, 3, 3, 2, 3)
        # for s = k the windows partition the grid: copying them back rebuilds x
        rebuilt = np.zeros_like(x)
        window_view(rebuilt, POOL22)[...] = view
        np.testing.assert_array_equal(rebuilt, x)

    def test_overlapping_scatter_accumulates(self):
        counts = np.zeros((3, 3, 1, 1))
        view = window_view(counts, WindowSpec(2, 2, 1, 1))
        for u, v in np.ndindex(2, 2):
            view[u, v] += 1.0
        np.testing.assert_array_equal(
            counts[:, :, 0, 0], [[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]
        )

    def test_windows_match_extraction(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 7, 1, 2))
        spec = WindowSpec(2, 3, 1, 2)
        view = window_view(x, spec)
        assert view.shape == (2, 3, 4, 3, 1, 2)
        for c in range(2):
            for i in range(4):
                for j in range(3):
                    np.testing.assert_array_equal(
                        view[:, :, i, j, 0, c].reshape(-1), extract_window(x[:, :, 0, c], spec, i + 1, j + 1)
                    )

    def test_non_contiguous_input_is_refused(self):
        # the view is built on the input's buffer, which numpy lends only from a contiguous
        # array: a strided, reversed or transposed one raises rather than giving a view
        x = np.zeros((6, 6, 2, 3))
        for bad, axis in ((x[::2], 0), (x[:, :, ::-1], 0), (x.transpose(2, 3, 0, 1), 2)):
            assert not bad.flags.c_contiguous
            with pytest.raises(ValueError):
                window_view(bad, POOL22, axis)


class TestScatter:
    """The one-assignment scatter of disjoint windows against the zero-and-add
    adjoint of the windows, read one placement at a time."""

    @staticmethod
    def added(shape, spec, parts, axis):
        """Zeros, with part k of window (i, j) added into its entry (u, v) = divmod(k, k2), part by part."""
        dx = np.zeros(shape)
        grid = np.moveaxis(dx, (axis, axis + 1), (0, 1))  # a view of dx, (H, W, ...)
        for k, part in enumerate(parts):
            u, v = divmod(k, spec.k2)
            part = np.moveaxis(part, (axis, axis + 1), (0, 1))  # (H', W', ...)
            for i, j in np.ndindex(part.shape[:2]):
                grid[spec.s1 * i + u, spec.s2 * j + v] += part[i, j]
        return dx

    @pytest.mark.parametrize("size", [14, 5])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_disjoint_windows_match_the_added_adjoint(self, size, axis):
        rng = np.random.default_rng(size + axis)
        shape = (2,) * axis + (size, size, 3, 2)
        h = size // 2
        parts = rng.normal(size=(4,) + (2,) * axis + (h, h, 3, 2))
        parts.reshape(-1)[::7] = -0.0
        parts.reshape(-1)[3::11] = np.nan
        got = scatter_windows(shape, POOL22, parts, axis)
        np.testing.assert_array_equal(got, self.added(shape, POOL22, parts, axis))
        assert np.isnan(got).sum() == np.isnan(parts).sum()
        # a (lead, S) view: the broadcast part of every entry of an average-pooling window
        shared = np.broadcast_to(parts[0], parts.shape)
        np.testing.assert_array_equal(scatter_windows(shape, POOL22, shared, axis), self.added(shape, POOL22, shared, axis))
        # nearest-neighbor pooling's one part: the other entries get 0
        np.testing.assert_array_equal(scatter_windows(shape, POOL22, parts[:1], axis), self.added(shape, POOL22, parts[:1], axis))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_rows_and_columns_outside_every_window_stay_zero(self, axis):
        shape = (2,) * axis + (5, 5, 3, 2)
        parts = np.full((4,) + (2,) * axis + (2, 2, 3, 2), np.nan)
        got = np.moveaxis(scatter_windows(shape, POOL22, parts, axis), (axis, axis + 1), (0, 1))
        assert np.isnan(got[:4, :4]).all()
        for edge in (got[4], got[:, 4]):
            assert (edge == 0.0).all() and not np.signbit(edge).any()

    def test_overlapping_windows_add(self):
        rng = np.random.default_rng(3)
        spec = WindowSpec(3, 3, 1, 1)
        parts = rng.normal(size=(9, 4, 3, 2, 1))
        np.testing.assert_array_equal(scatter_windows((6, 5, 2, 1), spec, parts), self.added((6, 5, 2, 1), spec, parts, 0))


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
            win = np.sort(window_entries(x, POOL22), axis=-1)
            if (win[..., -1] - win[..., -2]).min() > 1e-2:
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
        d_input, d_params = {
            "MP": lambda: ref.max_pool_grad(window),
            "GP": lambda: ref.gated_pool_grad(window, p["gate_w"]),
            "OP": lambda: ref.ordinal_pool_grad(window, p["ordinal_w"]),
        }[method]()
        np.testing.assert_allclose(dx.reshape(-1), d_input, rtol=1e-14, atol=1e-15)
        for name, grad in d_params.items():
            np.testing.assert_allclose(block.grads()[name], grad, rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("method", ["MP", "GP", "SEMP"])
    def test_tied_maxima_send_the_max_path_to_the_first_maximizer(self, method):
        # the backward builds the first-maximizer mask from the forward's cache
        rng = np.random.default_rng(8)
        block = make_block(method, rng=rng)
        if method == "GP":
            block.pool_params["gate_w"][...] = 0.0  # g = 1/2, and dx has no gate-weight term
        x = rng.integers(0, 3, size=(3, 4, 4, 4)).astype(float)  # entries in {0, 1, 2}
        dy = rng.uniform(0.5, 1.5, size=block.forward(x).shape)
        dx = block.backward(dy)
        # window entries on the last axis: (H', W', B, C, n)
        win, d_win = (window_entries(a, POOL22).transpose(2, 3, 0, 1, 4) for a in (x, dx))
        assert ((win == win.max(axis=-1, keepdims=True)).sum(axis=-1) > 1).mean() > 0.3  # many ties
        first = np.arange(4) == win.argmax(axis=-1)[..., None]  # argmax's tie rule
        # every other entry, tied or not, gets one gradient without the max path
        others = d_win[~first].reshape(win.shape[:-1] + (3,))
        np.testing.assert_array_equal(others, np.broadcast_to(others[..., :1], others.shape))
        max_path = dy.transpose(2, 3, 0, 1)
        if method == "GP":
            max_path = 0.5 * max_path  # (1 - g) dy
        if method == "SEMP":  # the SE branch scales each channel's input
            p = block.pool_params
            max_path = max_path * sigmoid([se_temperatures(global_avg_pool(s), p, SE_RATIO) for s in x])
        np.testing.assert_allclose(d_win[first].reshape(win.shape[:-1]) - others[..., 0], max_path, rtol=1e-12)

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

    @pytest.mark.parametrize("replicas", [None, 2])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_backward_leaves_its_forward_cache_as_it_was(self, method, replicas):
        # two backwards of one forward with the same dy: the same dx, and each
        # gradient grows by the same increment, so it doubles exactly
        rng = np.random.default_rng(METHODS.index(method))
        if replicas is None:
            block = make_block(method, rng=rng)
        else:
            rows = [make_block(method, rng=rng).pool_params for _ in range(replicas)]
            params = {name: np.stack([row[name] for row in rows]) for name in rows[0]}
            block = with_zero_grads(PoolingBlock(PoolSpec(method, POOL22, 4), params, replicas))
        x = np.maximum(rng.normal(size=(replicas,) * bool(replicas) + (3, 4, 6, 6)), 0.0)
        x[..., 0, 1] = x[..., 0, 0]  # tied window entries
        dy = rng.normal(size=block.forward(x).shape)
        first = block.backward(dy).copy()
        once = {name: grad.copy() for name, grad in block.grads().items()}
        np.testing.assert_array_equal(block.backward(dy), first)
        for name, grad in block.grads().items():
            np.testing.assert_array_equal(grad, 2.0 * once[name], err_msg=name)

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_a_replica_has_the_same_bits_in_any_stack_and_batch(self, method):
        # gradcheck takes an SE candidate's values at its bumped inputs from forwards
        # of its group's stacked block, 8 inputs a replica: a replica's bits must not
        # depend on the stack size S or on how many inputs share its forward.  A lone
        # input, B = 1, takes another of numpy's matrix-product paths in the SE branch,
        # whose last bits can differ from a batch's; its bits must not depend on S
        # either.  gradcheck compares no B = 1 value with one of a larger batch.
        rng = np.random.default_rng(METHODS.index(method))
        rows = [make_block(method, rng=rng).pool_params for _ in range(32)]
        x = rng.uniform(-1.0, 1.0, size=(32, 128, 4, 4, 4))
        dy = rng.uniform(-1.0, 1.0, size=(32, 8, 4, 2, 2))

        def stacked(s):
            params = {name: np.stack([row[name] for row in rows[:s]]) for name in rows[0]}
            return with_zero_grads(PoolingBlock(PoolSpec(method, POOL22, 4), params, s))

        def bits(a):
            return np.ascontiguousarray(a).view(np.int64)

        want = bits(stacked(32).forward(x))
        lone = bits(stacked(32).forward(np.ascontiguousarray(x[:, :1])))
        for s in (1, 2, 32):
            block = stacked(s)
            for b in (1, 2, 8, 128):
                got = bits(block.forward(np.ascontiguousarray(x[:s, :b])))
                np.testing.assert_array_equal(got, lone[:s] if b == 1 else want[:s, :b])
        whole = stacked(32)
        whole.forward(np.ascontiguousarray(x[:, :8]))
        want_dx = bits(whole.backward(dy))
        for s in (1, 2, 32):
            block = stacked(s)
            block.forward(np.ascontiguousarray(x[:s, :8]))
            np.testing.assert_array_equal(bits(block.backward(dy[:s])), want_dx[:s])
            for name, grad in block.grads().items():
                np.testing.assert_array_equal(bits(grad), bits(whole.grads()[name])[:s], err_msg=name)



class TestLearnedNormZeros:
    """The LNP block on exact zeros: windows with some zero entries and one
    all-zero window, against the reference window value and gradient.  p = 3
    exactly is an integer power; the other exponents are not."""

    @pytest.mark.parametrize("p", [3.0, 1.05, 2.5, 7.5])
    def test_matches_window_reference(self, p):
        rng = np.random.default_rng(17)
        block = make_block("LNP", channels=2, rng=rng)
        p_raw = float(np.log(np.expm1(p - 1.0)))
        assert norm_exponent(p_raw) == p
        block.pool_params["p_raw"][0] = p_raw
        x = rng.uniform(-2.0, 2.0, size=(2, 2, 4, 4))
        x[rng.random(x.shape) < 0.4] = 0.0
        x[0, 1, :2, 2:] = 0.0  # one all-zero window
        x[1, 0, 2:, :2] = [[0.0, 1.5], [0.0, 0.0]]  # one non-zero entry
        windows = window_entries(x, POOL22).transpose(2, 3, 0, 1, 4)  # (2, 2, B, C, 4)
        assert (windows == 0.0).any(axis=-1).sum() >= 4
        dy = rng.normal(size=(2, 2, 2, 2))

        y = block.forward(x)
        dx = block.backward(dy)

        expected_y = np.zeros_like(y)
        expected_dx = np.zeros_like(windows)
        expected_dp = 0.0
        for i, j, b, c in np.ndindex(windows.shape[:-1]):
            window = windows[i, j, b, c]
            expected_y[b, c, i, j] = ref.learned_norm_pool(window, p_raw)
            d_input, d_params = ref.learned_norm_pool_grad(window, p_raw)
            expected_dx[i, j, b, c] = dy[b, c, i, j] * d_input
            expected_dp += dy[b, c, i, j] * d_params["p_raw"][0]
        assert expected_y[0, 1, 0, 1] == 0.0
        np.testing.assert_allclose(y, expected_y, rtol=1e-13, atol=0.0)
        dx_windows = window_entries(dx, POOL22).transpose(2, 3, 0, 1, 4)
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
            layer = conv_layer(conv_weight(np.random.default_rng(44), 4, 5))
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
    p = block.pool_params
    return "se_f1_weight" not in p or np.abs(x.mean(axis=(2, 3)) @ p["se_f1_weight"].T + p["se_f1_bias"]).min() > 1e-3


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
        conv = conv_layer(conv_weight(rng, 2, 3))
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
        conv = conv_layer(conv_weight(rng, 2, 3))
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
        full = conv_layer(conv_weight(np.random.default_rng(5), 2, 3))
        params_only = conv_layer(conv_weight(np.random.default_rng(5), 2, 3), input_grad=False)
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
        conv = conv_layer(conv_weight(rng, 2, 3))
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

    def test_layers_accumulate_in_the_callers_gradient_arrays(self):
        # a layer allocates no gradients: it has none until bound to the caller's
        rng = np.random.default_rng(21)
        conv, lin = Conv2D(conv_weight(rng, 2, 3)), Linear(rng.normal(size=(3, 2)), np.zeros(3))
        block = PoolingBlock(PoolSpec("SESMP", POOL22, 4), se_branch(4, rng))
        assert conv.grads() is None and lin.grads() is None and block.grads() is None
        assert all(layer.grads() is None for layer in block._se_layers[::2])
        layers = ((conv, (2, 2, 5, 5)), (lin, (4, 2)), (block, (2, 4, 4, 4)))
        for layer, shape in layers:
            grads = {key: np.zeros_like(arr) for key, arr in layer.params().items()}
            layer.bind(layer.params(), grads)
            layer.backward(rng.normal(size=layer.forward(rng.normal(size=shape)).shape))
            assert all(layer.grads()[key] is grads[key] and grads[key].any() for key in grads)
        net = ToyNet(ToyNetConfig(), "SESMP", [rng, rng])
        for slot in ("conv1", "pool1", "conv2", "pool2", "head"):
            for key, grad in getattr(net, slot).grads().items():
                assert grad is net.grads()[f"{slot}.{key}"] and np.shares_memory(grad, net.flat_grads)

    def test_linear_backward(self):
        rng = np.random.default_rng(9)
        lin = with_zero_grads(Linear(rng.normal(0.0, 0.01, (3, 5)), np.zeros(3)))
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

    def test_relu_is_the_masked_product(self):
        # the value of x * (x > 0), and NaN stays NaN, so a diverged run still shows
        # (-inf gives 0, where the product gave 0 * -inf = NaN); the backward is bit
        # for bit dy * mask, the mask 1.0 where x > 0 and 0.0 elsewhere
        rng = np.random.default_rng(30)
        x = rng.normal(size=(2, 3, 4, 5))
        x.reshape(-1)[:8] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308]
        dy = rng.normal(size=x.shape)
        dy.reshape(-1)[8:12] = [np.nan, np.inf, -0.0, -np.inf]
        r = ReLU()
        with np.errstate(invalid="ignore"):
            want = np.where(x == -np.inf, 0.0, x * (x > 0))
            mask = (x > 0).astype(float)
            np.testing.assert_array_equal(r.forward(x), want)
            assert np.isnan(r.forward(x).reshape(-1)[2])
            got = r.backward(dy)
        np.testing.assert_array_equal(got.view(np.int64), (dy * mask).view(np.int64))


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


def _nets(method):
    """A single net, a stacked one of three replicas and that stack's rows 2 and 0."""
    config = ToyNetConfig()
    single = ToyNet(config, method, np.random.default_rng(40))
    stacked = ToyNet(config, method, [np.random.default_rng(s) for s in (41, 42, 43)])
    return {"single": single, "stacked": stacked, "selected": stacked.select([2, 0])}


def se_layer_problems(net):
    """Where the SE branches' Linear layers of a net miss its buffers: each
    layer's weight, bias and gradients must be the net's views of them."""
    problems = []
    for slot in ("pool1", "pool2"):
        se_layers = getattr(net, slot)._se_layers
        assert [type(layer) for layer in se_layers] == [Linear, ReLU, Linear]
        for layer, prefix in zip(se_layers[::2], ("se_f1", "se_f2")):
            for key in ("weight", "bias"):
                name = f"{slot}.{prefix}_{key}"
                arr, grad = layer.params()[key], (layer.grads() or {}).get(key)  # an unbound layer has none
                if not (arr is net.params()[name] and np.shares_memory(arr, net.flat_params)):
                    problems.append(name)
                if not (grad is net.grads()[name] and np.shares_memory(grad, net.flat_grads)):
                    problems.append(f"{name} gradient")
    return problems


class TestFlatBuffers:
    """Every trainable array and gradient of a net is a view of its two buffers."""

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_se_layers_are_built_on_the_buffers(self, method):
        for kind, net in _nets(method).items():
            assert se_layer_problems(net) == [], kind

    def test_a_bind_that_skips_the_se_branch_fails(self, monkeypatch):
        real = PoolingBlock.bind

        def skipping(block, params, grads):  # keeps the layers of the block's first bind
            se_layers = getattr(block, "_se_layers", None)
            real(block, params, grads)
            if se_layers is not None:
                block._se_layers = se_layers

        monkeypatch.setattr(PoolingBlock, "bind", skipping)
        for kind, net in _nets("SEMP").items():
            assert len(se_layer_problems(net)) == 16, kind

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_a_step_moves_every_replica_of_the_se_layers(self, method):
        data = np.random.default_rng(45)
        for kind, net in _nets(method).items():
            rows = net.replicas or 1
            images = data.normal(size=(rows * 3, 1, 16, 16))
            for slot in ("pool1", "pool2"):
                net.params()[f"{slot}.se_f1_bias"][...] = 1.0  # every hidden unit live: every array gets a gradient
            net.zero_grads()
            logits = net.forward(images)
            net.backward(data.normal(size=logits.shape))
            arrays = [
                (f"{slot} {i} {key}", arr)
                for slot in ("pool1", "pool2")
                for i, layer in enumerate(getattr(net, slot)._se_layers[::2])
                for key, arr in layer.params().items()
            ]
            before = [arr.copy() for _, arr in arrays]
            Adam(net.flat_params, OptimConfig(lr=1e-2), ()).step(net.flat_grads)
            for (name, arr), old in zip(arrays, before):
                assert (arr != old).reshape(rows, -1).any(axis=1).all(), f"{kind} {name} did not move"

    @pytest.mark.parametrize("method", METHODS)
    def test_every_array_is_a_view_of_the_buffers(self, method):
        for kind, net in _nets(method).items():
            rows = net.replicas or 1
            width = sum(a.size for a in net.params().values()) // rows
            assert net.flat_params.shape == net.flat_grads.shape == (rows, width)
            for name, arr in net.params().items():
                assert np.shares_memory(arr, net.flat_params), f"{kind} {name}"
                assert np.shares_memory(net.grads()[name], net.flat_grads), f"{kind} {name} gradient"
            assert list(net.grads()) == list(net.params())
            for slot in ("conv1", "pool1", "conv2", "pool2", "head"):
                layer = getattr(net, slot)
                for key, arr in layer.params().items():
                    assert arr is net.params()[f"{slot}.{key}"], f"{kind} {slot}.{key}"
                    assert layer.grads()[key] is net.grads()[f"{slot}.{key}"], f"{kind} {slot}.{key} gradient"
            for block in net.pooling_blocks:
                for name in set(block.pooling.fields) & set(block.pooling.trainable):
                    assert np.shares_memory(block._fields[name], net.flat_params), f"{kind} field {name}"
            # each row lists its replica's arrays in params() order
            layout = np.concatenate([arr.reshape(rows, -1) for arr in net.params().values()], axis=1)
            np.testing.assert_array_equal(layout, net.flat_params)

    def test_selected_rows_carry_their_parameters(self):
        nets = _nets("OP")
        np.testing.assert_array_equal(nets["selected"].flat_params, nets["stacked"].flat_params[[2, 0]])
        assert not np.shares_memory(nets["selected"].flat_params, nets["stacked"].flat_params)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_forward_after_a_step_reads_the_updated_weights(self, method):
        # the reference network shares no code with poolbench: it reads the
        # parameters from params(), and must agree after the optimizer moved them
        reference = load_reference()
        data = np.random.default_rng(44)
        for kind, net in _nets(method).items():
            rows = net.replicas or 1
            images = data.normal(size=(rows * 3, 1, 16, 16))
            net.zero_grads()
            net.forward(images)
            net.backward(data.normal(size=(rows, 3, 4)).reshape(net.forward(images).shape))
            simplex = net.simplex_params().values()
            before = {name: arr.copy() for name, arr in net.params().items()}
            Adam(net.flat_params, OptimConfig(lr=1e-2), simplex).step(net.flat_grads)
            for name, arr in net.params().items():
                assert (arr != before[name]).any(), f"{kind} {name} did not move"
            logits = net.forward(images).reshape(rows, 3, -1)
            for r in range(rows):
                params = {name: (arr if net.replicas is None else arr[r]) for name, arr in net.params().items()}
                want = reference.forward(method, params, images[3 * r : 3 * r + 3])
                np.testing.assert_allclose(logits[r], want, rtol=1e-9, atol=1e-12, err_msg=f"{kind} row {r}")


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
        assert tuple(ToyNet(ToyNetConfig(), "OP", rng).simplex_params()) == (
            "pool1.ordinal_w",
            "pool2.ordinal_w",
        )
        assert ToyNet(ToyNetConfig(), "MP", rng).simplex_params() == {}
