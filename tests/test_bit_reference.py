"""The rewritten convolution forward and backward kernels give the bits of their earlier
forms (``bit_reference``), and no backward changes its forward's cache.

The shapes are those of the training sweep: S = 2 replicas of a batch of 10,
pool1 on (14, 14) maps of 8 channels and pool2 on (5, 5) maps of 16, and the
same at S = 1 and S = 3.  The inputs hold window ties, the exact zeros of a
ReLU and negative zeros.
"""

import numpy as np
import pytest

import bit_reference as ref
from helpers import pooling_block, zero_grads
from poolbench.layers import POOL_WINDOW, Conv2D, _channels_last
from poolbench.ops import POOLING, PoolSpec, window_stack

#: (height and width, channels) of each pooling stage's input in the toy net
STAGES = {"pool1": (14, 8), "pool2": (5, 16)}
BATCH = 10


def bits(a):
    """``a``'s float64 entries as integers: equal bits, NaNs and zero signs included."""
    return np.ascontiguousarray(np.broadcast_to(a, np.shape(a)), dtype=np.float64).view(np.int64)


def assert_same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(bits(got), bits(want))


def pool_input(rng, replicas, size, channels, relu=True):
    """(S, B, C, H, W) inputs: post-ReLU (exact zeros) or signed, with negative
    zeros and with every window's first two entries tied in a fifth of the windows."""
    x = rng.normal(size=(replicas, BATCH, channels, size, size))
    if relu:
        x = np.maximum(x, 0.0)
    x[rng.random(x.shape) < 0.1] = -0.0
    h = size // 2 * 2
    tied = rng.random((replicas, BATCH, channels, size // 2, size // 2)) < 0.2
    corners, right = x[..., 0:h:2, 0:h:2], x[..., 0:h:2, 1:h:2]
    right[tied] = corners[tied]
    return x


def stacked_params(method, replicas, channels, rng):
    """A stack of ``replicas`` rows of ``method``'s parameters, moved off their initial point."""
    init = POOLING[method].init
    rows = [init(POOL_WINDOW.n, channels, rng, 1.7) for _ in range(replicas)]
    params = {name: np.stack([row[name] for row in rows]) for name in rows[0]}
    for name, arr in params.items():
        if name == "ordinal_w":
            arr[...] = rng.dirichlet(np.full(POOL_WINDOW.n, 2.0), size=replicas)
        elif name in ("gate_w", "conv_w", "tau"):
            arr[...] = rng.normal(0.25, 0.7, arr.shape)
            arr.reshape(-1)[::5] = 0.0
        elif name.endswith("bias"):
            arr[...] = rng.uniform(-0.3, 0.3, arr.shape)
        elif name == "p_raw":
            arr += rng.uniform(-0.6, 0.6, arr.shape)  # non-integer exponents
    return params


def stacked_block(method, replicas, channels, rng):
    params = stacked_params(method, replicas, channels, rng)
    return pooling_block(PoolSpec(method, POOL_WINDOW, channels), params, replicas)


def output_grad(rng, shape):
    dy = rng.normal(size=shape)
    dy[rng.random(shape) < 0.1] = 0.0
    dy[rng.random(shape) < 0.05] = -0.0
    return dy


def copied(cache):
    return tuple(np.array(a, copy=True) if isinstance(a, np.ndarray) else a for a in cache)


def assert_kernel_matches(method, cache, dy):
    """The kernel's gradients have the earlier form's bits, and its cache stays as it was."""
    before = copied(cache)
    want_stack, want_fields = ref.BACKWARDS[method](before, dy)
    got_stack, got_fields = POOLING[method].backward(cache, dy)
    assert_same_bits(got_stack, want_stack)
    assert got_fields.keys() == want_fields.keys()
    for name in want_fields:
        assert_same_bits(got_fields[name], want_fields[name])
    for kept, now in zip(before, cache):
        if isinstance(kept, np.ndarray):
            assert_same_bits(now, kept)


@pytest.mark.parametrize("replicas", [1, 2, 3])
@pytest.mark.parametrize("stage", list(STAGES))
@pytest.mark.parametrize("method", list(ref.BACKWARDS))
def test_block_kernels_give_the_earlier_bits(method, stage, replicas):
    size, channels = STAGES[stage]
    rng = np.random.default_rng([replicas, size, list(ref.BACKWARDS).index(method)])
    block = stacked_block(method, replicas, channels, rng)
    relu_inputs = [True, False] if method == "LNP" else [True]  # a negative entry takes LNP's sign step
    for relu in relu_inputs:
        y = block.forward(pool_input(rng, replicas, size, channels, relu))
        assert_kernel_matches(method, block._cache, _channels_last(output_grad(rng, y.shape)))


@pytest.mark.parametrize("method", [m for m in ref.BACKWARDS if not POOLING[m].se])
def test_window_kernels_give_the_earlier_bits(method):
    # the adapters' (n, m) stacks: a parameter row per window, and CONV's weight gradient
    # is then the products array itself
    rng = np.random.default_rng(list(ref.BACKWARDS).index(method))
    x = rng.normal(size=(40, POOL_WINDOW.n))
    x[:10] = np.maximum(x[:10], 0.0)
    x[10:15, 1] = x[10:15, 3]
    x[rng.random(x.shape) < 0.1] = -0.0
    params = {name: arr.reshape(arr.shape[0], -1) for name, arr in stacked_params(method, 40, 1, rng).items()}
    stack, fields, _ = window_stack(method, x, params)
    _, cache = POOLING[method].forward(stack, fields)
    assert_kernel_matches(method, cache, output_grad(rng, (40,)))


@pytest.mark.parametrize("method", list(ref.BACKWARDS))
def test_block_kernels_give_the_earlier_bits_on_nans(method):
    # a diverged net has non-finite parameters and NaNs of either sign in its output
    # gradient; where both operands of a product or sum are NaNs, the result is one
    # of them, so the operand order decides its sign bit
    size, channels = STAGES["pool2"]
    rng = np.random.default_rng(list(ref.BACKWARDS).index(method))
    block = stacked_block(method, 2, channels, rng)
    for name, arr in block.pool_params.items():
        if not name.startswith("se_"):
            hit = rng.random(arr.shape) < 0.3
            arr[hit] = rng.choice([np.inf, -np.inf, np.nan, -np.nan], np.count_nonzero(hit))
    with np.errstate(invalid="ignore", over="ignore"):
        dy = output_grad(rng, block.forward(pool_input(rng, 2, size, channels)).shape)
        dy[rng.random(dy.shape) < 0.3] = -np.nan
        dy[rng.random(dy.shape) < 0.2] = np.nan
        assert_kernel_matches(method, block._cache, _channels_last(dy))


def conv_layer(rng, replicas, c_in, c_out, kernel):
    lead = () if replicas is None else (replicas,)
    params = {"weight": rng.normal(0.0, 0.4, lead + (c_out, c_in) + kernel), "bias": rng.normal(size=lead + (c_out,))}
    return Conv2D(params, zero_grads(params))


@pytest.mark.parametrize("replicas", [None, 1, 2, 3])
@pytest.mark.parametrize(
    "c_in, c_out, size, kernel", [(1, 8, 16, (3, 3)), (8, 16, 7, (3, 3)), (3, 2, 9, (2, 1)), (3, 2, 9, (1, 3))]
)
def test_conv_gives_the_earlier_bits(replicas, c_in, c_out, size, kernel):
    rng = np.random.default_rng([c_in, size, replicas or 0, *kernel])
    layer = conv_layer(rng, replicas, c_in, c_out, kernel)
    lead = () if replicas is None else (replicas,)
    x = pool_input(rng, replicas or 1, size, c_in).reshape(lead + (BATCH, c_in, size, size))
    y = layer.forward(x)
    assert_same_bits(y, ref.conv_forward(layer, x))
