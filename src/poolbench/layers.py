"""Batched layers for the toy classifier: convolution, pooling blocks, head.

Every layer takes and returns (B, C, H, W) float64 arrays at each public
call, with explicit forward and backward methods; each layer caches what its
backward pass needs.  Inside :class:`ToyNet` the activations are stored
channels-last: each is a transposed view of a C-contiguous (H, W, B, C)
buffer.  Convolution and pooling take ``x.transpose(2, 3, 0, 1)`` on entry,
which is free for such an input (any other input is copied once), and compute
in (H, W, B, C) coordinates, where every inner row is B*C contiguous floats.

Convolution and pooling read their windows through the window-offset views
of their input (:func:`window_views`), never through copied windows, and add
input gradients into the same views (:func:`_scatter`).  A pooling block runs
one (forward, backward) kernel pair per method from :data:`KERNELS`.  The
kernels share no code with the window-level operators in :mod:`poolbench.ops`,
which the test suite uses as the independent reference for every method.

Layers expose ``params()`` and ``grads()`` dicts of like-named arrays;
gradients accumulate per backward call into ``grads()`` entries that the
optimizer reads and the trainer zeroes between steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ops import (
    Affine,
    ConfigurationError,
    PoolParams,
    PoolSpec,
    fixed_temperatures,
    norm_exponent,
    sigmoid,
    validate_pool_params,
)
from .tensor import WindowSpec, output_size

__all__ = [
    "window_views",
    "DivergedRunError",
    "Conv2D",
    "ReLU",
    "Flatten",
    "Linear",
    "Kernel",
    "KERNELS",
    "PoolingBlock",
    "ToyNetConfig",
    "ToyNet",
    "init_pool_params",
    "softmax_cross_entropy",
]


def window_views(x: np.ndarray, spec: WindowSpec) -> list[np.ndarray]:
    """The k1*k2 window-offset views of an (H, W, ...) array, each (H', W', ...).

    View ``u*k2 + v`` is ``x[u::s1, v::s2]`` cut to the H' x W' window grid:
    its (i, j) entry is entry (u, v) of window (i, j), so the views list
    every window in the row-major order of ``extract_window``.  The views
    share memory with ``x``; rows and columns that fit no complete window
    appear in none of them.
    """
    h_out, w_out = output_size(x.shape[0], x.shape[1], spec)
    rows = spec.s1 * (h_out - 1) + 1
    cols = spec.s2 * (w_out - 1) + 1
    return [
        x[u : u + rows : spec.s1, v : v + cols : spec.s2]
        for u in range(spec.k1)
        for v in range(spec.k2)
    ]


def _scatter(shape, spec: WindowSpec, parts) -> np.ndarray:
    """Adjoint of :func:`window_views`: add parts[k] into view k of a zeroed array."""
    dx = np.zeros(shape)
    for view, part in zip(window_views(dx, spec), parts):
        view += part
    return dx


class DivergedRunError(RuntimeError, ValueError):
    """A loss or a pooling input became non-finite.

    Also a ``ValueError``: :meth:`PoolingBlock.forward` rejects a non-finite
    input with a ``ValueError``, and keeps doing so through this class.
    """


class Conv2D:
    """Valid (unpadded) stride-1 convolution: im2col from the k*k window-offset
    views, then one 2-D GEMM.  With ``input_grad=False``, backward returns None."""

    def __init__(self, in_channels, out_channels, kernel=3, rng=None, input_grad=True):
        fan_in = in_channels * kernel * kernel
        rng = rng or np.random.default_rng()
        # He-normal initialization: std = sqrt(2 / fan_in)
        self.weight = rng.normal(0.0, np.sqrt(2.0 / fan_in), (out_channels, in_channels, kernel, kernel))
        self.bias = np.zeros(out_channels)
        self.window = WindowSpec(kernel, kernel, 1, 1)
        self.input_grad = input_grad
        self.grads_ = {"weight": np.zeros_like(self.weight), "bias": np.zeros_like(self.bias)}

    def forward(self, x):
        x = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
        self._in_shape = h, w, b, c = x.shape
        h_out, w_out = output_size(h, w, self.window)
        self._out_shape = (h_out, w_out, b, len(self.weight))
        # (C*k*k, H'W'B): row c*k*k + u*k + v is view (u, v) of channel c, the
        # order of weight.reshape(O, -1); the views are stacked straight into it
        cols = np.empty((c, self.window.n, h_out, w_out, b))
        np.stack(window_views(x, self.window), out=cols.transpose(1, 2, 3, 4, 0))
        self._cols = cols.reshape(c * self.window.n, -1)
        out = self._cols.T @ self.weight.reshape(len(self.weight), -1).T  # (H'W'B, O)
        out += self.bias  # in place: no second output-sized buffer
        return out.reshape(self._out_shape).transpose(2, 3, 0, 1)

    def backward(self, dy):
        dy = np.ascontiguousarray(dy.transpose(2, 3, 0, 1))
        dy2 = dy.reshape(-1, len(self.weight))  # (H'W'B, O)
        self.grads_["weight"] += (dy2.T @ self._cols.T).reshape(self.weight.shape)
        self.grads_["bias"] += np.ones(len(dy2)) @ dy2
        if not self.input_grad:
            return None
        # col2im: the (H'W'B, C) gradient of view (u, v) is dy2 @ weight[:, :, u, v]
        o, c = self.weight.shape[:2]
        parts = dy2 @ self.weight.transpose(2, 3, 0, 1).reshape(self.window.n, o, c)
        parts = parts.reshape((self.window.n,) + self._out_shape[:3] + (c,))
        return _scatter(self._in_shape, self.window, parts).transpose(2, 3, 0, 1)

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return self.grads_


class ReLU:
    def forward(self, x):
        self._mask = x > 0.0
        return x * self._mask

    def backward(self, dy):
        return dy * self._mask

    def params(self):
        return {}

    def grads(self):
        return {}


class Flatten:
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._shape)

    def params(self):
        return {}

    def grads(self):
        return {}


class Linear:
    """Affine head; weights drawn from N(0, 0.01), zero bias."""

    def __init__(self, in_features, out_features, rng=None):
        rng = rng or np.random.default_rng()
        self.weight = rng.normal(0.0, 0.01, (out_features, in_features))
        self.bias = np.zeros(out_features)
        self.grads_ = {"weight": np.zeros_like(self.weight), "bias": np.zeros_like(self.bias)}

    def forward(self, x):
        self._x = x
        return x @ self.weight.T + self.bias

    def backward(self, dy):
        self.grads_["weight"] += dy.T @ self._x
        self.grads_["bias"] += dy.sum(axis=0)
        return dy @ self.weight

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return self.grads_


# -- pooling kernels ------------------------------------------------------------
#
# A forward kernel maps (block, x) to (y, cache); its backward maps (block,
# cache, dy) to dx and adds parameter gradients into block.grads_.  Kernels
# work in (H, W, B, C) coordinates on C-contiguous arrays, so per-channel
# factors broadcast along the trailing axis.  They stack the views on a leading
# axis, (n, H', W', B, C): one copy of contiguous B*C rows, after which every
# fold over the window runs on contiguous planes in window order.


def _stack(block, x):
    return np.stack(window_views(x, block.window))


def _first_max(stacked):
    """Window maximum and a one-hot mask of its first maximizer (argmax's tie rule)."""
    peak = stacked.max(axis=0)
    first = stacked == peak
    seen = first[0].copy()
    for mask in first[1:]:
        mask &= ~seen
        seen |= mask
    return peak, first


def _entry_sums(stacked, field):
    """Per window entry k: the sum of stacked[k] * field over every window."""
    return (stacked * field).reshape(len(stacked), -1).sum(axis=1)


def _conv_forward(block, x):
    stacked = _stack(block, x)
    w = block.pool_params.conv_w[:, None, None, None, None]
    return (stacked * w).sum(axis=0), stacked


def _conv_backward(block, stacked, dy):
    block.grads_["conv_w"] += _entry_sums(stacked, dy)
    return block._scatter(dy * block.pool_params.conv_w[:, None, None, None, None])


def _gp_forward(block, x):
    stacked = _stack(block, x)
    w = block.pool_params.gate_w[:, None, None, None, None]
    g = sigmoid((stacked * w).sum(axis=0))
    peak, first = _first_max(stacked)
    mean = stacked.mean(axis=0)
    return g * mean + (1.0 - g) * peak, (stacked, g, first, mean, peak)


def _gp_backward(block, cache, dy):
    stacked, g, first, mean, peak = cache
    w = block.pool_params.gate_w[:, None, None, None, None]
    swing = g * (1.0 - g) * (mean - peak)
    block.grads_["gate_w"] += _entry_sums(stacked, dy * swing)
    return block._scatter(dy * (g / len(stacked) + swing * w) + first * ((1.0 - g) * dy))


def _op_forward(block, x):
    stacked = _stack(block, x)
    # stable ascending rank of every entry: tied entries keep window order
    ranks = np.zeros(stacked.shape, dtype=np.min_scalar_type(len(stacked)))
    for j in range(len(stacked)):
        for k in range(j + 1, len(stacked)):
            k_first = stacked[k] < stacked[j]
            ranks[j] += k_first
            ranks[k] += ~k_first
    slot_w = block.pool_params.ordinal_w.take(ranks)
    return (stacked * slot_w).sum(axis=0), (stacked, ranks, slot_w)


def _op_backward(block, cache, dy):
    stacked, ranks, slot_w = cache
    block.grads_["ordinal_w"] += np.bincount(
        ranks.reshape(-1), weights=(stacked * dy).reshape(-1), minlength=len(stacked)
    )
    return block._scatter(slot_w * dy)


def _lnp_forward(block, x):
    # Every power is an exp of one of two logs: log r per entry (r = |x| / peak)
    # and the log of the window's mean r^p.  Adding a 0/1 mask before each log
    # is exact: a zero entry and an all-zero window log to 0, with no select.
    # The window copy becomes log r in place; only it and two masks are cached.
    p = norm_exponent(block.pool_params.p_raw[0])
    log_r = _stack(block, x)
    negative = log_r < 0.0
    np.abs(log_r, out=log_r)
    peak = log_r.max(axis=0)
    empty = peak == 0.0
    log_r /= peak + empty
    zero = log_r == 0.0  # also a ratio that underflowed to 0
    log_r += zero
    np.log(log_r, out=log_r)
    powered = np.multiply(log_r, p)
    np.exp(powered, out=powered)
    powered -= zero  # exp(0) - 1: exactly 0 at a zero entry
    total = powered.sum(axis=0)
    log_mean = np.log(total / len(log_r) + empty)
    y = peak * np.exp(log_mean / p)
    # the r^p-weighted mean of log r, with 0 log 0 = 0: dy/dp needs only it
    weighted_log = np.einsum("k...,k...->...", powered, log_r)
    weighted_log /= total + empty
    return y, (p, negative, zero, log_r, y, log_mean, weighted_log)


def _lnp_backward(block, cache, dy):
    p, negative, zero, log_r, y, log_mean, weighted_log = cache
    # dy/dx = sign(x) r^(p-1) mean^(1/p - 1) / n; the mask zeroes a zero entry's exp(0)
    d_stacked = np.multiply(log_r, p - 1.0)
    np.exp(d_stacked, out=d_stacked)
    d_stacked -= zero
    np.copysign(d_stacked, 0.5 - negative, out=d_stacked)  # 0.5 - True < 0: sign(x)
    d_stacked *= dy * np.exp(log_mean * (1.0 / p - 1.0)) / len(log_r)
    # dy/dp = y (weighted_log / p - log_mean / p^2); 0 for an all-zero window (y = 0)
    d_p = (dy * y * (weighted_log / p - log_mean / p**2)).sum()
    block.grads_["p_raw"] += d_p * sigmoid(float(block.pool_params.p_raw[0]))
    return block._scatter(d_stacked)


def _softmax_weights(z):
    """Max-shifted exponentials of stacked logits and their sum over the window."""
    e = np.exp(z - z.max(axis=0))
    return e, e.sum(axis=0)


def _lse_forward(block, x):
    r = block.pool_params.sharpness
    z = r * _stack(block, x)
    e, total = _softmax_weights(z)
    return (z.max(axis=0) + np.log(total / len(z))) / r, e / total


def _smp(block, x, tau):
    """Softmax-weighted window average under the temperature field ``tau``."""
    stacked = _stack(block, x)
    e, total = _softmax_weights(tau * stacked)
    y = (e * stacked).sum(axis=0) / total
    return y, (stacked, tau, e / total, y)


def _smp_forward(block, x):
    return _smp(block, x, block.pool_params.tau)


def _sesmp_forward(block, x):
    return _smp(block, x, block._branch(x))


def _smp_parts(cache, dy):
    """Window-entry gradients and the temperature-field gradient of :func:`_smp`."""
    stacked, tau, s, y = cache
    centered = stacked - y
    return dy * s * (1.0 + tau * centered), dy * (s * centered**2).sum(axis=0)


def _smp_backward(block, cache, dy):
    d_stacked, d_tau_field = _smp_parts(cache, dy)
    if "tau" in block.grads_:  # SMP_trainable; SMP_fixed keeps its ladder
        block.grads_["tau"] += d_tau_field.sum(axis=(0, 1, 2))
    return block._scatter(d_stacked)


def _sesmp_backward(block, cache, dy):
    d_stacked, d_tau_field = _smp_parts(cache, dy)
    return block._scatter(d_stacked) + block._branch_backward(d_tau_field.sum(axis=(0, 1)))


def _semp_forward(block, x):
    scales = sigmoid(block._branch(x))  # (B, C)
    y, first = _first_max(_stack(block, x * scales))
    return y, (x, scales, first)


def _semp_backward(block, cache, dy):
    x, scales, first = cache
    d_scaled = block._scatter(dy * first)
    d_scales = (d_scaled * x).sum(axis=(0, 1))
    return d_scaled * scales + block._branch_backward(
        d_scales * scales * (1.0 - scales)
    )


class Kernel(NamedTuple):
    """A method's trainable parameter names and batched kernel pair (LSE
    sharpness and the fixed temperature ladder are hyperparameters)."""

    trainable: tuple[str, ...]
    forward: Callable
    backward: Callable


_SE_PARAMS = ("se_f1_weight", "se_f1_bias", "se_f2_weight", "se_f2_bias")

#: every pooling method's kernel pair, keyed by method name
KERNELS = {
    "MP": Kernel(
        (),
        lambda block, x: _first_max(_stack(block, x)),
        lambda block, first, dy: block._scatter(dy * first),
    ),
    "AP": Kernel(
        (),
        lambda block, x: (_stack(block, x).mean(axis=0), None),
        lambda block, _, dy: block._scatter([dy / block.window.n] * block.window.n),
    ),
    "NN": Kernel(
        (),
        lambda block, x: (window_views(x, block.window)[0].copy(), None),
        lambda block, _, dy: block._scatter([dy]),  # view 0 only
    ),
    "CONV": Kernel(("conv_w",), _conv_forward, _conv_backward),
    "GP": Kernel(("gate_w",), _gp_forward, _gp_backward),
    "OP": Kernel(("ordinal_w",), _op_forward, _op_backward),
    "LNP": Kernel(("p_raw",), _lnp_forward, _lnp_backward),
    "LSE": Kernel((), _lse_forward, lambda block, s, dy: block._scatter(dy * s)),
    "SMP_fixed": Kernel((), _smp_forward, _smp_backward),
    "SMP_trainable": Kernel(("tau",), _smp_forward, _smp_backward),
    "SESMP": Kernel(_SE_PARAMS, _sesmp_forward, _sesmp_backward),
    "SEMP": Kernel(_SE_PARAMS, _semp_forward, _semp_backward),
}


class PoolingBlock:
    """One downsampling stage evaluating any of the pooling methods.

    Parameters shared across channels (conv/gate/ordinal weights, the norm
    exponent) are single vectors per block; temperatures are per channel.
    """

    def __init__(self, spec: PoolSpec, pool_params: PoolParams):
        validate_pool_params(spec, pool_params)
        self.window = spec.window
        self.method = spec.method
        self.pool_params = pool_params
        self.kernel = KERNELS[spec.method]
        self.grads_ = {name: np.zeros_like(arr) for name, arr in self.params().items()}

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        arrays = self.pool_params.arrays()
        return {name: arrays[name] for name in self.kernel.trainable}

    def grads(self) -> dict[str, np.ndarray]:
        return self.grads_

    # -- forward and backward -----------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not np.isfinite(x).all():
            raise DivergedRunError("pooling input contains non-finite values")
        x = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
        self._x_shape = x.shape
        self._cache = None  # free the last call's cache before building this one
        y, self._cache = self.kernel.forward(self, x)
        return y.transpose(2, 3, 0, 1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.ascontiguousarray(dy.transpose(2, 3, 0, 1))
        return self.kernel.backward(self, self._cache, dy).transpose(2, 3, 0, 1)

    def _scatter(self, parts) -> np.ndarray:
        return _scatter(self._x_shape, self.window, parts)

    def _branch(self, x):
        # squeeze: per-channel spatial means; excite: affine-ReLU-affine
        p = self.pool_params
        mu = x.mean(axis=(0, 1))
        hidden_pre = mu @ p.se_f1.weight.T + p.se_f1.bias
        hidden = np.maximum(hidden_pre, 0.0)
        out = hidden @ p.se_f2.weight.T + p.se_f2.bias
        self._mu, self._hidden_pre, self._hidden = mu, hidden_pre, hidden
        return out

    def _branch_backward(self, d_out):
        p = self.pool_params
        self.grads_["se_f2_weight"] += d_out.T @ self._hidden
        self.grads_["se_f2_bias"] += d_out.sum(axis=0)
        d_hidden = d_out @ p.se_f2.weight
        d_hidden_pre = d_hidden * (self._hidden_pre > 0.0)
        self.grads_["se_f1_weight"] += d_hidden_pre.T @ self._mu
        self.grads_["se_f1_bias"] += d_hidden_pre.sum(axis=0)
        d_mu = d_hidden_pre @ p.se_f1.weight
        h, w = self._x_shape[:2]
        return np.broadcast_to(d_mu / (h * w), self._x_shape)


@dataclass(frozen=True)
class ToyNetConfig:
    """Two conv+pool stages and an affine head on small single-channel images.

    Every pooling stage halves the spatial resolution (2x2 windows, stride
    2).  The squeeze-and-excitation reduction ratio defaults to 4 because
    the widest toy stage has 16 channels; the canonical ratio of 16 needs
    hundreds of channels to leave a usable hidden width.
    """

    classes: int = 4
    in_channels: int = 1
    image_size: int = 16
    stage_channels: tuple[int, int] = (8, 16)
    window: WindowSpec = WindowSpec(2, 2, 2, 2)
    conv_kernel: int = 3
    se_ratio: int = 4
    lse_sharpness: float = 1.0

    def __post_init__(self):
        if self.window != WindowSpec(2, 2, 2, 2):
            raise ConfigurationError("pooling stages must halve resolution: 2x2 windows, stride 2")
        if self.classes < 2:
            raise ConfigurationError(f"need at least 2 classes, got {self.classes}")
        if not 0 < self.lse_sharpness < float("inf"):
            raise ConfigurationError(f"LSE sharpness must be > 0, got {self.lse_sharpness}")
        for c in self.stage_channels:
            if c % self.se_ratio != 0:
                raise ConfigurationError(
                    f"se_ratio {self.se_ratio} must divide every stage width, got {c}"
                )

    def feature_size(self) -> int:
        size = self.image_size
        for _ in self.stage_channels:
            size = size - (self.conv_kernel - 1)
            size, _ = output_size(size, size, self.window)
        return self.stage_channels[-1] * size * size


def init_pool_params(spec: PoolSpec, rng, se_ratio=4, lse_sharpness=1.0) -> PoolParams:
    """Initial trainable state for one pooling block.

    Gate weights start at zero (an unbiased average/max blend), conv and
    ordinal weights start uniform (exactly average-pooling), the norm
    exponent starts at p = 3, trainable temperatures are standard normal,
    fixed temperatures follow the log(c/C) ladder, and the branch affines
    use He-uniform weights with zero biases.
    """
    n = spec.window.n
    c = spec.channels
    method = spec.method
    if method == "CONV":
        return PoolParams(conv_w=np.full(n, 1.0 / n))
    if method == "GP":
        return PoolParams(gate_w=np.zeros(n))
    if method == "OP":
        return PoolParams(ordinal_w=np.full(n, 1.0 / n))
    if method == "LNP":
        return PoolParams(p_raw=np.array([np.log(np.expm1(2.0))]))  # p = 3
    if method == "LSE":
        return PoolParams(sharpness=lse_sharpness)
    if method == "SMP_trainable":
        return PoolParams(tau=rng.standard_normal(c))
    if method == "SMP_fixed":
        return PoolParams(tau=fixed_temperatures(c))
    if method in ("SESMP", "SEMP"):
        if c % se_ratio != 0:
            raise ConfigurationError(f"se_ratio {se_ratio} must divide channels {c}")
        hidden = c // se_ratio
        bound1 = np.sqrt(6.0 / c)
        bound2 = np.sqrt(6.0 / hidden)
        return PoolParams(
            se_f1=Affine(rng.uniform(-bound1, bound1, (hidden, c)), np.zeros(hidden)),
            se_f2=Affine(rng.uniform(-bound2, bound2, (c, hidden)), np.zeros(c)),
            se_ratio=se_ratio,
        )
    return PoolParams()


class ToyNet:
    """conv-ReLU-pool, conv-ReLU-pool, flatten, affine logits."""

    def __init__(self, config: ToyNetConfig, method: str, rng):
        self.config = config
        self.method = method
        c1, c2 = config.stage_channels

        def pool(channels):
            spec = PoolSpec(method, config.window, channels)
            params = init_pool_params(
                spec, rng, se_ratio=config.se_ratio, lse_sharpness=config.lse_sharpness
            )
            return PoolingBlock(spec, params)

        # nothing reads the image batch's gradient
        self.conv1 = Conv2D(config.in_channels, c1, config.conv_kernel, rng, input_grad=False)
        self.pool1 = pool(c1)
        self.conv2 = Conv2D(c1, c2, config.conv_kernel, rng)
        self.pool2 = pool(c2)
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self.flatten = Flatten()
        self.head = Linear(config.feature_size(), config.classes, rng)
        names = ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten", "head")
        self._stack = [(name, getattr(self, name)) for name in names]

    @property
    def pooling_blocks(self) -> list[PoolingBlock]:
        return [self.pool1, self.pool2]

    def forward(self, x):
        for _, layer in self._stack:
            x = layer.forward(x)
        return x

    def backward(self, d_logits) -> None:
        for _, layer in reversed(self._stack):
            d_logits = layer.backward(d_logits)

    def params(self) -> dict[str, np.ndarray]:
        return {f"{n}.{k}": v for n, layer in self._stack for k, v in layer.params().items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {f"{n}.{k}": v for n, layer in self._stack for k, v in layer.grads().items()}

    def zero_grads(self):
        for _, layer in self._stack:
            for arr in layer.grads().values():
                arr[...] = 0.0

    def simplex_params(self) -> tuple[str, ...]:
        """Names of parameters the optimizer must re-project onto the simplex."""
        if self.method != "OP":
            return ()
        return ("pool1.ordinal_w", "pool2.ordinal_w")


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, d_logits, accuracy); d_logits is already divided by the
    batch size.  Evaluated via the log-sum-exp shift, so uniform zero logits
    give exactly log(K).
    """
    labels = np.asarray(labels)
    b = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    loss = float(-log_probs[np.arange(b), labels].mean())
    d_logits = np.exp(log_probs)
    d_logits[np.arange(b), labels] -= 1.0
    d_logits /= b
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, d_logits, accuracy
