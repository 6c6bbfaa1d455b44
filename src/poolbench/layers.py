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
its method's kernel pair from :data:`poolbench.ops.POOLING` on the stack of
those views; the window-level operators of :mod:`poolbench.ops` and the
gradients of :mod:`poolbench.grads` run the same kernels.

Layers expose ``params()`` and ``grads()`` dicts of like-named arrays;
gradients accumulate per backward call into ``grads()`` entries that the
optimizer reads and the trainer zeroes between steps.  A pooling block keeps
all its parameters, trained or fixed, in one dict (``pool_params``) keyed by
the same flat names (``conv_w``, ``tau``, ``se_f1_weight``, ...); its
``params()`` is the trainable part, in the method's ``trainable`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    ENTRY_WEIGHTS, POOLING, ConfigurationError, DivergedRunError, PoolSpec, check_field, check_input, sigmoid,
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
    "PoolingBlock",
    "ToyNetConfig",
    "ToyNet",
    "softmax_cross_entropy",
]


def window_views(x: np.ndarray, spec: WindowSpec) -> list[np.ndarray]:
    """The k1*k2 window-offset views of an (H, W, ...) array, each (H', W', ...).

    View ``u*k2 + v`` is ``x[u::s1, v::s2]`` cut to the H' x W' window grid:
    its (i, j) entry is entry (u, v) of window (i, j), so the views list
    every window's entries in row-major order.  The views share memory with
    ``x``; rows and columns that fit no complete window appear in none of
    them.
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


class PoolingBlock:
    """One downsampling stage evaluating any of the pooling methods.

    The block runs its method's kernel pair (:data:`~poolbench.ops.POOLING`)
    on the stack of its input's window views, scatters the stack's gradient
    back and adds each field gradient to its parameter.  The squeeze-and-
    excitation (SE) methods add a branch on the input's per-channel means.
    ``pool_params`` holds the block's arrays by flat name, as the method's
    ``init`` returns them; the block reads and trains them in place.
    """

    def __init__(self, spec: PoolSpec, pool_params: dict[str, np.ndarray]):
        validate_pool_params(spec, pool_params)
        self.window = spec.window
        self.method = spec.method
        self.pool_params = pool_params
        self.pooling = POOLING[spec.method]
        self.grads_ = {name: np.zeros(arr.shape) for name, arr in self.params().items()}
        # Views (they follow the optimizer's in-place updates) shaped for (n, H', W', B, C):
        # an entry weight gets the window axis first, and a one-entry parameter is a
        # scalar, as a (1,) array would cut every elementwise loop into C-long pieces.
        self._fields = {}
        for name in self.pooling.fields:
            value = pool_params[name]
            if name in ENTRY_WEIGHTS:
                value = value.reshape(-1, 1, 1, 1, 1)
            elif np.size(value) == 1:
                value = np.reshape(value, ())
            self._fields[name] = value

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        return {name: self.pool_params[name] for name in self.pooling.trainable}

    def grads(self) -> dict[str, np.ndarray]:
        return self.grads_

    # -- forward and backward -----------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        check_input(x)
        x = np.ascontiguousarray(x.transpose(2, 3, 0, 1))
        self._x_shape = x.shape
        self._cache = self._scaled = None  # free the last call's cache before building this one
        fields = dict(self._fields)
        scaled = self._se_forward(x, fields) if self.pooling.se else x
        stack = np.array(window_views(scaled, self.window)[: self.pooling.entries])
        del scaled  # SEMP's scaled input: free it before the kernel allocates
        y, self._cache = self.pooling.forward(stack, fields)
        return y.transpose(2, 3, 0, 1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.ascontiguousarray(dy.transpose(2, 3, 0, 1))
        d_stack, d_fields = self.pooling.backward(self._cache, dy)
        dx = _scatter(self._x_shape, self.window, d_stack)
        del d_stack  # free it before the SE branch allocates
        for name, grad in self.grads_.items():
            if name in d_fields:
                grad += d_fields[name].reshape(grad.shape)
        if self.pooling.se:
            dx = self._se_backward(dx, d_fields)
        return dx.transpose(2, 3, 0, 1)

    def _se_forward(self, x, fields):
        """The kernel input; the SE branch drives SESMP's tau field or SEMP's input scale."""
        out = self._branch(x)  # (B, C)
        if self.pooling.se == "tau":
            fields["tau"] = out
            return x
        scales = sigmoid(out)
        self._scaled = (x, scales)
        return x * scales

    def _se_backward(self, dx, d_fields):
        """The input gradient ``dx`` of the kernel input, carried through the SE branch."""
        if self.pooling.se == "tau":
            return dx + self._branch_backward(d_fields["tau"])
        x, scales = self._scaled
        d_scales = (dx * x).sum(axis=(0, 1))
        return dx * scales + self._branch_backward(d_scales * scales * (1.0 - scales))

    def _branch(self, x):
        # squeeze: per-channel spatial means; excite: affine-ReLU-affine
        p = self.pool_params
        mu = x.mean(axis=(0, 1))
        hidden_pre = mu @ p["se_f1_weight"].T + p["se_f1_bias"]
        hidden = np.maximum(hidden_pre, 0.0)
        out = hidden @ p["se_f2_weight"].T + p["se_f2_bias"]
        self._mu, self._hidden_pre, self._hidden = mu, hidden_pre, hidden
        return out

    def _branch_backward(self, d_out):
        p = self.pool_params
        self.grads_["se_f2_weight"] += d_out.T @ self._hidden
        self.grads_["se_f2_bias"] += d_out.sum(axis=0)
        d_hidden = d_out @ p["se_f2_weight"]
        d_hidden_pre = d_hidden * (self._hidden_pre > 0.0)
        self.grads_["se_f1_weight"] += d_hidden_pre.T @ self._mu
        self.grads_["se_f1_bias"] += d_hidden_pre.sum(axis=0)
        d_mu = d_hidden_pre @ p["se_f1_weight"]
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
        check_field("sharpness", np.asarray(self.lse_sharpness))
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


class ToyNet:
    """conv-ReLU-pool, conv-ReLU-pool, flatten, affine logits."""

    def __init__(self, config: ToyNetConfig, method: str, rng):
        self.config = config
        self.method = method
        c1, c2 = config.stage_channels

        def pool(channels):
            spec = PoolSpec(method, config.window, channels)  # rejects an unknown method
            params = POOLING[method].init(spec.window.n, channels, rng, config.se_ratio, config.lse_sharpness)
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
        simplex = POOLING[self.method].simplex
        return tuple(f"{slot}.{name}" for slot in ("pool1", "pool2") for name in simplex)


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
