"""Batched layers for the toy classifier: convolution, pooling blocks, head.

Every layer takes and returns (B, C, H, W) float64 arrays at each public
call, with explicit forward and backward methods; each layer caches what its
backward pass needs.  Inside :class:`ToyNet` the activations are stored
channels-last: each is a transposed view of a C-contiguous (H, W, B, C)
buffer.  Convolution and pooling take ``x.transpose(2, 3, 0, 1)`` on entry,
which is free for such an input (any other input is copied once), and compute
in (H, W, B, C) coordinates, where every inner row is B*C contiguous floats.

A stacked layer holds S replicas of its parameters along a leading axis and
takes (S, B, C, H, W) arrays (the head (S, B, F)); it computes in
(S, H, W, B, C) coordinates, so each replica's activations are laid out as a
single layer's, and each product is one stacked GEMM whose slices are the
single layer's GEMMs.  Every replica's result equals, bit for bit, what a
single layer with that replica's parameters gives.

Pooling and convolution read their windows through one strided view of
their input (:func:`poolbench.tensor.window_view`): a pooling block's stack
is a contiguous copy of it, and convolution's im2col buffer a transposed
one; both write input gradients back through the view
(:func:`poolbench.tensor.scatter_windows`).  A pooling block runs its
method's kernel pair from :data:`poolbench.ops.POOLING` on that stack; the
window-level operators of :mod:`poolbench.ops` and the gradients of
:mod:`poolbench.grads` run the same kernels.

Every layer is built on its parameter arrays; :class:`ToyNet` draws them.
Layers with parameters expose ``params()`` and ``grads()`` dicts of
like-named arrays; gradients accumulate per backward call into ``grads()``.
A pooling block keeps all its parameters, trained or fixed, in one dict
(``pool_params``) keyed by the same flat names (``conv_w``, ``tau``,
``se_f1_weight``, ...); its ``params()`` is the trainable part, in the
method's ``trainable`` order.  Its squeeze-and-excitation branch is
``Linear -> ReLU -> Linear`` on the ``se_f1_*`` and ``se_f2_*`` arrays.  A
:class:`ToyNet` keeps its trainable arrays in one (S, P) buffer
(``flat_params``, a row per replica, ``params()`` order) and their gradients
in ``flat_grads``; its layers are bound to views of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    ENTRY_WEIGHTS, POOLING, ConfigurationError, DivergedRunError, PoolSpec, check_field, check_input, sigmoid,
    validate_pool_params,
)
from .tensor import WindowSpec, keep_freed_memory, scatter_windows, window_view

__all__ = [
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


#: the permutation between the public (B, C, H, W) and the computing (H, W, B, C)
#: order, by the rank of the array; (S, B, C, H, W) <-> (S, H, W, B, C) for a
#: stack, the replica axis first.  Each is its own inverse.
_SWAP = {4: (2, 3, 0, 1), 5: (0, 3, 4, 1, 2)}


def _channels_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(_SWAP[x.ndim]))


def _channels_first(x: np.ndarray) -> np.ndarray:
    return x.transpose(_SWAP[x.ndim])


class _Affine:
    """A layer on a ``weight`` and a ``bias`` array; their gradients accumulate in
    ``grads_``, which a new layer lacks until :meth:`bind` gives it the caller's."""

    def __init__(self, weight, bias):
        self.weight, self.bias = weight, bias
        self.grads_ = None

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return self.grads_

    def bind(self, params, grads):
        """Rebind the arrays and their gradients to like-named views (of a net's buffers)."""
        self.weight, self.bias = params["weight"], params["bias"]
        self.grads_ = grads


class Conv2D(_Affine):
    """Valid (unpadded) stride-1 convolution: im2col from the input's window
    view, then one GEMM per replica.  The layer is built on its (O, C, k, k)
    ``weight``, or a stack of S such weights (S, O, C, k, k), and a zero bias;
    it trains them in place.  With ``input_grad=False``, backward returns None.
    The bias is added along whole output rows of W'*B*O floats of the
    (H', W', B, O) layout."""

    def __init__(self, weight, input_grad=True):
        super().__init__(weight, np.zeros(weight.shape[:-3]))
        self.window = WindowSpec(weight.shape[-2], weight.shape[-1], 1, 1)
        self.input_grad = input_grad

    def forward(self, x):
        x = _channels_last(x)
        self._in_shape = x.shape
        lead = x.shape[:-4]
        view = window_view(x, self.window, len(lead))  # (k, k, ..., H', W', B, C)
        h_out, w_out, b, c = view.shape[-4:]
        o = self.bias.shape[-1]
        self._out_shape = lead + (h_out, w_out, b, o)
        # (..., C*k*k, H'W'B): row c*k*k + u*k + v is view entry (u, v) of channel c,
        # the order of weight.reshape(..., O, -1)
        by_channel = view.transpose(_CHANNEL_FIRST[len(lead)])
        self._cols = np.ascontiguousarray(by_channel).reshape(lead + (c * self.window.n, -1))
        out = self._cols.swapaxes(-1, -2) @ self.weight.reshape(lead + (o, -1)).swapaxes(-1, -2)  # (..., H'W'B, O)
        # in place, a row of W'*B*O floats at a time: no second output-sized buffer
        bias_row = np.empty(lead + (w_out * b, o))
        bias_row[...] = self.bias[..., None, :]
        rows = out.reshape(lead + (h_out, -1))
        rows += bias_row.reshape(lead + (1, -1))
        return _channels_first(out.reshape(self._out_shape))

    def backward(self, dy):
        dy = _channels_last(dy)
        lead = dy.shape[:-4]
        o = dy.shape[-1]
        dy2 = dy.reshape(lead + (-1, o))  # (..., H'W'B, O)
        self.grads_["weight"] += (dy2.swapaxes(-1, -2) @ self._cols.swapaxes(-1, -2)).reshape(self.weight.shape)
        self.grads_["bias"] += np.ones(dy2.shape[-2]) @ dy2
        if not self.input_grad:
            return None
        # col2im: the (H'W'B, C) gradient of view (u, v) is dy2 @ weight[..., :, :, u, v]
        n, c = self.window.n, self.weight.shape[-3]
        w = self.weight.transpose(_KERNEL_FIRST[len(lead)]).reshape((n,) + lead + (o, c))
        parts = (dy2 @ w).reshape((n,) + self._out_shape[:-1] + (c,))
        return _channels_first(scatter_windows(self._in_shape, self.window, parts, len(lead)))


#: by replica axes: the weight (..., O, C, k, k) as (k, k, ..., O, C), and the
#: window view (k, k, ..., H', W', B, C) as (..., C, k, k, H', W', B)
_KERNEL_FIRST = {0: (2, 3, 0, 1), 1: (3, 4, 0, 1, 2)}
_CHANNEL_FIRST = {0: (5, 0, 1, 2, 3, 4), 1: (2, 6, 0, 1, 3, 4, 5)}


class ReLU:
    def forward(self, x):
        self._y = np.maximum(x, 0.0)  # NaN stays NaN; no mask: the backward reads it off y
        return self._y

    def backward(self, dy):
        mask = (self._y > 0.0).astype(dy.dtype)  # a float product is faster than a bool one
        return np.multiply(mask, dy, out=mask)


class Flatten:
    def forward(self, x):
        self._shape = x.shape
        return x.reshape(x.shape[:-3] + (-1,))

    def backward(self, dy):
        return dy.reshape(self._shape)


class Linear(_Affine):
    """Affine map x W^T + b on its (O, F) ``weight`` and (O,) ``bias``, which it
    trains in place.  A stacked layer, on (S, O, F) and (S, O) arrays, maps
    (S, B, F) to (S, B, O)."""

    def forward(self, x):
        self._x = x
        return x @ self.weight.swapaxes(-1, -2) + self.bias[..., None, :]

    def backward(self, dy):
        self.grads_["weight"] += dy.swapaxes(-1, -2) @ self._x
        self.grads_["bias"] += dy.sum(axis=-2)
        return dy @ self.weight


class PoolingBlock:
    """One downsampling stage evaluating any of the pooling methods.

    The block runs its method's kernel pair (:data:`~poolbench.ops.POOLING`)
    on the stack of its input's window views, scatters the stack's gradient
    back and adds each field gradient to its parameter.  The squeeze-and-
    excitation (SE) methods add a branch on the input's per-channel means:
    ``Linear -> ReLU -> Linear``, the two :class:`Linear` layers built on the
    ``se_f1_*`` and ``se_f2_*`` arrays and their gradients at every
    :meth:`bind`.  ``pool_params`` holds the block's arrays by flat name, as
    the method's ``init`` returns them; the block reads and trains them in
    place.  A block of ``replicas`` S holds each array with a leading axis of
    S rows, one replica's parameters each, and pools (S, B, C, H, W) inputs.
    """

    def __init__(self, spec: PoolSpec, pool_params: dict[str, np.ndarray], replicas: int | None = None):
        validate_pool_params(spec, pool_params, replicas)
        keep_freed_memory()
        self.window = spec.window
        self.method = spec.method
        self.replicas = replicas
        self.pool_params = pool_params
        self.pooling = POOLING[spec.method]
        self.bind(self.params(), None)

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        return {name: self.pool_params[name] for name in self.pooling.trainable}

    def grads(self) -> dict[str, np.ndarray]:
        return self.grads_

    def bind(self, params, grads):
        """Rebind the trainable arrays and their gradients to like-named views (of a net's
        buffers); a new block has no gradients until it is bound to some."""
        self.pool_params.update(params)
        self.grads_ = grads
        # Views (they follow the optimizer's in-place updates) shaped for the stack
        # (n, H', W', B, C), or (n, S, H', W', B, C): an entry weight gets the window
        # axis first, and a single block's one-entry parameter is a scalar, as a (1,)
        # array would cut every elementwise loop into C-long pieces.
        self._fields = {}
        for name in self.pooling.fields:
            value = self.pool_params[name]
            if name in ENTRY_WEIGHTS:
                value = value.T.reshape(value.shape[::-1] + (1, 1, 1, 1))
            elif self.replicas is not None:
                value = value.reshape(self.replicas, 1, 1, 1, -1)
            elif np.size(value) == 1:
                value = np.reshape(value, ())
            self._fields[name] = value
        if self.pooling.se:
            self._se_layers = [self._se_linear("se_f1"), ReLU(), self._se_linear("se_f2")]

    def _se_linear(self, prefix):
        """A :class:`Linear` on the SE arrays ``prefix``_weight and ``prefix``_bias and their gradients."""
        layer = Linear(self.pool_params[f"{prefix}_weight"], self.pool_params[f"{prefix}_bias"])
        if self.grads_ is not None:
            layer.grads_ = {key: self.grads_[f"{prefix}_{key}"] for key in ("weight", "bias")}
        return layer

    # -- forward and backward -----------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        check_input(x, replicas=self.replicas is not None)
        x = _channels_last(x)
        self._x_shape = x.shape
        self._cache = self._scaled = None  # free the last call's cache before building this one
        fields = dict(self._fields)
        scaled = self._se_forward(x, fields) if self.pooling.se else x
        view = window_view(scaled, self.window, x.ndim - 4)
        corner = view[:1, :1] if self.pooling.entries == 1 else view  # NN reads one entry
        stack = np.array(corner, order="C").reshape((-1,) + view.shape[2:])  # order "K" would copy twice
        del scaled  # SEMP's scaled input: free it before the kernel allocates
        y, self._cache = self.pooling.forward(stack, fields)
        return _channels_first(y)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = _channels_last(dy)
        d_stack, d_fields = self.pooling.backward(self._cache, dy)
        dx = scatter_windows(self._x_shape, self.window, d_stack, dy.ndim - 4)
        del d_stack  # free it before the SE branch allocates
        for name, grad in self.grads_.items():
            if name in d_fields:
                d = d_fields[name]
                if name in ENTRY_WEIGHTS:  # (n, ..., 1, 1, 1, 1) back to (..., n)
                    d = d.reshape(grad.shape[::-1]).T
                grad += d.reshape(grad.shape)
        if self.pooling.se:
            dx = self._se_backward(dx, d_fields)
        return _channels_first(dx)

    def _se_forward(self, x, fields):
        """The kernel input; the SE branch drives SESMP's tau field or SEMP's input scale."""
        out = self._branch(x)  # (..., B, C)
        if self.pooling.se == "tau":
            fields["tau"] = out[..., None, None, :, :]
            return x
        scales = sigmoid(out)
        self._scaled = (x, scales)
        return x * scales[..., None, None, :, :]

    def _se_backward(self, dx, d_fields):
        """The input gradient ``dx`` of the kernel input, carried through the SE branch."""
        if self.pooling.se == "tau":
            return dx + self._branch_backward(d_fields["tau"][..., 0, 0, :, :])
        x, scales = self._scaled
        d_scales = (dx * x).sum(axis=(-4, -3))
        return dx * scales[..., None, None, :, :] + self._branch_backward(d_scales * scales * (1.0 - scales))

    def _branch(self, x):
        # squeeze: per-channel spatial means; excite: Linear-ReLU-Linear
        out = x.mean(axis=(-4, -3))
        for layer in self._se_layers:
            out = layer.forward(out)
        return out

    def _branch_backward(self, d_out):
        for layer in reversed(self._se_layers):
            d_out = layer.backward(d_out)
        h, w = self._x_shape[-4:-2]
        return np.broadcast_to((d_out / (h * w))[..., None, None, :, :], self._x_shape)


#: the toy images' channels, the convolutions' kernel size, the output channels of
#: the two conv+pool stages, and the window of every pooling stage: 2x2 with
#: stride 2, so each halves the resolution
IN_CHANNELS = 1
CONV_KERNEL = 3
STAGE_CHANNELS = (8, 16)
POOL_WINDOW = WindowSpec(2, 2, 2, 2)
#: the head's input width: the last stage's channels on a 2 x 2 grid, as the stages
#: take a 16-pixel side (data.IMAGE_SIZE) through 14, 7, 5 and 2
HEAD_FEATURES = STAGE_CHANNELS[-1] * 2 * 2


#: the fewest classes the head's softmax cross-entropy can tell apart
MIN_CLASSES = 2


@dataclass(frozen=True)
class ToyNetConfig:
    """The toy net's settable values: its class count and LSE pooling's fixed
    sharpness.  Its shape is fixed: two conv+pool stages of
    :data:`STAGE_CHANNELS` and an affine head on 16x16 single-channel images."""

    classes: int = 4
    lse_sharpness: float = 1.0

    def __post_init__(self):
        if self.classes < MIN_CLASSES:
            raise ConfigurationError(f"need at least {MIN_CLASSES} classes, got {self.classes}")
        check_field("sharpness", np.asarray(self.lse_sharpness))


class ToyNet:
    """conv-ReLU-pool, conv-ReLU-pool, flatten, affine logits.

    ``rng`` is one generator for a single net, or a sequence of S generators
    for a stack of S replicas (``replicas`` = S): the net draws every initial
    array, each replica's from its own generator in a single net's order
    (conv1, pool1, conv2, pool2, head), and builds its layers on them.  A
    stacked net maps (S*B, C, H, W) or (S, B, C, H, W) images, replica r
    owning rows r*B .. (r+1)*B - 1, to (S, B, classes) logits.
    """

    def __init__(self, config: ToyNetConfig, method: str, rng):
        self.config = config
        self.method = method
        self.replicas = len(rng) if isinstance(rng, (list, tuple)) else None
        c1, c2 = STAGE_CHANNELS

        def draw(init):  # init(g)'s arrays, or each stacked over the generators on a replica axis
            if self.replicas is None:
                return init(rng)
            rows = [init(g) for g in rng]
            return {name: np.stack([row[name] for row in rows]) for name in rows[0]}

        def conv(c_in, c_out, **options):
            shape = (c_out, c_in, CONV_KERNEL, CONV_KERNEL)
            std = np.sqrt(2.0 / (c_in * CONV_KERNEL * CONV_KERNEL))  # He-normal: sqrt(2 / fan_in)
            return Conv2D(**draw(lambda g: {"weight": g.normal(0.0, std, shape)}), **options)

        def pool(channels):
            spec = PoolSpec(method, POOL_WINDOW, channels)  # rejects an unknown method
            init = POOLING[method].init
            params = draw(lambda g: init(spec.window.n, channels, g, config.lse_sharpness))
            return PoolingBlock(spec, params, self.replicas)

        self.conv1 = conv(IN_CHANNELS, c1, input_grad=False)  # nothing reads the image batch's gradient
        self.pool1 = pool(c1)
        self.conv2 = conv(c1, c2)
        self.pool2 = pool(c2)
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self.flatten = Flatten()
        shape = (config.classes, HEAD_FEATURES)
        self.head = Linear(**draw(lambda g: {"weight": g.normal(0.0, 0.01, shape), "bias": np.zeros(shape[0])}))
        names = ("conv1", "relu1", "pool1", "conv2", "relu2", "pool2", "flatten", "head")
        self._stack = [getattr(self, name) for name in names]
        # each trainable array moves into a view of one (S, P) buffer, its gradient into another
        rows = self.replicas or 1
        trained = {slot: getattr(self, slot) for slot in ("conv1", "pool1", "conv2", "pool2", "head")}
        arrays = {f"{slot}.{key}": arr for slot, layer in trained.items() for key, arr in layer.params().items()}
        bounds = np.cumsum([0] + [arr.size // rows for arr in arrays.values()])
        self.flat_params, self.flat_grads = np.empty((rows, bounds[-1])), np.zeros((rows, bounds[-1]))
        self._params, self._grads = {}, {}
        for (name, arr), lo, hi in zip(arrays.items(), bounds, bounds[1:]):
            self._params[name] = self.flat_params[:, lo:hi].reshape(arr.shape)
            self._params[name][...] = arr
            self._grads[name] = self.flat_grads[:, lo:hi].reshape(arr.shape)
        for slot, layer in trained.items():
            layer.bind(*({key: views[f"{slot}.{key}"] for key in layer.params()} for views in (self._params, self._grads)))

    def select(self, rows) -> "ToyNet":
        """A stacked net of this stacked net's replicas ``rows``, with copies of their parameters."""
        net = ToyNet(self.config, self.method, [np.random.default_rng(0) for _ in rows])
        net.flat_params[...] = self.flat_params[rows]
        return net

    @property
    def pooling_blocks(self) -> list[PoolingBlock]:
        return [self.pool1, self.pool2]

    def forward(self, x):
        if self.replicas is not None:
            x = x.reshape((self.replicas, -1) + x.shape[-3:])
        for layer in self._stack:
            x = layer.forward(x)
        return x

    def backward(self, d_logits) -> None:
        for layer in reversed(self._stack):
            d_logits = layer.backward(d_logits)

    def params(self) -> dict[str, np.ndarray]:
        """Every trainable array as a view of :attr:`flat_params`, by ``slot.name``."""
        return self._params

    def grads(self) -> dict[str, np.ndarray]:
        """Every gradient as a view of :attr:`flat_grads`, by the names of :meth:`params`."""
        return self._grads

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def simplex_params(self) -> dict[str, np.ndarray]:
        """The parameters the optimizer must re-project onto the simplex, by name."""
        names = (f"{slot}.{key}" for slot in ("pool1", "pool2") for key in POOLING[self.method].simplex)
        return {name: self._params[name] for name in names}


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, d_logits, accuracy); d_logits is already divided by the
    batch size.  Evaluated via the log-sum-exp shift, so uniform zero logits
    give exactly log(K).  Stacked (S, B, K) logits give one loss and one
    accuracy per replica, arrays of S; ``labels`` broadcast against (S, B).
    """
    labels = np.broadcast_to(labels, logits.shape[:-1])
    z = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    log_probs = z - log_norm
    one_hot = labels[..., None] == np.arange(logits.shape[-1])
    loss = -log_probs[one_hot].reshape(labels.shape).mean(axis=-1)
    d_logits = np.exp(log_probs)
    d_logits -= one_hot
    d_logits /= logits.shape[-2]
    accuracy = (logits.argmax(axis=-1) == labels).mean(axis=-1)
    if logits.ndim == 2:
        return float(loss), d_logits, float(accuracy)
    return loss, d_logits, accuracy
