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

Every layer is built once, on its parameter arrays and on the gradient
arrays it accumulates into, per backward call; the caller owns both, and
:func:`initial_arrays` draws a net's.  Layers with parameters expose them
as ``params()`` and ``grads()`` dicts of like-named arrays.  A pooling block
keeps all its parameters, trained or fixed, in one dict (``pool_params``)
keyed by the same flat names (``conv_w``, ``tau``, ``se_f1_weight``, ...);
its ``params()`` is the trainable part, in the method's ``trainable`` order.
Its squeeze-and-excitation branch is ``Linear -> ReLU -> Linear`` on the
``se_f1_*`` and ``se_f2_*`` arrays.  A :class:`ToyNet` copies its trainable
arrays into one (S, P) buffer (``flat_params``, a row per replica,
``params()`` order), keeps their gradients in another (``flat_grads``) and
builds its layers on views of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import (
    ENTRY_WEIGHTS, POOLING, ConfigurationError, DivergedRunError, PoolSpec, check_field, check_input, pooling_row,
    sigmoid, validate_pool_params,
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
    "initial_arrays",
    "softmax_cross_entropy",
]


#: the permutation between the public (B, C, H, W) and the computing (H, W, B, C)
#: order, by the rank of the array; (S, B, C, H, W) <-> (S, H, W, B, C) for a
#: stack, the replica axis first.  Each is its own inverse.
_SWAP = {4: (2, 3, 0, 1), 5: (0, 3, 4, 1, 2)}

#: the arrays of an affine layer: a convolution, the head or an SE map
_AFFINE = ("weight", "bias")


def _channels_last(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(_SWAP[x.ndim]))


def _channels_first(x: np.ndarray) -> np.ndarray:
    return x.transpose(_SWAP[x.ndim])


class _Affine:
    """A layer on the ``weight`` and ``bias`` arrays of ``params``, which it trains in
    place; their gradients add into the like-named arrays of ``grads``, the caller's too."""

    def __init__(self, params, grads):
        self.weight, self.bias = params["weight"], params["bias"]
        self.grads_ = grads

    def params(self):
        return {"weight": self.weight, "bias": self.bias}

    def grads(self):
        return self.grads_


class Conv2D(_Affine):
    """Valid (unpadded) stride-1 convolution: im2col from the input's window
    view, then one GEMM per replica.  The layer is built on its (O, C, k, k)
    ``weight`` and (O,) ``bias``, or stacks of S such arrays (S, O, C, k, k) and
    (S, O).  With ``input_grad=False``, backward returns None.
    The bias is added along whole output rows of W'*B*O floats of the
    (H', W', B, O) layout."""

    def __init__(self, params, grads, input_grad=True):
        super().__init__(params, grads)
        self.window = WindowSpec(*self.weight.shape[-2:], 1, 1)
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
    """Affine map x W^T + b on its (O, F) ``weight`` and (O,) ``bias``.  A
    stacked layer, on (S, O, F) and (S, O) arrays, maps (S, B, F) to (S, B, O)."""

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
    back and adds each field gradient to its parameter's.  ``pool_params``
    holds the block's arrays by flat name, as the method's ``init`` returns
    them, and ``grads`` a gradient array for each trainable one; the block
    trains the arrays in place and adds into the gradients.  The squeeze-and-
    excitation (SE) methods add a branch on the input's per-channel means:
    ``Linear -> ReLU -> Linear``, the two :class:`Linear` layers built on the
    ``se_f1_*`` and ``se_f2_*`` arrays and gradients.  A block of ``replicas``
    S holds each array with a leading axis of S rows, one replica's each, and
    pools (S, B, C, H, W) inputs.
    """

    def __init__(self, spec: PoolSpec, pool_params: dict[str, np.ndarray], grads: dict, replicas: int | None = None):
        validate_pool_params(spec, pool_params, replicas)
        keep_freed_memory()
        self.window = spec.window
        self.method = spec.method
        self.replicas = replicas
        self.pool_params, self.grads_ = pool_params, grads
        self.pooling = POOLING[spec.method]
        self._fields = {name: self._kernel_layout(name, pool_params[name]) for name in self.pooling.fields}
        self._field_grads = {name: self._kernel_layout(name, grads[name]) for name in self.pooling.trainable
                             if name in self._fields}
        if self.pooling.se:
            self._se_layers = [self._se_linear("se_f1"), ReLU(), self._se_linear("se_f2")]

    def _kernel_layout(self, name, value):
        """A view of field ``name``, or of its gradient, shaped for the stack (n, H', W', B, C)
        or (n, S, H', W', B, C): an entry weight gets the window axis first, and a single
        block's one-entry parameter is a scalar, as a (1,) array would cut every elementwise
        loop into C-long pieces."""
        if name in ENTRY_WEIGHTS:
            return value.T.reshape(value.shape[::-1] + (1, 1, 1, 1))
        if self.replicas is not None:
            return value.reshape(self.replicas, 1, 1, 1, -1)
        return np.reshape(value, ()) if np.size(value) == 1 else value

    def _se_linear(self, prefix):
        """A :class:`Linear` on the SE arrays ``prefix``_weight and ``prefix``_bias and their gradients."""
        return Linear(*({key: d[f"{prefix}_{key}"] for key in _AFFINE} for d in (self.pool_params, self.grads_)))

    # -- parameter plumbing -------------------------------------------------

    def params(self) -> dict[str, np.ndarray]:
        return {name: self.pool_params[name] for name in self.pooling.trainable}

    def grads(self) -> dict[str, np.ndarray]:
        return self.grads_

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
        for name, grad in self._field_grads.items():
            grad += d_fields[name]
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

#: the net's layers with arrays, in draw and buffer order
_SLOTS = ("conv1", "pool1", "conv2", "pool2", "head")


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


def initial_arrays(config: ToyNetConfig, method: str, rng) -> dict[str, np.ndarray]:
    """A new :class:`ToyNet`'s arrays by ``slot.name``, fixed pooling parameters
    included, from one generator ``rng``, or from a sequence of S generators for
    a stack of S replicas, each array stacking theirs on a leading axis.  Each
    replica draws from its own generator in layer order (:data:`_SLOTS`)."""
    init = pooling_row(method).init
    c1, c2 = STAGE_CHANNELS
    head = (config.classes, HEAD_FEATURES)

    def conv(c_in, c_out):
        shape = (c_out, c_in, CONV_KERNEL, CONV_KERNEL)
        std = np.sqrt(2.0 / (c_in * CONV_KERNEL * CONV_KERNEL))  # He-normal: sqrt(2 / fan_in)
        return lambda g: {"weight": g.normal(0.0, std, shape), "bias": np.zeros(c_out)}

    makers = {
        "conv1": conv(IN_CHANNELS, c1),
        "pool1": lambda g: init(POOL_WINDOW.n, c1, g, config.lse_sharpness),
        "conv2": conv(c1, c2),
        "pool2": lambda g: init(POOL_WINDOW.n, c2, g, config.lse_sharpness),
        "head": lambda g: {"weight": g.normal(0.0, 0.01, head), "bias": np.zeros(head[0])},
    }
    stacked = isinstance(rng, (list, tuple))
    arrays = {}
    for slot, make in makers.items():
        rows = [make(g) for g in (rng if stacked else [rng])]
        for name in rows[0]:
            arrays[f"{slot}.{name}"] = np.stack([row[name] for row in rows]) if stacked else rows[0][name]
    return arrays


class ToyNet:
    """conv-ReLU-pool, conv-ReLU-pool, flatten, affine logits.

    The net is built on ``arrays`` by ``slot.name`` (see :func:`initial_arrays`):
    it copies the trainable ones into its buffers and builds every layer on
    views of them; a fixed pooling parameter stays the caller's.  A 5-D
    ``conv1.weight`` makes a stack of S replicas (``replicas`` = S), each array
    holding theirs on a leading axis: it maps (S*B, C, H, W) or (S, B, C, H, W)
    images, replica r owning rows r*B .. (r+1)*B - 1, to (S, B, classes) logits.
    """

    def __init__(self, config: ToyNetConfig, method: str, arrays: dict[str, np.ndarray]):
        self.config, self.method = config, method
        first = arrays["conv1.weight"]
        self.replicas = len(first) if first.ndim == 5 else None
        trainable = pooling_row(method).trainable
        names = [f"{slot}.{key}" for slot in _SLOTS for key in (trainable if slot.startswith("pool") else _AFFINE)]
        # each trainable array is copied into a view of one (S, P) buffer, its gradient is a view of another
        rows = self.replicas or 1
        bounds = np.cumsum([0] + [np.size(arrays[name]) // rows for name in names])
        self.flat_params, self.flat_grads = np.empty((rows, bounds[-1])), np.zeros((rows, bounds[-1]))
        self._arrays, self._grads = dict(arrays), {}  # a fixed pooling parameter stays the caller's
        for name, lo, hi in zip(names, bounds, bounds[1:]):
            self._arrays[name] = self.flat_params[:, lo:hi].reshape(np.shape(arrays[name]))
            self._arrays[name][...] = arrays[name]
            self._grads[name] = self.flat_grads[:, lo:hi].reshape(np.shape(arrays[name]))

        def own(slot):  # the slot's arrays and gradients, by the layer's names
            cut = len(slot) + 1
            return [{n[cut:]: a for n, a in d.items() if n[:cut] == slot + "."} for d in (self._arrays, self._grads)]

        c1, c2 = STAGE_CHANNELS
        self.conv1 = Conv2D(*own("conv1"), input_grad=False)  # nothing reads the image batch's gradient
        self.pool1 = PoolingBlock(PoolSpec(method, POOL_WINDOW, c1), *own("pool1"), self.replicas)
        self.conv2 = Conv2D(*own("conv2"))
        self.pool2 = PoolingBlock(PoolSpec(method, POOL_WINDOW, c2), *own("pool2"), self.replicas)
        self.head = Linear(*own("head"))
        self.relu1 = ReLU()
        self.relu2 = ReLU()
        self.flatten = Flatten()
        self._stack = [self.conv1, self.relu1, self.pool1, self.conv2, self.relu2, self.pool2, self.flatten, self.head]

    def select(self, rows) -> "ToyNet":
        """A stacked net of this stacked net's replicas ``rows``, on copies of their arrays."""
        return ToyNet(self.config, self.method, {name: arr[rows] for name, arr in self._arrays.items()})

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
        return {name: self._arrays[name] for name in self._grads}

    def grads(self) -> dict[str, np.ndarray]:
        """Every gradient as a view of :attr:`flat_grads`, by the names of :meth:`params`."""
        return self._grads

    def zero_grads(self):
        self.flat_grads.fill(0.0)

    def simplex_params(self) -> dict[str, np.ndarray]:
        """The parameters the optimizer must re-project onto the simplex, by name."""
        names = (f"{slot}.{key}" for slot in ("pool1", "pool2") for key in POOLING[self.method].simplex)
        return {name: self._arrays[name] for name in names}


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
