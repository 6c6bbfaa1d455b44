"""Test-only copies of the earlier, allocation-heavier forms of code that was
rewritten for speed, kept to check that the rewrites give the same bits.

Each function is the earlier body verbatim, apart from the names it imports
and the window offsets that the conv forward slices itself: ``Conv2D``'s
forward with an im2col copy per window-offset slice and the bias broadcast
along O-long rows, and the backward kernels of :data:`poolbench.ops.POOLING` with one fresh array per
operation.  They read the same caches as the kernels of ``poolbench.ops``.
"""

import numpy as np

from poolbench.layers import _channels_first, _channels_last
from poolbench.ops import _sum_to, sigmoid
from poolbench.tensor import output_size


#: by replica axes: the im2col buffer (..., C, n, H', W', B) as (n, ..., H', W', B, C)
_VIEWS_FIRST = {0: (1, 2, 3, 4, 0), 1: (2, 0, 3, 4, 5, 1)}


def conv_forward(layer, x):
    """``layer``'s output: im2col a window offset at a time, the GEMM, the bias added per O-long row."""
    x = _channels_last(x)
    lead = x.shape[:-4]
    h, w, b, c = x.shape[-4:]
    h_out, w_out = output_size(h, w, layer.window)
    o = layer.bias.shape[-1]
    cols = np.empty(lead + (c, layer.window.n, h_out, w_out, b))
    by_view = cols.transpose(_VIEWS_FIRST[len(lead)])
    for k in range(layer.window.n):  # offset (u, v) of every stride-1 window
        u, v = divmod(k, layer.window.k2)
        by_view[k] = x[..., u : u + h_out, v : v + w_out, :, :]
    cols = cols.reshape(lead + (c * layer.window.n, -1))
    out = cols.swapaxes(-1, -2) @ layer.weight.reshape(lead + (o, -1)).swapaxes(-1, -2)
    out += layer.bias[..., None, :]
    return _channels_first(out.reshape(lead + (h_out, w_out, b, o)))


def max_backward(cache, dy):
    stack, peak = cache
    first = stack == peak
    seen = first[0].copy()
    for mask in first[1:]:
        mask &= ~seen
        seen |= mask
    return dy * first, {}


def gp_backward(cache, dy):
    stack, w, g, mean, peak = cache
    swing = g * (1.0 - g) * (mean - peak)
    d_w = _sum_to(stack * (dy * swing), w)
    d_max, _ = max_backward((stack, peak), (1.0 - g) * dy)
    return dy * (g / len(stack) + swing * w) + d_max, {"gate_w": d_w}


def lnp_backward(cache, dy):
    p_raw, p, negative, zero, log_r, y, log_mean, weighted_log = cache
    d_stack = np.multiply(log_r, p - 1.0)
    np.exp(d_stack, out=d_stack)
    d_stack -= zero
    np.copysign(d_stack, 0.5 - negative, out=d_stack)
    d_stack *= dy * np.exp(log_mean * (1.0 / p - 1.0)) / len(log_r)
    d_p = _sum_to(dy * y * (weighted_log / p - log_mean / np.float_power(p, 2.0)), p_raw)
    return d_stack, {"p_raw": d_p * sigmoid(p_raw)}


def smp_backward(cache, dy):
    stack, tau, e, total, y = cache
    s = e / total
    centered = stack - y
    d_stack = dy * s * (1.0 + tau * centered)
    return d_stack, {"tau": _sum_to(dy * (s * centered**2).sum(axis=0), tau)}


#: method -> the earlier form of its backward kernel, for every rewritten one
BACKWARDS = {
    "GP": gp_backward,
    "LNP": lnp_backward,
    "SMP_fixed": smp_backward,
    "SMP_trainable": smp_backward,
    "SESMP": smp_backward,
}

