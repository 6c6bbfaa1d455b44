"""Test-only reference: every window formula written out directly.

The program evaluates each pooling method through one kernel pair
(``poolbench.ops.POOLING``).  These functions are a second, independent
implementation that the tests compare the kernels with.  Each forward
reduces over the last axis of ``x`` (a stack of windows, one per row, or one
window); each ``*_grad`` takes one window and returns ``(d_input, d_params)``.

Non-smooth points follow the program's conventions: max- and ordinal-pooling
break ties toward the first index in window order, and the learned norm
treats the derivative of |x| at 0 as 0.
"""

import numpy as np

from poolbench.ops import norm_exponent, sigmoid


def _windows(x):
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def max_pool(x):
    return _windows(x).max(axis=-1)


def avg_pool(x):
    return _windows(x).mean(axis=-1)


def nearest_pool(x):
    return _windows(x)[..., 0]


def conv_pool(x, weights):
    return (np.asarray(weights, dtype=np.float64) * _windows(x)).sum(axis=-1)


def gated_pool(x, gate_w):
    x = _windows(x)
    g = sigmoid((np.asarray(gate_w, dtype=np.float64) * x).sum(axis=-1))
    return g * x.mean(axis=-1) + (1.0 - g) * x.max(axis=-1)


def ordinal_pool(x, weights):
    return (np.asarray(weights, dtype=np.float64) * np.sort(_windows(x), axis=-1)).sum(axis=-1)


def learned_norm_pool(x, p_raw):
    """((1/n) sum |x_i|^p)^(1/p), factored by max|x_i| so no power overflows."""
    x = _windows(x)
    p = norm_exponent(p_raw)
    magnitudes = np.abs(x)
    peak = magnitudes.max(axis=-1, keepdims=True)
    ratios = magnitudes / np.where(peak > 0.0, peak, 1.0)  # an all-zero window gives 0
    root = np.float_power((ratios**p).mean(axis=-1, keepdims=True), 1.0 / p)
    return (peak * root)[..., 0]


def lse_pool(x, sharpness):
    """(1/r) log((1/n) sum exp(r x_i)), shifted by the largest r x_i."""
    z = sharpness * _windows(x)
    d = z.max(axis=-1)
    return (d + np.log(np.exp(z - d[..., None]).mean(axis=-1))) / sharpness


def smooth_max_pool(x, tau):
    """sum_i x_i exp(tau x_i) / sum_j exp(tau x_j), shifted by the largest tau x_i."""
    x = _windows(x)
    z = np.asarray(tau, dtype=np.float64) * x
    s = np.exp(z - z.max(axis=-1, keepdims=True))
    return (s * x).sum(axis=-1) / s.sum(axis=-1)


def max_pool_grad(x):
    x = _windows(x)
    d = np.zeros_like(x)
    d[int(np.argmax(x))] = 1.0
    return d, {}


def avg_pool_grad(x):
    x = _windows(x)
    return np.full(x.size, 1.0 / x.size), {}


def nearest_pool_grad(x):
    d = np.zeros_like(_windows(x))
    d[0] = 1.0
    return d, {}


def conv_pool_grad(x, weights):
    return np.array(weights, dtype=np.float64), {"conv_w": _windows(x).copy()}


def gated_pool_grad(x, gate_w):
    """dy/dx_i = g/n + (1-g)[i = argmax] + g(1-g) w_i (avg - max); dy/dw_i = g(1-g) x_i (avg - max)."""
    x = _windows(x)
    w = np.asarray(gate_w, dtype=np.float64)
    g = sigmoid((w * x).sum())
    swing = g * (1.0 - g) * (x.mean() - x.max())
    d_input = np.full(x.size, g / x.size)
    d_input[int(np.argmax(x))] += 1.0 - g
    d_input += swing * w
    return d_input, {"gate_w": swing * x}


def ordinal_pool_grad(x, weights):
    """The weight of the slot each entry sorts into; dy/dw_slot is the slot's sorted value."""
    x = _windows(x)
    order = np.argsort(x, kind="stable")
    d_input = np.empty_like(x)
    d_input[order] = weights
    return d_input, {"ordinal_w": x[order].copy()}


def learned_norm_pool_grad(x, p_raw):
    """dy/dx_i = sign(x_i) r_i^(p-1) mean(r^p)^(1/p - 1) / n with r = |x| / max|x|;
    dy/dp_raw = dy/dp * sigmoid(p_raw), using 0 log 0 = 0."""
    x = _windows(x)
    p_raw = float(np.asarray(p_raw).reshape(-1)[0])
    p = norm_exponent(p_raw)
    magnitudes = np.abs(x)
    peak = magnitudes.max()
    if peak == 0.0:
        return np.zeros_like(x), {"p_raw": np.zeros(1)}
    ratios = magnitudes / peak
    powered = ratios**p
    mean_pow = powered.mean()
    y = peak * mean_pow ** (1.0 / p)
    d_input = np.sign(x) * ratios ** (p - 1.0) * mean_pow ** (1.0 / p - 1.0) / x.size
    log_ratios = np.where(ratios > 0.0, np.log(np.where(ratios > 0.0, ratios, 1.0)), 0.0)
    dy_dp = y * ((powered * log_ratios).sum() / (p * powered.sum()) - np.log(mean_pow) / p**2)
    return d_input, {"p_raw": np.array([dy_dp * sigmoid(p_raw)])}


def lse_pool_grad(x, sharpness):
    z = sharpness * _windows(x)
    s = np.exp(z - z.max())
    return s / s.sum(), {}


def smooth_max_pool_grad(x, tau):
    """dy/dx_i = s_i (1 + tau (x_i - y)) and dy/dtau = sum_i s_i (x_i - y)^2, s = softmax(tau x)."""
    x = _windows(x)
    tau = float(np.asarray(tau).reshape(-1)[0])
    z = tau * x
    s = np.exp(z - z.max())
    s /= s.sum()
    centered = x - (s * x).sum()
    return s * (1.0 + tau * centered), {"tau": np.array([(s * centered**2).sum()])}


#: method -> (forward, gradient, parameter name or None) for the ten window methods
METHODS = {
    "MP": (max_pool, max_pool_grad, None),
    "AP": (avg_pool, avg_pool_grad, None),
    "NN": (nearest_pool, nearest_pool_grad, None),
    "CONV": (conv_pool, conv_pool_grad, "conv_w"),
    "GP": (gated_pool, gated_pool_grad, "gate_w"),
    "OP": (ordinal_pool, ordinal_pool_grad, "ordinal_w"),
    "LNP": (learned_norm_pool, learned_norm_pool_grad, "p_raw"),
    "LSE": (lse_pool, lse_pool_grad, "sharpness"),
    "SMP_fixed": (smooth_max_pool, smooth_max_pool_grad, "tau"),
    "SMP_trainable": (smooth_max_pool, smooth_max_pool_grad, "tau"),
}
