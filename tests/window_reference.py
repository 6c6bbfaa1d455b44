"""Test-only references: window extraction, every window formula, the SE branch.

The program evaluates each pooling method through one kernel pair
(``poolbench.ops.POOLING``), on windows read through
``poolbench.tensor.window_view``.  The functions here are a second,
independent implementation that the tests compare the program with:

* ``extract_window``, ``window_entries`` and ``map_windows`` read windows
  one placement at a time, with 1-based placement indices;
* each window forward reduces over the last axis of ``x`` (a stack of
  windows, one per row, or one window); each ``*_grad`` takes one window and
  returns ``(d_input, d_params)``;
* ``global_avg_pool`` and ``se_temperatures`` are the squeeze-and-excitation
  branch of one (C, H, W) sample; ``se_params`` names its four arrays as a
  pooling block stores them.

Non-smooth points follow the program's conventions: max- and ordinal-pooling
break ties toward the first index in window order, and the learned norm
treats the derivative of |x| at 0 as 0.
"""

import numpy as np

from poolbench.ops import ConfigurationError, norm_exponent, sigmoid
from poolbench.tensor import ShapeError, WindowSpec, output_size


class WindowMapError(RuntimeError):
    """A window function failed; the message carries the (channel, i, j) placement."""


def as_tensor(values, shape=None) -> np.ndarray:
    """Coerce ``values`` to a C-contiguous float64 array, optionally reshaped.

    Guarantees the two storage invariants: the element count matches the
    product of the dimension sizes, and every dimension size is >= 1.
    """
    arr = np.asarray(values, dtype=np.float64)
    if shape is not None:
        size = int(np.prod(shape, dtype=np.int64))
        if arr.size != size:
            raise ShapeError(
                f"cannot view {arr.size} elements as shape {tuple(shape)}"
            )
        arr = arr.reshape(shape)
    if arr.ndim == 0:
        raise ShapeError("tensor must have at least one dimension")
    arr = np.ascontiguousarray(arr)
    if min(arr.shape) < 1:
        raise ShapeError(f"all dimension sizes must be >= 1, got {arr.shape}")
    return arr


def extract_window(x, spec: WindowSpec, i: int, j: int) -> np.ndarray:
    """Entries of the (i, j)-th window of a 2-D map, flattened row-major.

    ``i`` and ``j`` are 1-based placement indices (1 <= i <= H', 1 <= j <= W');
    placement (i, j) starts at 0-based array offset (s1*(i-1), s2*(j-1)).
    Pure read: the input is never modified and the result owns its data.
    """
    x = as_tensor(x)
    if x.ndim != 2:
        raise ShapeError(f"expected a 2-D (H, W) map, got shape {x.shape}")
    h_out, w_out = output_size(x.shape[0], x.shape[1], spec)
    if not (1 <= i <= h_out and 1 <= j <= w_out):
        raise IndexError(
            f"window index ({i}, {j}) outside valid range 1..{h_out} x 1..{w_out}"
        )
    r0 = spec.s1 * (i - 1)
    c0 = spec.s2 * (j - 1)
    return x[r0 : r0 + spec.k1, c0 : c0 + spec.k2].reshape(-1).copy()


def window_entries(x, spec: WindowSpec) -> np.ndarray:
    """Every window of an (..., H, W) array as an (..., H', W', k1*k2) array:
    out[..., i - 1, j - 1, :] = extract_window(x[...], spec, i, j)."""
    x = as_tensor(x)
    h_out, w_out = output_size(x.shape[-2], x.shape[-1], spec)
    out = np.empty(x.shape[:-2] + (h_out, w_out, spec.n))
    for index in np.ndindex(x.shape[:-2]):
        for i, j in np.ndindex(h_out, w_out):
            out[index + (i, j)] = extract_window(x[index], spec, i + 1, j + 1)
    return out


def map_windows(x, spec: WindowSpec, fn) -> np.ndarray:
    """Reduce every window of every channel: out[c, i, j] = fn(window).

    ``x`` is a (C, H, W) stack; ``fn`` maps a flat window vector to a scalar
    and is applied to each channel independently.  Errors raised by ``fn``
    are re-raised as :class:`WindowMapError` annotated with the failing
    (channel, i, j) placement, chaining the original exception.
    """
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a (C, H, W) tensor, got shape {x.shape}")
    channels, h, w = x.shape
    h_out, w_out = output_size(h, w, spec)
    out = np.empty((channels, h_out, w_out))
    for c in range(channels):
        plane = x[c]
        for i in range(1, h_out + 1):
            for j in range(1, w_out + 1):
                window = extract_window(plane, spec, i, j)
                try:
                    out[c, i - 1, j - 1] = fn(window)
                except Exception as err:
                    raise WindowMapError(
                        f"window function failed at channel {c}, "
                        f"placement ({i}, {j}): {err}"
                    ) from err
    return out


def global_avg_pool(x) -> np.ndarray:
    """Per-channel spatial mean of a (C, H, W) tensor; returns a length-C vector."""
    x = as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"expected a (C, H, W) tensor, got shape {x.shape}")
    return x.mean(axis=(1, 2))


def se_params(w1, b1, w2, b2) -> dict:
    """The four SE branch arrays of a pooling block, by their flat names."""
    arrays = (np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2))
    return dict(zip(("se_f1_weight", "se_f1_bias", "se_f2_weight", "se_f2_bias"), arrays))


def se_temperatures(mu, se: dict, ratio: int) -> np.ndarray:
    """Squeeze-and-excitation branch: f2(relu(f1(mu))) on channel means mu.

    ``se`` holds the affine maps by flat name: f1(v) = se_f1_weight @ v +
    se_f1_bias, and f2 likewise.  ``ratio`` is the reduction ratio: f1 maps C
    channel means down to C/ratio hidden units and f2 maps them back up, one
    output per channel.  The outputs drive one temperature (or gate) per
    channel.
    """
    mu = np.asarray(mu, dtype=np.float64).reshape(-1)
    channels = mu.size
    if ratio < 1 or channels % ratio != 0:
        raise ConfigurationError(
            f"reduction ratio {ratio} must divide the channel count {channels}"
        )
    hidden = channels // ratio
    w1, b1, w2, b2 = (
        np.asarray(se[name], dtype=np.float64)
        for name in ("se_f1_weight", "se_f1_bias", "se_f2_weight", "se_f2_bias")
    )
    if w1.shape != (hidden, channels) or b1.shape != (hidden,):
        raise ConfigurationError(
            f"f1 must map {channels} -> {hidden}, got weight {w1.shape} and bias {b1.shape}"
        )
    if w2.shape != (channels, hidden) or b2.shape != (channels,):
        raise ConfigurationError(
            f"f2 must map {hidden} -> {channels}, got weight {w2.shape} and bias {b2.shape}"
        )
    return w2 @ np.maximum(w1 @ mu + b1, 0.0) + b2


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
