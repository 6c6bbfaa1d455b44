"""Plain-numpy reference for the toy network, written from the paper's
definitions and sharing no code with poolbench.

The network is conv3x3-ReLU-pool, conv3x3-ReLU-pool, affine head.  Every
pooling stage reduces 2x2 windows with stride 2.  Parameters come from
``ToyNet.params()`` (names such as ``conv1.weight`` or ``pool2.tau``); the
two hyperparameters that are not trained, the log-sum-exp sharpness r and
the fixed temperature ladder, are fixed here.
"""

from __future__ import annotations

import numpy as np

LSE_SHARPNESS = 1.0


def windows(x):
    """(B, C, H, W) -> (B, C, H', W', 4): 2x2 stride-2 windows, entries in row-major order."""
    h_out = (x.shape[2] - 2) // 2 + 1
    w_out = (x.shape[3] - 2) // 2 + 1
    return np.stack(
        [x[:, :, u : u + 2 * h_out : 2, v : v + 2 * w_out : 2] for u in (0, 1) for v in (0, 1)],
        axis=-1,
    )


def conv_valid(x, weight, bias):
    """Unpadded stride-1 cross-correlation, one kernel offset at a time."""
    k = weight.shape[2]
    h_out = x.shape[2] - k + 1
    w_out = x.shape[3] - k + 1
    out = np.zeros((x.shape[0], weight.shape[0], h_out, w_out)) + bias[:, None, None]
    for u in range(k):
        for v in range(k):
            out += np.einsum("bchw,oc->bohw", x[:, :, u : u + h_out, v : v + w_out], weight[:, :, u, v])
    return out


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(t):
    return np.exp(-np.logaddexp(0.0, -t))


def fixed_temperatures(channels):
    """The frozen ladder tau_c = log(c / C), c = 1..C."""
    return np.log(np.arange(1, channels + 1) / channels)


def _se_branch(x, params, prefix):
    mu = x.mean(axis=(2, 3))
    hidden = relu(mu @ params[prefix + "se_f1_weight"].T + params[prefix + "se_f1_bias"])
    return hidden @ params[prefix + "se_f2_weight"].T + params[prefix + "se_f2_bias"]


def _softmax_average(win, tau):
    e = np.exp(tau * win)
    return (e * win).sum(axis=-1) / e.sum(axis=-1)


def pool(method, x, params, prefix):
    """One pooling stage of ``method`` on (B, C, H, W) input."""
    if method == "SEMP":
        scales = sigmoid(_se_branch(x, params, prefix))
        return windows(x * scales[:, :, None, None]).max(axis=-1)
    win = windows(x)
    if method == "MP":
        return win.max(axis=-1)
    if method == "AP":
        return win.mean(axis=-1)
    if method == "NN":
        return win[..., 0]
    if method == "CONV":
        return (win * params[prefix + "conv_w"]).sum(axis=-1)
    if method == "GP":
        g = sigmoid((win * params[prefix + "gate_w"]).sum(axis=-1))
        return g * win.mean(axis=-1) + (1.0 - g) * win.max(axis=-1)
    if method == "OP":
        return (np.sort(win, axis=-1) * params[prefix + "ordinal_w"]).sum(axis=-1)
    if method == "LNP":
        p = 1.0 + np.log1p(np.exp(params[prefix + "p_raw"][0]))
        return (np.abs(win) ** p).mean(axis=-1) ** (1.0 / p)
    if method == "LSE":
        r = LSE_SHARPNESS
        return np.log(np.exp(r * win).mean(axis=-1)) / r
    if method == "SMP_fixed":
        return _softmax_average(win, fixed_temperatures(x.shape[1])[None, :, None, None, None])
    if method == "SMP_trainable":
        return _softmax_average(win, params[prefix + "tau"][None, :, None, None, None])
    if method == "SESMP":
        return _softmax_average(win, _se_branch(x, params, prefix)[:, :, None, None, None])
    raise ValueError(f"no reference for method {method!r}")


def forward(method, params, images):
    """Logits of the toy network for a (B, 1, 16, 16) batch."""
    a = pool(method, relu(conv_valid(images, params["conv1.weight"], params["conv1.bias"])), params, "pool1.")
    a = pool(method, relu(conv_valid(a, params["conv2.weight"], params["conv2.bias"])), params, "pool2.")
    return a.reshape(len(a), -1) @ params["head.weight"].T + params["head.bias"]


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy against integer labels."""
    z = logits - logits.max(axis=1, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_probs[np.arange(len(labels)), labels].mean())
