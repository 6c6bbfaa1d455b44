"""Gradient verification driver: every pooling method against the FD oracle.

For the window-level operators the check draws random (window, parameter)
points, evaluates the analytic bundle, and compares it coordinate by
coordinate with central differences.  For the squeeze-and-excitation blocks
(SESMP, SEMP) the check runs at block level through the batched layer,
probing a random linear functional of the block output.

Sampling keeps points where the comparison is informative:

* away from non-differentiable sets -- ties for MP/GP/OP/SEMP, zero entries
  for LNP, ReLU kinks inside the SE branch;
* away from derivative zero crossings: a central difference of an O(1)
  function at step 1e-5 resolves absolute magnitudes down to ~1e-9, so a
  point is redrawn when any checked coordinate is smaller than 1e-3 unless
  it is exactly zero by structure (one-hot and ReLU-off coordinates, which
  the oracle reproduces exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grads, layers, ops
from .grads import FDOracleConfig, fd_check
from .tensor import WindowSpec

__all__ = ["GradCheckResult", "check_method", "run_gradcheck"]

_WINDOW = WindowSpec(2, 2, 2, 2)
_MIN_COORD = 1e-3  # oracle resolution guard; see module docstring


@dataclass(frozen=True)
class GradCheckResult:
    """Worst relative FD error observed for one method."""

    method: str
    trials: int
    worst_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_error < self.tolerance


def _informative(*vectors) -> bool:
    for v in vectors:
        v = np.abs(np.asarray(v, dtype=np.float64).reshape(-1))
        small = (v > 0.0) & (v < _MIN_COORD)
        if small.any():
            return False
    return True


def _spread_window(rng, n=4, gap=1e-2, lo=-1.0, hi=1.0):
    while True:
        x = rng.uniform(lo, hi, size=n)
        diffs = np.abs(np.subtract.outer(x, x))
        if diffs[np.triu_indices(n, k=1)].min() > gap:
            return x


def _interior_simplex(rng, n=4, floor=0.05):
    w = rng.dirichlet(np.full(n, 2.0))
    return (1.0 - n * floor) * w + floor


def _away_from_zero(rng, n=4, lo=0.05, hi=1.0):
    return rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)


def _check_window_method(method, trials, config, rng, lse_sharpness):
    worst = 0.0
    n = 4
    for _ in range(trials):
        if method == "MP":
            x = _spread_window(rng)
            bundle = grads.max_pool_grad(x)
            worst = max(worst, fd_check(ops.max_pool, x, bundle.d_input, config))
        elif method == "AP":
            x = rng.uniform(-1.0, 1.0, size=n)
            bundle = grads.avg_pool_grad(x)
            worst = max(worst, fd_check(ops.avg_pool, x, bundle.d_input, config))
        elif method == "NN":
            x = rng.uniform(-1.0, 1.0, size=n)
            bundle = grads.nearest_pool_grad(x)
            worst = max(worst, fd_check(ops.nearest_pool, x, bundle.d_input, config))
        elif method == "CONV":
            x = _away_from_zero(rng)
            w = _away_from_zero(rng)
            bundle = grads.conv_pool_grad(x, w)
            worst = max(
                worst,
                fd_check(lambda v: ops.conv_pool(v, w), x, bundle.d_input, config),
                fd_check(
                    lambda v: ops.conv_pool(x, v), w, bundle.d_params["conv_w"], config
                ),
            )
        elif method == "GP":
            while True:
                x = _spread_window(rng)
                if np.abs(x).min() < 0.05:
                    continue
                w = _away_from_zero(rng)
                bundle = grads.gated_pool_grad(x, w)
                if _informative(bundle.d_input, bundle.d_params["gate_w"]):
                    break
            worst = max(
                worst,
                fd_check(lambda v: ops.gated_pool(v, w)[0], x, bundle.d_input, config),
                fd_check(
                    lambda v: ops.gated_pool(x, v)[0],
                    w,
                    bundle.d_params["gate_w"],
                    config,
                ),
            )
        elif method == "OP":
            x = _spread_window(rng)
            w = _interior_simplex(rng)
            bundle = grads.ordinal_pool_grad(x, w)
            worst = max(
                worst,
                fd_check(lambda v: ops.ordinal_pool(v, w), x, bundle.d_input, config),
                fd_check(
                    lambda v: ops.ordinal_pool(x, v),
                    w,
                    bundle.d_params["ordinal_w"],
                    config,
                ),
            )
        elif method == "LNP":
            while True:
                x = _away_from_zero(rng, lo=0.1, hi=1.5)
                p_raw = rng.uniform(-1.0, 2.0)
                bundle = grads.learned_norm_pool_grad(x, p_raw)
                if _informative(bundle.d_input, bundle.d_params["p_raw"]):
                    break
            worst = max(
                worst,
                fd_check(
                    lambda v: ops.learned_norm_pool(v, p_raw),
                    x,
                    bundle.d_input,
                    config,
                ),
                fd_check(
                    lambda v: ops.learned_norm_pool(x, v[0]),
                    np.array([p_raw]),
                    bundle.d_params["p_raw"],
                    config,
                ),
            )
        elif method == "LSE":
            x = rng.uniform(-1.0, 1.0, size=n)
            r = float(lse_sharpness)
            bundle = grads.lse_pool_grad(x, r)
            if not _informative(bundle.d_input):
                continue
            worst = max(
                worst, fd_check(lambda v: ops.lse_pool(v, r), x, bundle.d_input, config)
            )
        elif method in ("SMP_fixed", "SMP_trainable"):
            while True:
                x = rng.uniform(-2.0, 2.0, size=n)
                tau = rng.uniform(-3.0, 3.0)
                bundle = grads.smooth_max_pool_grad(x, tau)
                if _informative(bundle.d_input, bundle.d_params["tau"]):
                    break
            worst = max(
                worst,
                fd_check(
                    lambda v: ops.smooth_max_pool(v, tau), x, bundle.d_input, config
                ),
                fd_check(
                    lambda v: ops.smooth_max_pool(x, v[0]),
                    np.array([tau]),
                    bundle.d_params["tau"],
                    config,
                ),
            )
        else:  # pragma: no cover
            raise ValueError(f"no window-level check for {method}")
    return worst


def _check_se_block(method, trials, config, rng):
    """Block-level check of the squeeze-and-excitation pooling stages.

    Probes the scalar <R, block(X)> for a fixed random R against the layer's
    analytic backward, over the input and every branch parameter, sampling a
    handful of coordinates per trial.
    """
    channels, ratio, size = 4, 2, 4
    worst = 0.0
    spec = ops.PoolSpec(method, _WINDOW, channels)
    for _ in range(trials):
        while True:
            x = rng.uniform(-1.0, 1.0, size=(1, channels, size, size))
            params = ops.PoolParams(
                se_f1=ops.Affine(
                    rng.uniform(-1.0, 1.0, size=(channels // ratio, channels)),
                    rng.uniform(-0.5, 0.5, size=channels // ratio),
                ),
                se_f2=ops.Affine(
                    rng.uniform(-1.0, 1.0, size=(channels, channels // ratio)),
                    rng.uniform(-0.5, 0.5, size=channels),
                ),
                se_ratio=ratio,
            )
            # keep the ReLU kink and window ties out of FD range
            hidden = params.se_f1(x[0].mean(axis=(1, 2)))
            sorted_win = np.sort(np.stack(layers.window_views(x, _WINDOW)), axis=0)
            if np.abs(hidden).min() > 1e-3 and (sorted_win[-1] - sorted_win[-2]).min() > 1e-2:
                break
        block = layers.PoolingBlock(spec, params)
        probe = rng.uniform(-1.0, 1.0, size=block.forward(x).shape)

        def scalar(xx):
            return float((probe * block.forward(xx)).sum())

        block.forward(x)
        dx = block.backward(probe)
        grad_map = {"x": dx.reshape(-1)}
        flats = {"x": x.reshape(-1)}
        for name, arr in block.params().items():
            flats[name] = arr.reshape(-1)
            grad_map[name] = block.grads()[name].reshape(-1)

        def value_at(name, flat):
            if name == "x":
                return scalar(flat.reshape(x.shape))
            arr = block.params()[name]
            saved = arr.copy()
            arr[...] = flat.reshape(arr.shape)
            try:
                return scalar(x)
            finally:
                arr[...] = saved

        for name, flat in flats.items():
            coords = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for c in coords:
                analytic = grad_map[name][c]
                if 0.0 < abs(analytic) < _MIN_COORD:
                    continue

                def one_coord(v, name=name, flat=flat, c=c):
                    probe_flat = flat.copy()
                    probe_flat[c] = v[0]
                    return value_at(name, probe_flat)

                err = fd_check(
                    one_coord, np.array([flat[c]]), np.array([analytic]), config
                )
                worst = max(worst, err)
    return worst


def check_method(
    method: str,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> GradCheckResult:
    """Worst relative FD error for one method over `trials` random points."""
    if method not in ops.METHODS:
        raise ops.ConfigurationError(
            f"unknown pooling method {method!r}; valid: {', '.join(ops.METHODS)}"
        )
    rng = np.random.default_rng(seed)
    config = FDOracleConfig(tolerance=tolerance)
    if method in ("SESMP", "SEMP"):
        worst = _check_se_block(method, trials, config, rng)
    else:
        worst = _check_window_method(method, trials, config, rng, lse_sharpness)
    return GradCheckResult(method, trials, worst, tolerance)


def run_gradcheck(
    methods=ops.METHODS,
    trials: int = 1000,
    tolerance: float = 1e-5,
    seed: int = 0,
    lse_sharpness: float = 1.0,
) -> list[GradCheckResult]:
    """Check every requested method; one result row per method."""
    return [
        check_method(m, trials=trials, tolerance=tolerance, seed=seed + i, lse_sharpness=lse_sharpness)
        for i, m in enumerate(methods)
    ]
