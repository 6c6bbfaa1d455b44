"""Test-only helpers: report readers, initial weights, a data baseline, one
run trained alone, the finite-difference oracle of a function with its
array-form reference, perfbench's tracer and reference network, and gradient
arrays for a layer built outside a net.

The program writes its reports and never reads back a run or summary CSV;
the tests read them through these functions.
"""

import csv
import importlib.util
from pathlib import Path

import numpy as np

from poolbench.data import SyntheticDataset
from poolbench.grads import OracleError, bumped_points, fd_check
from poolbench.layers import ToyNetConfig
from poolbench.reports import SUMMARY_FIELDS
from poolbench.tensor import ShapeError
from poolbench.train import EpochMetrics, build_net, train_runs

ROOT = Path(__file__).resolve().parents[1]


def read_run_csv(path) -> list[EpochMetrics]:
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            out.append(
                EpochMetrics(
                    epoch=int(row["epoch"]),
                    train_loss=float(row["train_loss"]),
                    train_acc=float(row["train_acc"]),
                    test_loss=float(row["test_loss"]),
                    test_acc=float(row["test_acc"]),
                )
            )
    return out


def read_summary_csv(path) -> list[dict]:
    rows = []
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    for row in csv.DictReader(lines):
        rows.append(
            {"method": row["method"], **{k: float(row[k]) for k in SUMMARY_FIELDS[1:]}}
        )
    return rows


def init_weights(method: str, net_config: ToyNetConfig, seed: int) -> dict[str, np.ndarray]:
    """Freshly initialized parameter store; bit-identical for identical seeds."""
    return build_net(method, net_config, np.random.default_rng(seed)).params()


def train(method, dataset, optim, net_config=None, step_hook=None):
    """Train the run ``optim`` to completion (or divergence) and report it:
    ``train_runs`` of that one run."""
    return train_runs(method, dataset, [optim], net_config, step_hook)[0]


def nearest_centroid_accuracy(dataset: SyntheticDataset) -> float:
    """Accuracy of a nearest-centroid classifier fit on the training split."""
    classes = int(dataset.labels.max()) + 1
    flat_train = dataset.train_images.reshape(len(dataset.train_idx), -1)
    centroids = np.stack(
        [flat_train[dataset.train_labels == k].mean(axis=0) for k in range(classes)]
    )
    flat_test = dataset.test_images.reshape(len(dataset.test_idx), -1)
    distances = ((flat_test[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float((distances.argmin(axis=1) == dataset.test_labels).mean())


def values_at(fn, point, step, batched=False) -> np.ndarray:
    """``fn``'s values at the rows of ``grads.bumped_points(point, step)``: one call
    per row, or one call on the whole (2n, n) stack for a ``batched`` ``fn``."""
    stack = bumped_points(np.asarray(point, dtype=np.float64).reshape(-1), step)
    return np.asarray(fn(stack) if batched else [fn(row) for row in stack], dtype=np.float64)


def fd_check_fn(fn, point, analytic, config, batched=False) -> float:
    """``grads.fd_check`` of ``analytic`` against ``fn`` around ``point``."""
    return fd_check(values_at(fn, point, config.step, batched), analytic, config)


def central_difference(values, step: float) -> np.ndarray:
    """Per-coordinate central differences (f(x + h e_i) - f(x - h e_i)) / 2h, as arrays.

    ``values`` are the function's 2n values at the rows of
    ``grads.bumped_points(x, h)``: f(x + h e_i) for every i, then
    f(x - h e_i).  With :func:`relative_error` it is the reference of
    ``grads.fd_check``, which must equal ``relative_error(analytic,
    central_difference(values, step))`` bit for bit and raise the same errors.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or not values.size or values.size % 2:
        raise ShapeError(f"expected the 2n values of n coordinates as one flat array, got shape {values.shape}")
    n = values.size // 2
    hi, lo = values[:n], values[n:]
    if not np.isfinite(values).all():
        i = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))[0]
        raise OracleError(
            f"non-finite function value near coordinate {i} (f+={hi[i]}, f-={lo[i]})"
        )
    return (hi - lo) / (2.0 * step)


def relative_error(a, b, floor: float = 1e-8) -> float:
    """Worst relative discrepancy max_i |a_i - b_i| / max(|a_i|, |b_i|, floor)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"cannot compare shapes {a.shape} and {b.shape}")
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / scale).max())


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    """perfbench's tracer module, loaded from its file; it lists the names it patches."""
    return _perfbench_module("tracing")


def load_reference():
    """perfbench's plain-numpy reference network, which shares no code with poolbench."""
    return _perfbench_module("reference")


def with_zero_grads(layer):
    """``layer``, bound to zero gradient arrays of its own, as a net binds its layers to its buffer."""
    layer.bind(layer.params(), {key: np.zeros_like(arr) for key, arr in layer.params().items()})
    return layer
