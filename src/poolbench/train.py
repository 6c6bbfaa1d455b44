"""Training loop: seeded runs of the toy classifier with any pooling method.

A run is fully determined by (method, dataset, OptimConfig, ToyNetConfig):
the run seed drives weight initialization and the per-epoch shuffles, so the
same configuration reproduces a bit-identical :class:`RunReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .data import SyntheticDataset, make_synthetic
from .layers import DivergedRunError, ToyNet, ToyNetConfig, softmax_cross_entropy
from .ops import DegenerateWeightsError, norm_exponent
from .optim import Adam, OptimConfig

__all__ = [
    "DivergedRunError",
    "EpochMetrics",
    "BlockSnapshot",
    "RunReport",
    "build_net",
    "forward_backward",
    "evaluate",
    "train",
    "run_single",
]


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_loss: float
    test_acc: float

    def __post_init__(self):
        for name in ("train_acc", "test_acc"):
            acc = getattr(self, name)
            if not 0.0 <= acc <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {acc}")


@dataclass(frozen=True)
class BlockSnapshot:
    """End-of-training values of one pooling block's parameters."""

    block: int
    params: dict[str, list[float]]


@dataclass
class RunReport:
    """Everything one training run produced."""

    method: str
    seed: int
    epochs: list[EpochMetrics] = field(default_factory=list)
    snapshots: list[BlockSnapshot] = field(default_factory=list)
    diverged: bool = False
    note: str = ""

    @property
    def final_train_acc(self) -> float:
        return self.epochs[-1].train_acc if self.epochs else float("nan")

    @property
    def final_test_acc(self) -> float:
        return self.epochs[-1].test_acc if self.epochs else float("nan")

    @property
    def final_train_loss(self) -> float:
        return self.epochs[-1].train_loss if self.epochs else float("nan")


def build_net(method: str, net_config: ToyNetConfig, rng) -> ToyNet:
    return ToyNet(net_config, method, rng)


def forward_backward(net: ToyNet, images, labels):
    """One full forward/backward pass; returns (loss, accuracy, grads).

    Gradients cover every trainable parameter, pooling parameters included.
    Raises :class:`DivergedRunError` on a non-finite loss or pooling input.
    """
    net.zero_grads()
    logits = net.forward(images)
    loss, d_logits, accuracy = softmax_cross_entropy(logits, labels)
    if not np.isfinite(loss):
        raise DivergedRunError(f"non-finite loss {loss}")
    net.backward(d_logits)
    return loss, accuracy, net.grads()


def evaluate(net: ToyNet, images, labels, batch_size: int = 100):
    """Mean loss and accuracy over a held-out set, without touching gradients.

    Forwards slices of ``batch_size`` images (:func:`train` passes its
    training batch) and sums the loss per 100 samples at any slice size.
    Raises ``ValueError`` on an empty set.
    """
    if len(images) == 0:
        raise ValueError("cannot evaluate on zero images")
    logits = np.empty((len(images), net.config.classes))
    for start in range(0, len(images), batch_size):
        logits[start : start + batch_size] = net.forward(images[start : start + batch_size])
    total_loss = 0.0
    correct = 0.0
    for start in range(0, len(images), 100):
        group = logits[start : start + 100]
        loss, _, acc = softmax_cross_entropy(group, labels[start : start + 100])
        total_loss += loss * len(group)
        correct += acc * len(group)
    return total_loss / len(images), correct / len(images)


def _snapshots(net: ToyNet) -> list[BlockSnapshot]:
    """Every pooling block's parameters as flat float lists, with LNP's exponent
    ``p`` next to ``p_raw``."""
    snapshots = []
    for index, block in enumerate(net.pooling_blocks):
        params = {name: [float(v) for v in np.reshape(arr, -1)] for name, arr in block.pool_params.items()}
        if "p_raw" in params:
            params["p"] = [norm_exponent(block.pool_params["p_raw"][0])]
        snapshots.append(BlockSnapshot(block=index, params=params))
    return snapshots


# overflow surfaces as a recorded divergence, not as numpy warnings; one scope per run
@np.errstate(over="ignore", invalid="ignore")
def train(
    method: str,
    dataset: SyntheticDataset,
    optim: OptimConfig,
    net_config: ToyNetConfig | None = None,
    step_hook=None,
) -> RunReport:
    """Train one run to completion (or divergence) and report it.

    ``step_hook(step_index, net)``, when given, runs after every optimizer
    step; the acceptance suite uses it to watch the ordinal weights.
    A diverged (non-finite loss or activations) or aborted run keeps the
    epochs finished so far and the current parameter snapshots, with the
    failure recorded in ``note``.
    """
    net_config = net_config or ToyNetConfig()
    rng = np.random.default_rng(optim.seed)
    net = build_net(method, net_config, rng)
    adam = Adam(net.params(), optim, simplex_names=net.simplex_params())
    report = RunReport(method=method, seed=optim.seed)

    images = dataset.train_images
    labels = dataset.train_labels
    step = 0
    for epoch in range(1, optim.epochs + 1):
        order = rng.permutation(len(images))
        epoch_loss = 0.0
        epoch_correct = 0.0
        try:
            for start in range(0, len(order), optim.batch_size):
                batch_idx = order[start : start + optim.batch_size]
                loss, acc, grads = forward_backward(net, images[batch_idx], labels[batch_idx])
                adam.step(grads)
                step += 1
                epoch_loss += loss * len(batch_idx)
                epoch_correct += acc * len(batch_idx)
                if step_hook is not None:
                    step_hook(step, net)
        except DivergedRunError as err:
            report.diverged = True
            report.note = f"diverged at step {step + 1}: {err}"
            break
        except DegenerateWeightsError as err:
            report.diverged = True
            report.note = f"aborted at step {step + 1}: {err}"
            break
        try:
            test_loss, test_acc = evaluate(net, dataset.test_images, dataset.test_labels, optim.batch_size)
        except DivergedRunError as err:
            report.diverged = True
            report.note = f"diverged after step {step}, in evaluation: {err}"
            break
        report.epochs.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=epoch_loss / len(order),
                train_acc=epoch_correct / len(order),
                test_loss=test_loss,
                test_acc=test_acc,
            )
        )
    report.snapshots = _snapshots(net)
    return report


@lru_cache(maxsize=4)
def _shared_dataset(data_items) -> SyntheticDataset:
    """make_synthetic(**dict(data_items)), built once per process and read-only."""
    dataset = make_synthetic(**dict(data_items))
    for arr in (dataset.images, dataset.labels, dataset.train_idx, dataset.test_idx):
        arr.flags.writeable = False
    return dataset


def run_single(method: str, seed: int, data_kwargs: dict, optim: OptimConfig, net_config: ToyNetConfig) -> RunReport:
    """One (method, seed) run on the dataset that ``data_kwargs`` describe.

    Every run of a sweep shares one dataset, so it is generated once per
    process.  Top-level so a process pool can dispatch it.
    """
    dataset = _shared_dataset(tuple(sorted(data_kwargs.items())))
    return train(method, dataset, replace(optim, seed=seed), net_config)
