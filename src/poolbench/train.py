"""Training loop: seeded runs of the toy classifier with any pooling method.

A run is an :class:`OptimConfig`, and it is fully determined by (method,
dataset, OptimConfig, ToyNetConfig): its seed drives weight initialization
and the per-epoch shuffles, so the same configuration reproduces a
bit-identical :class:`RunReport`.  :func:`train_runs` trains a list of runs
that differ only in seed and learning rate as the replicas of one stacked
net, in lock-step; each report is the one its run gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .data import SyntheticDataset, make_synthetic
from .layers import DivergedRunError, ToyNet, ToyNetConfig, softmax_cross_entropy
from .ops import DegenerateWeightsError, norm_exponent
from .optim import Adam

__all__ = [
    "DivergedRunError",
    "EpochMetrics",
    "BlockSnapshot",
    "RunReport",
    "build_net",
    "forward_backward",
    "evaluate",
    "train_runs",
    "shared_dataset",
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
    A stacked net takes (S*B, ...) images and labels, replica r's rows r*B ..
    (r+1)*B - 1, and gives a loss and an accuracy per replica.  Raises
    :class:`DivergedRunError` on a non-finite loss or pooling input; for a
    stack, the error names the replicas at fault.
    """
    net.zero_grads()
    logits = net.forward(images)
    loss, d_logits, accuracy = softmax_cross_entropy(logits, np.reshape(labels, logits.shape[:-1]))
    finite = np.isfinite(loss)
    if not finite.all():
        if net.replicas is None:
            raise DivergedRunError(f"non-finite loss {loss}")
        r = int(np.argmin(finite))  # the first; the messages differ by value
        raise DivergedRunError(f"non-finite loss {float(loss[r])}", (r,))
    net.backward(d_logits)
    return loss, accuracy, net.grads()


def evaluate(net: ToyNet, images, labels, batch_size: int = 100):
    """Mean loss and accuracy over a held-out set, without touching gradients.

    Forwards slices of ``batch_size`` images (:func:`train_runs` passes its
    training batch) and sums the loss per 100 samples at any slice size.
    Every replica of a stacked ``net`` scores the whole set, and gets its
    own loss and accuracy; a single net gets a float loss and accuracy.
    Raises ``ValueError`` on an empty set.
    """
    if len(images) == 0:
        raise ValueError("cannot evaluate on zero images")
    replicas = () if net.replicas is None else (net.replicas,)
    logits = np.empty(replicas + (len(images), net.config.classes))
    for start in range(0, len(images), batch_size):
        batch = images[start : start + batch_size]
        logits[..., start : start + batch_size, :] = net.forward(np.broadcast_to(batch, replicas + batch.shape))
    total_loss = 0.0
    correct = 0.0
    for start in range(0, len(images), 100):
        group = logits[..., start : start + 100, :]
        loss, _, acc = softmax_cross_entropy(group, labels[start : start + 100])
        total_loss += loss * group.shape[-2]
        correct += acc * group.shape[-2]
    return total_loss / len(images), correct / len(images)


def _snapshots(net: ToyNet, row: int) -> list[BlockSnapshot]:
    """Every pooling block's parameters of replica ``row`` of a stacked net as
    flat float lists, with LNP's exponent ``p`` next to ``p_raw``."""
    snapshots = []
    for index, block in enumerate(net.pooling_blocks):
        params = {name: [float(v) for v in np.reshape(arr[row], -1)] for name, arr in block.pool_params.items()}
        if "p_raw" in params:
            params["p"] = [norm_exponent(params["p_raw"][0])]
        snapshots.append(BlockSnapshot(block=index, params=params))
    return snapshots


class _Replicas:
    """The live runs of a lock-step training, in stack order: one stacked net
    and one optimizer over all of them, and each run's seed generator, report,
    epoch shuffle and batch-weighted epoch loss and accuracy sums."""

    def __init__(self, method, net_config, runs):
        self.rngs = [np.random.default_rng(run.seed) for run in runs]
        self.reports = [RunReport(method=method, seed=run.seed) for run in runs]
        self.net = build_net(method, net_config, self.rngs)
        self.adam = Adam(self.net.flat_params, runs[0], self.net.simplex_params().values(), [run.lr for run in runs])

    def new_epoch(self, samples):
        self.orders = [rng.permutation(samples) for rng in self.rngs]
        self.sums = np.zeros((2, len(self.rngs)))

    def drop(self, rows, note):
        """Freeze the runs at ``rows`` (None: all) with ``note`` and their current
        parameters, and take them off the stack."""
        rows = range(len(self.reports)) if rows is None else rows
        for r in rows:
            report = self.reports[r]
            report.diverged, report.note, report.snapshots = True, note, _snapshots(self.net, r)
        keep = [r for r in range(len(self.reports)) if r not in rows]
        self.rngs, self.reports, self.orders = ([runs[r] for r in keep] for runs in (self.rngs, self.reports, self.orders))
        self.sums = self.sums[:, keep]
        if keep:
            self.net = self.net.select(keep)
            self.adam = self.adam.select(self.net.flat_params, self.net.simplex_params().values(), keep)


# overflow surfaces as a recorded divergence, not as numpy warnings; one scope per run
@np.errstate(over="ignore", invalid="ignore")
def train_runs(
    method: str,
    dataset: SyntheticDataset,
    runs,
    net_config: ToyNetConfig | None = None,
    step_hook=None,
) -> list[RunReport]:
    """Train the ``runs`` (OptimConfigs) in lock-step, and report each, in order.

    The runs are the replicas of one stacked net, and may differ only in
    ``seed`` and ``lr`` (else ``ValueError``).  Each draws its weights and
    every epoch's shuffle from its own seed and steps at its own rate, so
    each report is the one its run gives alone.  ``step_hook(step_index,
    net)``, when given, runs after every optimizer step; the acceptance
    suite uses it to watch the ordinal weights.  A run that diverges
    (non-finite loss or activations) or aborts (a degenerate simplex
    projection) keeps the epochs finished so far and its current parameter
    snapshots, with the failure recorded in ``note``, and leaves the stack;
    the others go on.
    """
    if not runs or any(replace(run, seed=runs[0].seed, lr=runs[0].lr) != runs[0] for run in runs):
        raise ValueError(f"need one or more runs that differ only in seed and lr, got {runs}")
    optim = runs[0]
    live = _Replicas(method, net_config or ToyNetConfig(), runs)
    reports = list(live.reports)
    images, labels = dataset.train_images, dataset.train_labels
    samples, batch = len(images), optim.batch_size
    step = 0
    for epoch in range(1, optim.epochs + 1):
        live.new_epoch(samples)
        start = 0
        while start < samples and live.reports:
            rows = np.concatenate([order[start : start + batch] for order in live.orders])
            try:
                loss, acc, _ = forward_backward(live.net, images[rows], labels[rows])
            except DivergedRunError as err:  # the others retake the step
                live.drop(err.replicas, f"diverged at step {step + 1}: {err}")
                continue
            failed = None
            try:
                live.adam.step(live.net.flat_grads)
            except DegenerateWeightsError as err:
                failed, note = err.replicas, f"aborted at step {step + 1}: {err}"
            step += 1
            size = min(batch, samples - start)
            live.sums += np.reshape([loss, acc], (2, -1)) * size
            if failed is not None:
                live.drop(failed, note)
            if step_hook is not None and live.reports:
                step_hook(step, live.net)
            start += batch
        while live.reports:
            try:
                test = evaluate(live.net, dataset.test_images, dataset.test_labels, batch)
                break
            except DivergedRunError as err:
                live.drop(err.replicas, f"diverged after step {step}, in evaluation: {err}")
        if not live.reports:
            break
        test = np.reshape(test, (2, -1))
        for r, report in enumerate(live.reports):
            train_loss, train_acc = live.sums[:, r] / samples
            report.epochs.append(EpochMetrics(epoch, float(train_loss), float(train_acc), *map(float, test[:, r])))
    for r, report in enumerate(live.reports):
        report.snapshots = _snapshots(live.net, r)
    return reports


def shared_dataset(data_kwargs: dict) -> SyntheticDataset:
    """``make_synthetic(**data_kwargs)``, built once per process and read-only:
    every run of a sweep trains on the same dataset."""
    return _dataset(tuple(sorted(data_kwargs.items())))


@lru_cache(maxsize=4)
def _dataset(data_items) -> SyntheticDataset:
    dataset = make_synthetic(**dict(data_items))
    for arr in (dataset.images, dataset.labels, dataset.train_idx, dataset.test_idx):
        arr.flags.writeable = False
    return dataset
