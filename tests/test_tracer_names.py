"""The names that perfbench's tracer patches exist where it patches them.

The tracer (``perfbench/tracing.py``) replaces module attributes through
``vars(module)[name]``, so each must stay a module-level name of its module.
This reads the tracer's own lists; it does not change the tracer.
"""

import pytest

from helpers import load_tracing
from poolbench import cli, gradcheck, grads, layers, ops, optim, reports, train
from poolbench.data import make_synthetic

TRACED = load_tracing()


@pytest.mark.parametrize(
    "module, names",
    [
        (ops, TRACED.WINDOW_OPS),
        (grads, TRACED.WINDOW_GRADS),
        (reports, TRACED.REPORT_WRITERS),
        (gradcheck, ("fd_check", "check_method")),
        (grads, ("fd_check",)),
        (train, ("make_synthetic", "forward_backward", "evaluate")),
    ],
    ids=["ops", "grads", "reports", "gradcheck", "grads-fd", "train"],
)
def test_patched_module_names_exist(module, names):
    assert names
    missing = [name for name in names if not callable(vars(module).get(name))]
    assert not missing, f"{module.__name__} lacks {missing}"


@pytest.mark.parametrize(
    "cls, attr",
    [
        (layers.Conv2D, "forward"),
        (layers.Conv2D, "backward"),
        (layers.Linear, "forward"),
        (layers.Linear, "backward"),
        (layers.PoolingBlock, "forward"),
        (layers.PoolingBlock, "backward"),
        (layers.ToyNet, "__init__"),
        (optim.Adam, "step"),
    ],
)
def test_patched_class_attributes_exist(cls, attr):
    assert callable(vars(cls).get(attr))


def test_tracer_lists_every_method():
    assert TRACED.METHODS == ops.METHODS


def test_forward_backward_sees_every_training_sample(tmp_path, monkeypatch):
    # the tracer counts train.samples as len(images) per forward_backward call and
    # names each call after net.method; a stacked step passes every replica's batch
    calls = []
    real = train.forward_backward

    def counting(net, images, labels):
        calls.append((net.method, len(images)))
        return real(net, images, labels)

    monkeypatch.setattr(train, "forward_backward", counting)
    methods, seeds, epochs, samples = ("OP", "SESMP"), ("1", "2"), 2, 60
    argv = ["sweep", "--methods", *methods, "--seeds", *seeds, "--epochs", str(epochs), "--samples", str(samples)]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    split = len(make_synthetic(classes=4, samples=samples, seed=777, noise=0.1).train_idx)
    assert sum(n for _, n in calls) == len(methods) * len(seeds) * epochs * split
    assert {m for m, _ in calls} == set(methods)
