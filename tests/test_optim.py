"""Adam update rule and the simplex re-projection hook."""

import numpy as np
import pytest

from poolbench.ops import ParameterError, project_to_simplex
from poolbench.optim import ADAM_BETAS, ADAM_EPSILON, Adam, OptimConfig


def buffer(shapes, rows=1):
    """An (S, P) buffer and its like-named views of ``shapes``, laid out as a
    net's: each view is (S,) + shape, or the shape itself for rows=None."""
    sizes = [int(np.prod(shape)) for shape in shapes.values()]
    flat = np.zeros((rows or 1, sum(sizes)))
    bounds = np.cumsum([0] + sizes)
    lead = () if rows is None else (rows,)
    views = {name: flat[:, lo:hi].reshape(lead + shape) for name, shape, lo, hi in zip(shapes, shapes.values(), bounds, bounds[1:])}
    return flat, views


def test_config_validation():
    with pytest.raises(ParameterError):
        OptimConfig(lr=0.0)
    with pytest.raises(ParameterError):
        OptimConfig(lr=float("inf"))
    with pytest.raises(ParameterError):
        OptimConfig(lr=float("nan"))
    with pytest.raises(ParameterError):
        OptimConfig(batch_size=0)


def test_zero_gradient_keeps_parameters():
    p = np.array([[1.0, -2.0, 3.0]])
    adam = Adam(p, OptimConfig(lr=0.1))
    adam.step(np.zeros((1, 3)))
    np.testing.assert_array_equal(p, [[1.0, -2.0, 3.0]])


def test_first_step_magnitude_bounded_by_lr():
    rng = np.random.default_rng(0)
    for _ in range(20):
        w = rng.normal(size=(1, 5))
        p = w.copy()
        g = rng.normal(size=(1, 5)) * rng.choice([1e-3, 1.0, 1e3])
        adam = Adam(p, OptimConfig(lr=0.01))
        adam.step(g)
        delta = np.abs(p - w)
        assert (delta <= 0.01 * (1.0 + 1e-7)).all()
        # and the step moves against the gradient direction
        assert (np.sign(w - p) == np.sign(g))[g != 0].all()


def test_two_steps_match_hand_computation():
    lr, (b1, b2) = 0.1, ADAM_BETAS
    p = np.array([[0.5]])
    adam = Adam(p, OptimConfig(lr=lr))
    g1, g2 = np.array([[0.3]]), np.array([[-0.2]])

    m = (1 - b1) * g1
    v = (1 - b2) * g1**2
    w = 0.5 - lr * (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + ADAM_EPSILON)
    adam.step(g1)
    np.testing.assert_allclose(p, w, atol=1e-15)

    m = b1 * m + (1 - b1) * g2
    v = b2 * v + (1 - b2) * g2**2
    w = w - lr * (m / (1 - b1**2)) / (np.sqrt(v / (1 - b2**2)) + ADAM_EPSILON)
    adam.step(g2)
    np.testing.assert_allclose(p, w, atol=1e-15)


def test_simplex_projection_after_every_step():
    rng = np.random.default_rng(1)
    flat, p = buffer({"b": (3,), "w": (4,)}, rows=None)
    p["w"][...] = 0.25
    adam = Adam(flat, OptimConfig(lr=0.05), simplex=(p["w"],))
    for _ in range(200):
        adam.step(rng.normal(size=flat.shape))
        assert (p["w"] >= 0.0).all()
        assert abs(p["w"].sum() - 1.0) < 1e-12


def test_flat_update_bit_identical_to_per_parameter_formula():
    rng = np.random.default_rng(2)
    lr, (b1, b2) = 0.01, ADAM_BETAS
    shapes = {"conv": (3, 2, 3, 3), "bias": (3,), "w": (4,), "p": (1,), "head": (2, 5)}
    flat, p = buffer(shapes, rows=None)
    flat_grads, grads = buffer(shapes, rows=None)
    flat[...] = rng.normal(size=flat.shape)
    p["w"][...] = 0.25
    want = {name: arr.copy() for name, arr in p.items()}
    m = {name: np.zeros_like(arr) for name, arr in p.items()}
    v = {name: np.zeros_like(arr) for name, arr in p.items()}
    adam = Adam(flat, OptimConfig(lr=lr), simplex=(p["w"],))
    for t in range(1, 8):
        for g in grads.values():
            g[...] = rng.normal(size=g.shape) * 10.0 ** rng.integers(-4, 3)
        adam.step(flat_grads)
        for name, g in grads.items():
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
            want[name] -= lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + ADAM_EPSILON)
        want["w"] = project_to_simplex(want["w"])
        for name in p:
            np.testing.assert_array_equal(p[name], want[name], err_msg=f"{name} at step {t}")


def test_stacked_rates_match_single_optimizers_bit_for_bit():
    # replica r steps at lrs[r]; the stack and r's own Adam give the same bits, and so
    # does a selected row after more steps
    rng = np.random.default_rng(3)
    lrs = (0.05, 1e-4)
    shapes = {"conv": (3, 2, 3), "w": (4,)}
    flat, stacked = buffer(shapes, rows=2)
    flat[...] = rng.normal(size=flat.shape)
    stacked["w"][...] = 0.25
    single = [buffer(shapes, rows=None) for _ in range(2)]
    for r, (row, _) in enumerate(single):
        row[...] = flat[r]
    config = OptimConfig(lr=1.0)
    adam = Adam(flat, config, simplex=(stacked["w"],), lrs=lrs)
    alone = [
        Adam(row, OptimConfig(lr=lr), simplex=(params["w"],))
        for (row, params), lr in zip(single, lrs)
    ]
    for t in range(12):
        if t == 6:
            kept, stacked = buffer(shapes, rows=1)
            kept[...] = flat[[1]]
            adam, alone, single, flat = adam.select(kept, (stacked["w"],), [1]), alone[1:], single[1:], kept
        grads = rng.normal(size=flat.shape)
        adam.step(grads)
        for r, (opt, (row, params)) in enumerate(zip(alone, single)):
            opt.step(grads[[r]])
            for name in params:
                np.testing.assert_array_equal(stacked[name][r], params[name], err_msg=f"{name}[{r}] at step {t}")


def test_simplex_array_outside_the_buffer_rejected():
    with pytest.raises(ParameterError):
        Adam(np.ones((1, 2)), OptimConfig(), simplex=(np.full(2, 0.5),))
