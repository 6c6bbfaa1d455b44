"""Command-line front end: seeded method sweeps, gradient verification,
parameter-distribution reports, and learning-rate sweeps.

Exit codes: 0 success, 1 usage error, 2 gradient-check failure, 3 sweep
finished but contains diverged or crashed run(s).  ``POOLBENCH_THREADS``
caps how many worker processes a sweep may use (default 1).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from .data import check_data_args
from .gradcheck import run_gradcheck
from .grads import FDOracleConfig
from .layers import ToyNetConfig
from .ops import HEADLINE_METHODS, METHODS
from .optim import OptimConfig
from . import reports as rep
from .train import RunReport, run_single

__all__ = ["ExperimentConfig", "UsageError", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GRADCHECK = 2
EXIT_DIVERGED = 3

_DEFAULT_SEEDS = (1, 2, 3, 4)
_DEFAULT_DATA_SEED = 777


class UsageError(Exception):
    """Bad invocation: unknown method, malformed flag, unreadable config."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _check_methods(methods):
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise UsageError(f"unknown method(s) {', '.join(unknown)}; valid: {', '.join(METHODS)}")


def _check_seed(name, seed):
    if seed < 0:  # numpy's generators take non-negative seeds only
        raise UsageError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved sweep: which methods and seeds, training and data settings."""

    methods: tuple[str, ...]
    seeds: tuple[int, ...]
    optim: OptimConfig
    out_dir: Path
    samples: int = 1000
    noise: float = 0.1
    classes: int = 4
    data_seed: int = _DEFAULT_DATA_SEED
    lse_sharpness: float = 1.0

    def __post_init__(self):
        _check_methods(self.methods)
        if not self.seeds:
            raise UsageError("seed list must not be empty")
        for seed in self.seeds:
            _check_seed("seed", seed)
        _check_seed("data_seed", self.data_seed)
        check_data_args(self.classes, self.samples)
        self.net_config()  # validates the class count and LSE sharpness

    def data_kwargs(self) -> dict:
        return {
            "classes": self.classes,
            "samples": self.samples,
            "seed": self.data_seed,
            "noise": self.noise,
        }

    def net_config(self) -> ToyNetConfig:
        return ToyNetConfig(classes=self.classes, lse_sharpness=self.lse_sharpness)


def _read_config_file(path) -> dict[str, str]:
    """Flat `key = value` pairs; blank lines and #-comments ignored."""
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from err
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _pick(args, file_cfg, key, convert, default):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_cfg:
        raw = file_cfg[key]
        try:
            return convert(raw)
        except (TypeError, ValueError) as err:
            raise UsageError(f"config key {key}={raw!r}: {err}") from err
    return default


def _split_list(raw):
    return raw.replace(",", " ").split()


def _int_list(raw):
    return tuple(int(v) for v in _split_list(raw))


def _str_list(raw):
    return tuple(_split_list(raw))


def build_parser() -> _Parser:
    parser = _Parser(prog="poolbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file; flags win")
        p.add_argument("--out", help="output directory (default: results)")

    sweep = sub.add_parser("sweep", help="train every (method, seed) pair and summarize")
    add_common(sweep)
    sweep.add_argument("--methods", nargs="+", help=f"subset of: {' '.join(METHODS)}")
    sweep.add_argument("--seeds", nargs="+", type=int)
    sweep.add_argument("--epochs", type=int)
    sweep.add_argument("--lr", type=float)
    sweep.add_argument("--batch-size", dest="batch_size", type=int)
    sweep.add_argument("--lse-r", dest="lse_r", type=float, help="fixed LSE sharpness")

    grad = sub.add_parser("gradcheck", help="verify analytic gradients against central differences")
    add_common(grad)
    grad.add_argument("--methods", nargs="+")
    grad.add_argument("--trials", type=int)
    grad.add_argument("--tolerance", type=float)
    grad.add_argument("--seed", type=int)
    grad.add_argument("--lse-r", dest="lse_r", type=float)

    par = sub.add_parser("params-report", help="percentile tables from parameter snapshots")
    add_common(par)
    par.add_argument("snapshots", nargs="*", help="params_*.json files (default: scan --out)")

    lrs = sub.add_parser("lr-sweep", help="short runs over a learning-rate list")
    add_common(lrs)
    lrs.add_argument("--method", default="MP")
    lrs.add_argument("--lrs", nargs="+", type=float, required=True)
    lrs.add_argument("--epochs", type=int)
    lrs.add_argument("--seed", type=int, default=1)
    lrs.add_argument("--batch-size", dest="batch_size", type=int)
    return parser


def _resolve_experiment(args, default_epochs=10) -> ExperimentConfig:
    """Flags, then config file, then defaults; out-of-range values are usage errors."""
    file_cfg = _read_config_file(args.config) if args.config else {}
    try:
        return ExperimentConfig(
            methods=tuple(_pick(args, file_cfg, "methods", _str_list, HEADLINE_METHODS)),
            seeds=tuple(_pick(args, file_cfg, "seeds", _int_list, _DEFAULT_SEEDS)),
            optim=OptimConfig(
                lr=_pick(args, file_cfg, "lr", float, 1e-4),
                epochs=_pick(args, file_cfg, "epochs", int, default_epochs),
                batch_size=_pick(args, file_cfg, "batch_size", int, 10),
            ),
            out_dir=Path(_pick(args, file_cfg, "out", str, "results")),
            samples=_pick(args, file_cfg, "samples", int, 1000),
            noise=_pick(args, file_cfg, "noise", float, 0.1),
            classes=_pick(args, file_cfg, "classes", int, 4),
            data_seed=_pick(args, file_cfg, "data_seed", int, _DEFAULT_DATA_SEED),
            lse_sharpness=_pick(args, file_cfg, "lse_r", float, 1.0),
        )
    except ValueError as err:
        raise UsageError(str(err)) from err


def _worker_count() -> int:
    raw = os.environ.get("POOLBENCH_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise UsageError(f"POOLBENCH_THREADS must be an integer, got {raw!r}")


def _run_sweep_tasks(config: ExperimentConfig) -> list[RunReport]:
    tasks = [(m, s) for m in config.methods for s in config.seeds]
    workers = min(_worker_count(), len(tasks))
    args = [
        (m, s, config.data_kwargs(), config.optim, config.net_config()) for m, s in tasks
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one, args))
    else:
        results = [_run_one(a) for a in args]
    # deterministic assembly regardless of completion order
    order = {m: i for i, m in enumerate(config.methods)}
    results.sort(key=lambda r: (order[r.method], r.seed))
    return results


def _run_one(packed) -> RunReport:
    """One sweep run; a crash becomes a failed (method, seed) row, not the sweep's end."""
    method, seed, data_kwargs, optim, net_config = packed
    try:
        return run_single(method, seed, data_kwargs, optim, net_config)
    except Exception as err:
        return RunReport(method, seed, diverged=True, note=f"crashed: {type(err).__name__}: {err}")


def cmd_sweep(args) -> int:
    config = _resolve_experiment(args)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    results = _run_sweep_tasks(config)
    for report in results:
        rep.write_run_csv(report, config.out_dir / rep.run_csv_name(report.method, report.seed))
        rep.write_params_json(report, config.out_dir / rep.params_json_name(report.method, report.seed))
    rows = rep.summarize(results, config.methods)
    rep.write_summary_csv(rows, config.out_dir / "summary.csv")
    diverged = [r for r in results if r.diverged]
    print(f"{'method':<14} {'train_acc':>18} {'test_acc':>18}")
    for row in rows:
        print(
            f"{row['method']:<14} "
            f"{row['mean_train_acc']:>9.4f} ± {row['sd_train_acc']:<6.4f} "
            f"{row['mean_test_acc']:>9.4f} ± {row['sd_test_acc']:<6.4f}"
        )
    if diverged:
        for r in diverged:
            print(f"DIVERGED: {r.method} seed {r.seed}: {r.note}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    methods = tuple(_pick(args, file_cfg, "methods", _str_list, METHODS))
    _check_methods(methods)
    seed = _pick(args, file_cfg, "seed", int, 0)
    _check_seed("seed", seed)
    trials = _pick(args, file_cfg, "trials", int, 1000)
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    tolerance = _pick(args, file_cfg, "tolerance", float, 1e-5)
    lse_r = _pick(args, file_cfg, "lse_r", float, 1.0)
    try:
        FDOracleConfig(tolerance=tolerance)
        ToyNetConfig(lse_sharpness=lse_r)
    except ValueError as err:
        raise UsageError(str(err)) from err
    results = run_gradcheck(
        methods, trials=trials, tolerance=tolerance, seed=seed, lse_sharpness=lse_r
    )
    print(f"{'method':<14} {'worst_rel_error':>16} {'tolerance':>12} verdict")
    failed = False
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(f"{r.method:<14} {r.worst_error:>16.3e} {r.tolerance:>12.1e} {verdict}")
    return EXIT_GRADCHECK if failed else EXIT_OK


def cmd_params_report(args) -> int:
    file_cfg = _read_config_file(args.config) if args.config else {}
    out_dir = Path(_pick(args, file_cfg, "out", str, "results"))
    paths = [Path(p) for p in args.snapshots] or sorted(out_dir.glob("params_*.json"))
    if not paths:
        raise UsageError(f"no snapshot files given and none found under {out_dir}")
    payloads = []
    for path in paths:
        try:
            payloads.append(rep.read_params_json(path))
        except (OSError, ValueError, KeyError) as err:
            raise UsageError(f"cannot read snapshot {path}: {err}") from err
    rows = rep.params_report_rows(payloads)
    out_dir.mkdir(parents=True, exist_ok=True)
    rep.write_params_report_csv(rows, out_dir / "params_report.csv")
    for row in rows:
        cells = " ".join(f"p{p}={row[f'p{p}']:+.4f}" for p in rep.PERCENTILES)
        print(
            f"{row['method']:<14} seed={row['seed']} block={row['block']} "
            f"{row['param']:<14} n={row['count']:<4} {cells}"
        )
    drift = rep.ordinal_drift_check(payloads)
    if drift["total"]:
        print(
            f"ordinal drift: max-slot weight strictly largest in "
            f"{drift['wins']}/{drift['total']} seeds -> {drift['verdict']}"
        )
    return EXIT_OK


def cmd_lr_sweep(args) -> int:
    _check_methods([args.method])
    _check_seed("seed", args.seed)
    if not all(0 < lr < math.inf for lr in args.lrs):
        raise UsageError("learning rates must be positive and finite")
    config = _resolve_experiment(args, default_epochs=1)
    config.out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for lr in args.lrs:
        optim = replace(config.optim, lr=lr)
        report = run_single(args.method, args.seed, config.data_kwargs(), optim, config.net_config())
        results.append((lr, report.final_train_loss, report.diverged))
    # ties break toward the smaller learning rate
    viable = [(loss, lr) for lr, loss, diverged in results if not diverged]
    print(f"{'lr':>10} {'final_train_loss':>18}")
    for lr, loss, diverged in results:
        note = " (diverged)" if diverged else ""
        print(f"{lr:>10.1e} {loss:>18.6f}{note}")
    with open(config.out_dir / "lr_sweep.csv", "w", newline="") as fh:
        fh.write("lr,final_train_loss,diverged\n")
        for lr, loss, diverged in results:
            fh.write(f"{lr!r},{loss!r},{int(diverged)}\n")
    if not viable:
        print("no run finished; no winner", file=sys.stderr)
        return EXIT_DIVERGED
    best_loss, best_lr = min(viable)
    print(f"best lr: {best_lr!r} (final train loss {best_loss:.6f})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "sweep": cmd_sweep,
            "gradcheck": cmd_gradcheck,
            "params-report": cmd_params_report,
            "lr-sweep": cmd_lr_sweep,
        }[args.command]
        return handler(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
