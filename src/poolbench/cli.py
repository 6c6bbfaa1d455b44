"""Command-line front end: seeded method sweeps, gradient verification,
parameter-distribution reports, and learning-rate sweeps.

Every setting is a flag of its command.  ``--config FILE`` holds them as
``key = value`` lines (``batch_size = 10`` is ``--batch-size 10``; lists split
on spaces or commas), parsed ahead of the command line, so its flags win.  A
key no command has is a usage error; other commands' keys are skipped.

Exit codes: 0 success, 1 usage error, 2 gradient-check failure, 3 sweep
finished but contains diverged or crashed run(s).  A run is an
:class:`OptimConfig`: ``sweep`` makes one per seed, ``lr-sweep`` one per
learning rate.  Both train a method's runs in lock-step, as one task, and
record a crash against its own run; ``sweep --workers N`` shares out its
tasks among N worker processes (default 1).
"""

from __future__ import annotations

import argparse
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

from .data import check_data_args
from .gradcheck import run_gradcheck
from .grads import FDOracleConfig
from .layers import ToyNetConfig
from .ops import HEADLINE_METHODS, METHODS, ConfigurationError, pooling_row
from .optim import OptimConfig
from . import reports as rep
from .train import RunReport, shared_dataset, train_runs

__all__ = ["ExperimentConfig", "UsageError", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GRADCHECK = 2
EXIT_DIVERGED = 3


class UsageError(Exception):
    """Bad invocation: unknown method, malformed flag, unreadable config."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a minus then a digit is a value, also in exponent form: argparse's own
        # pattern reads `--lrs -1e-4` as an unknown option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _check_methods(methods):
    for i, method in enumerate(methods):
        try:
            pooling_row(method)
        except ConfigurationError as err:
            raise UsageError(str(err)) from None
        if method in methods[:i]:  # it would count twice in a sweep's summary, print twice in gradcheck's
            raise UsageError(f"repeated method {method}")


def _check_seed(name, seed):
    if seed < 0:  # numpy's generators take non-negative seeds only
        raise UsageError(f"{name} must be >= 0, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A resolved sweep: which methods, the runs of each, and the data settings."""

    methods: tuple[str, ...]
    runs: tuple[OptimConfig, ...]
    out_dir: Path
    samples: int
    noise: float
    classes: int
    data_seed: int
    lse_sharpness: float

    def __post_init__(self):
        _check_methods(self.methods)
        if not self.runs:
            raise UsageError("run list must not be empty")
        for run in self.runs:
            _check_seed("seed", run.seed)
        # a repeated run would count twice in its method's summary
        for i, run in enumerate(self.runs):
            if run in self.runs[:i]:
                raise UsageError(f"repeated run of seed {run.seed} at lr {run.lr!r}")
        _check_seed("data_seed", self.data_seed)
        check_data_args(self.classes, self.samples, self.noise)
        # the 80/20 split gives a class a test sample only from 3 samples on
        if self.samples <= 2 * self.classes:
            raise UsageError(
                f"{self.samples} samples over {self.classes} classes leave no test sample; "
                f"need at least {2 * self.classes + 1}"
            )
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
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
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


def build_parser() -> _Parser:
    parser = _Parser(prog="poolbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> subparser, for --config
    sweep = sub.add_parser("sweep", help="train every (method, seed) pair and summarize")
    grad = sub.add_parser("gradcheck", help="verify analytic gradients against central differences")
    par = sub.add_parser("params-report", help="percentile tables from parameter snapshots")
    lrs = sub.add_parser("lr-sweep", help="short runs over a learning-rate list")
    for p in (sweep, grad, par, lrs):
        p.add_argument("--config", metavar="FILE", help="key = value lines of this command's flags; flags win")
    for p in (sweep, par, lrs):
        p.add_argument("--out", type=Path, default="results", help="output directory")
    for p in (sweep, grad, lrs):
        p.add_argument("--lse-r", type=float, default=1.0, help="fixed LSE sharpness")
    for p, epochs in ((sweep, 10), (lrs, 1)):
        p.add_argument("--epochs", type=int, default=epochs)
        p.add_argument("--batch-size", type=int, default=10)
        p.add_argument("--samples", type=int, default=1000, help="dataset size")
        p.add_argument("--noise", type=float, default=0.1, help="pixel noise standard deviation")
        p.add_argument("--classes", type=int, default=4)
        p.add_argument("--data-seed", type=int, default=777, help="seed of the dataset")

    sweep.add_argument("--methods", nargs="+", default=HEADLINE_METHODS, help=f"subset of: {' '.join(METHODS)}")
    sweep.add_argument("--seeds", nargs="+", type=int, default=(1, 2, 3, 4))
    sweep.add_argument("--lr", type=float, default=1e-4)
    sweep.add_argument("--workers", type=int, default=1, help="worker processes, each training whole methods")
    grad.add_argument("--methods", nargs="+", default=METHODS)
    grad.add_argument("--trials", type=int, default=1000)
    grad.add_argument("--tolerance", type=float, default=1e-5)
    grad.add_argument("--seed", type=int, default=0, help="seed of the first method; the next gets seed + 1")
    par.add_argument("snapshots", nargs="*", help="params_*.json files (default: scan --out)")
    lrs.add_argument("--method", default="MP")
    lrs.add_argument("--lrs", nargs="+", type=float, required=True)
    lrs.add_argument("--seed", type=int, default=1)
    return parser


def _with_config_flags(parser, argv):
    """argv with its --config file's lines as the command's own flags, ahead of its own."""
    if not argv or argv[0] not in parser.commands:
        return argv  # the real parse reports the missing or unknown command
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv[1:])[0].config
    if path is None:
        return argv

    def flags(p):  # key -> its flag's action, for every flag but --help and --config
        return {a.dest: a for a in p._actions if a.option_strings and a.dest not in ("help", "config")}

    own = flags(parser.commands[argv[0]])
    known = set().union(*(flags(p) for p in parser.commands.values()))
    spliced = []
    for key, value in _read_config_file(path).items():
        if key not in known:
            raise UsageError(f"unknown key {key!r} in config file {path}: no command has that flag")
        if key in own:
            action = own[key]
            tokens = value.replace(",", " ").split() if action.nargs == "+" else [value]
            for token in tokens:
                try:
                    (action.type or str)(token)
                except ValueError:
                    raise UsageError(
                        f"invalid {action.type.__name__} value {token!r} for key {key!r} in config file {path}"
                    ) from None
            flag = action.option_strings[0]
            if action.nargs == "+":
                spliced += [flag, *tokens]
            else:
                spliced.append(f"{flag}={value}")  # keeps a negative value a value
    return [argv[0], *spliced, *argv[1:]]


def _experiment(args, methods, seeds, lrs) -> ExperimentConfig:
    """The command's settings as a validated sweep; out-of-range values are usage errors."""
    try:
        return ExperimentConfig(
            methods=tuple(methods),
            runs=tuple(  # a run per seed and learning rate, in seed order
                OptimConfig(lr=lr, epochs=args.epochs, batch_size=args.batch_size, seed=seed)
                for seed in sorted(seeds)
                for lr in lrs
            ),
            out_dir=args.out,
            samples=args.samples,
            noise=args.noise,
            classes=args.classes,
            data_seed=args.data_seed,
            lse_sharpness=args.lse_r,
        )
    except ValueError as err:
        raise UsageError(str(err)) from err


def _out_dir(path: Path) -> Path:
    """``path``, made a directory if it is not one; failing that, a usage error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise UsageError(f"cannot create output directory {path}: {err}") from err
    return path


def _run_sweep_tasks(config: ExperimentConfig, workers: int = 1) -> list[RunReport]:
    """Every (method, run) report, in that order: one task per method, which
    trains its runs in lock-step, shared out among up to ``workers`` processes."""
    workers = min(workers, len(config.methods))
    args = [(m, config.runs, config.data_kwargs(), config.net_config()) for m in config.methods]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one, a) for a in args]
            return [r for future, m in zip(futures, config.methods) for r in _result(future, m, config.runs)]
    return [r for a in args for r in _run_one(a)]


def _result(future, method, runs) -> list[RunReport]:
    """A worker's runs; if the pool broke first (a worker killed by a signal), failed rows."""
    try:
        return future.result()
    except BrokenProcessPool as err:
        return [RunReport(method, r.seed, diverged=True, note=f"crashed: {type(err).__name__}: {err}") for r in runs]


def _run_one(packed) -> list[RunReport]:
    """One method's runs.  A crash reruns them one at a time, so that each crash
    becomes a failed row of its own run, not the sweep's end."""
    method, runs, data_kwargs, net_config = packed
    try:
        return train_runs(method, shared_dataset(data_kwargs), runs, net_config)
    except Exception as err:
        if len(runs) == 1:
            return [RunReport(method, runs[0].seed, diverged=True, note=f"crashed: {type(err).__name__}: {err}")]
        return [report for run in runs for report in _run_one((method, (run,), data_kwargs, net_config))]


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise UsageError(f"workers must be >= 1, got {args.workers}")
    config = _experiment(args, args.methods, args.seeds, [args.lr])
    _out_dir(config.out_dir)
    results = _run_sweep_tasks(config, args.workers)
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
    _check_methods(args.methods)
    _check_seed("seed", args.seed)
    if args.trials < 1:
        raise UsageError(f"trials must be >= 1, got {args.trials}")
    try:
        FDOracleConfig(tolerance=args.tolerance)
        ToyNetConfig(lse_sharpness=args.lse_r)
    except ValueError as err:
        raise UsageError(str(err)) from err
    results = run_gradcheck(
        args.methods, trials=args.trials, tolerance=args.tolerance, seed=args.seed, lse_sharpness=args.lse_r
    )
    print(f"{'method':<14} {'worst_rel_error':>16} {'tolerance':>12} verdict")
    failed = False
    for r in results:
        verdict = "PASS" if r.passed else "FAIL"
        failed = failed or not r.passed
        print(f"{r.method:<14} {r.worst_error:>16.3e} {r.tolerance:>12.1e} {verdict}")
    return EXIT_GRADCHECK if failed else EXIT_OK


def cmd_params_report(args) -> int:
    paths = [Path(p) for p in args.snapshots] or sorted(args.out.glob("params_*.json"))
    if not paths:
        raise UsageError(f"no snapshot files given and none found under {args.out}")
    payloads = []
    for path in paths:
        try:
            payloads.append(rep.read_params_json(path))
        except (OSError, ValueError, KeyError, RecursionError) as err:  # RecursionError: JSON nested too deep
            raise UsageError(f"cannot read snapshot {path}: {err}") from err
    rows = rep.params_report_rows(payloads)
    rep.write_params_report_csv(rows, _out_dir(args.out) / "params_report.csv")
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
    config = _experiment(args, [args.method], [args.seed], args.lrs)
    _out_dir(config.out_dir)
    reports = _run_sweep_tasks(config)
    results = [(run.lr, report.final_train_loss, report.diverged) for run, report in zip(config.runs, reports)]
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
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_with_config_flags(parser, argv))
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
