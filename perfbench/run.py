"""poolbench benchmark: one workload per run, or all of them in turn.

    python3 perfbench/run.py --workload train-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, each in its own process

Run from the root of a checkout; the program is imported from ``src/``.
The run is single-threaded: BLAS gets one thread and the sweep one worker.
It times whole rounds of the workload until ``--seconds`` have passed,
checks the program's outputs, and prints one JSON object as the last line
of standard output: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Times are CPU
seconds of the process and its children, which on a shared host leave out
the time the host gives to other tenants (steal) and to other processes.
Throughput is also divided by the machine's speed at the time, measured
by a fixed kernel run inside the rounds (see ``calibrate.py``).  Exit
status 0 means every check passed, 1 that a check failed, 2 that the
program is missing.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("POOLBENCH_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import Calibrator  # noqa: E402
from tracing import Tracer, per_layer_metrics  # noqa: E402
from workloads import WORKLOADS, load_program  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 15

#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("throughput_per_kref", "1/kref", "higher"),
)


def cpu_seconds():
    """CPU seconds used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_rounds(workload, seconds, first=0, count=None, calibrator=None):
    """Run whole rounds until ``seconds`` of wall time have passed (or exactly ``count``).

    Returns [(CPU seconds, items, operations, wall seconds, kernel samples)]
    per round; with a ``calibrator`` the kernel's CPU time is left out of
    the round's.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        if calibrator:
            calibrator.start()
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            items, ops = workload.run_round(first + len(rounds))
        finally:
            cpu, wall = cpu_seconds() - c0, time.perf_counter() - t0
            samples, spent = calibrator.stop() if calibrator else ([], 0.0)
        rounds.append((cpu - spent, items, ops, wall, samples))
        if len(rounds) == count or (count is None and time.perf_counter() - start >= seconds):
            return rounds


def throughput_per_kref(cpu, items, samples):
    """Items per 1000 kernel runs' worth of CPU time, at the round's machine speed."""
    return 1000.0 * items * statistics.fmean(samples) / cpu


def bench(name, seed, seconds, trace, size):
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workload = WORKLOADS[name](size, out)
    setups = []
    for _ in range(SETUP_REPEATS):
        c0 = cpu_seconds()
        pb = load_program()
        workload.setup(pb, seed)
        setups.append(cpu_seconds() - c0)
    workload.warmup()

    # a traced run spends half its time untraced, to measure the overhead
    rounds = timed_rounds(workload, seconds / 2 if trace else seconds, calibrator=None if trace else Calibrator())
    if trace:
        tracer = Tracer()
        tracer.install(pb)
        workload.on_trace(tracer)
        try:
            traced = timed_rounds(workload, seconds, first=len(rounds), count=len(rounds))
        finally:
            tracer.uninstall()
        tracer.write(out / "spans.tsv")
    else:
        tracer, traced = None, []

    problems, failed = workload.check(tracer)
    attempted = sum(r[2] for r in rounds + traced)

    if trace:
        untraced_s = statistics.median(r[0] for r in rounds)
        traced_s = statistics.median(r[0] for r in traced)
        points = getattr(workload, "checked_points", 0)
        metrics = per_layer_metrics(tracer, len(traced), points, 100.0 * (traced_s - untraced_s) / untraced_s)
    else:
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "throughput_per_kref": statistics.median(throughput_per_kref(r[0], r[1], r[4]) for r in rounds),
        }
        metrics = {n: {"value": values[n], "unit": unit} for n, unit, _ in END_TO_END}
    for line in problems:
        print(f"CHECK FAILED [{name}]: {line}", file=sys.stderr)
    hashes = getattr(workload, "report_hashes", None)
    if hashes:
        print(f"[{name}] report files sha256: {' '.join(hashes)}", file=sys.stderr)
    print(
        f"[{name}] rounds={len(rounds)} attempted={attempted} failed={failed} "
        f"{workload.metric} = throughput_per_kref; {workload.item} per CPU second "
        f"{statistics.median(r[1] / r[0] for r in rounds):.6g}, per wall second "
        f"{statistics.median(r[1] / r[3] for r in rounds):.6g}, kernel ms "
        f"{[round(1e3 * statistics.fmean(r[4]), 4) for r in rounds if r[4]]}",
        file=sys.stderr,
    )
    for key, m in metrics.items():
        print(f"[{name}] {key:<36} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args):
    """Each workload in a child process of its own, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all", "train-sweep", "forward-batch", "gradcheck"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "poolbench" / "__init__.py").is_file():
        print(f"error: no poolbench sources under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.workload == "all":
        return run_all(args)
    result = bench(args.workload, args.seed, args.seconds, args.trace, args.size)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
