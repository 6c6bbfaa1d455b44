"""Steadiness check: run each workload on many seeds and print the spread.

    python3 perfbench/steady.py                      # 10 seeds x every workload
    python3 perfbench/steady.py --runs 5 --workloads train-sweep
    python3 perfbench/steady.py --compare perfbench/out/steady-a.json

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) /
median and the metric's bound from BENCHMARK.json; a spread should stay
below a third of its bound.  It also prints each workload's attempted and
failed operation counts.  The results go to ``--save`` as JSON; with
``--compare`` it prints how far each median moved against an earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_set(workloads, seeds, seconds):
    results = {w: [] for w in workloads}
    for w in workloads:
        for seed in seeds:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                sys.exit(f"error: {w} seed {seed} exited {proc.returncode} without a result:\n{proc.stderr}")
            result = json.loads(lines[-1])
            result["seed"] = seed
            results[w].append(result)
            print(f"  {w} seed {seed}: exit {proc.returncode} correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
            for line in proc.stderr.splitlines():
                if line.startswith("CHECK FAILED"):
                    print(f"    {line}", flush=True)
    return results


def summarize(results, bounds, previous=None):
    for w, runs in results.items():
        shares = {(r["failed"], r["attempted"]) for r in runs}
        print(f"\n{w}: {len(runs)} runs, correct in {sum(r['correct'] for r in runs)}, "
              f"attempted {sorted({r['attempted'] for r in runs})}, failed {sorted({r['failed'] for r in runs})}, "
              f"failed share {sorted({f / a for f, a in shares})}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'bound/3':>8}"
              + ("  vs-previous" if previous else ""))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            line = f"  {name:<18} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}"
            line += f" {bound:>6.3g} {bound / 3:>8.4f}" if bound else f" {'-':>6} {'-':>8}"
            if bound and name != "setup_s":
                line += "  steady" if spread < bound / 3 else ("  within bound" if spread <= bound else "  WIDE")
            if previous and w in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[w])
                line += f"  {med / old - 1.0:+.4f}"
            print(line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", default=str(HERE / "out" / "steady.json"))
    parser.add_argument("--compare", help="an earlier --save file")
    args = parser.parse_args(argv)

    previous = json.loads(Path(args.compare).read_text()) if args.compare else None
    seeds = range(args.first_seed, args.first_seed + args.runs)
    results = run_set(args.workloads, seeds, args.seconds)
    Path(args.save).parent.mkdir(parents=True, exist_ok=True)
    Path(args.save).write_text(json.dumps(results, indent=1))
    summarize(results, {m["name"]: m["bound"] for m in spec["end_to_end"]}, previous)
    return 0


if __name__ == "__main__":
    sys.exit(main())
