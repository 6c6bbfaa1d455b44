"""Smoke test of the benchmark itself, at tiny sizes (about 30 seconds).

    python3 perfbench/smoke.py

It checks that BENCHMARK.json lists exactly the metrics the benchmark
prints, runs every workload to its end traced and untraced, checks that
the benchmark refuses to run without the program, and feeds every
correctness check a deliberately corrupted output, which it must reject,
so that no check can pass vacuously.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from calibrate import MIN_SAMPLES, Calibrator  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracing import METHODS, PER_LAYER  # noqa: E402

failures = []


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def check_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END),
           "BENCHMARK.json end_to_end matches the metrics run.py prints")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer matches the traced metrics")
    expect({w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS), "BENCHMARK.json names only known workloads")


def run_cli(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def check_end_to_end_runs():
    for name in W.WORKLOADS:
        for trace, catalogue in ((0, END_TO_END), (1, PER_LAYER)):
            code, lines, err = run_cli(ROOT, "--workload", name, "--seed", "11", "--seconds", "1",
                                       "--trace", str(trace), "--size", "tiny")
            result = json.loads(lines[-1]) if lines else {}
            expect(code == 0 and result.get("correct") is True, f"{name} trace={trace} runs and passes its checks")
            if code != 0:
                print(err)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}
                   and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} trace={trace} result has the four keys and counts")
            got = {k: m["unit"] for k, m in result.get("metrics", {}).items()}
            expect(got == {n: u for n, u, _ in catalogue}, f"{name} trace={trace} prints every metric with its unit")


def check_refuses_without_program():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    code, lines, _ = run_cli(bare, "--workload", "gradcheck", "--seed", "1", "--seconds", "1", "--trace", "0")
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "without src/ the benchmark exits non-zero and prints no result")


def corrupt_forward_batch(pb):
    work = W.ForwardBatch("tiny", OUT)
    work.setup(pb, 5)
    images = work.images[:4]
    for m, net in work.nets.items():
        logits = net.forward(images)
        want = ref.forward(m, net.params(), images)
        bad = logits.copy()
        bad[1, 2] += 1e-6 * np.abs(want).max()
        expect(not W.logits_problems(m, logits, want) and W.logits_problems(m, bad, want),
               f"{m}: logits check passes the program and rejects one logit off by 1e-6")
        x = net.relu1.forward(net.conv1.forward(images))
        y = net.pool1.forward(x)
        if m in ("CONV", "SEMP"):
            continue
        win = ref.windows(x)[0, 3, 2, 1]
        bad = y.copy()
        if m in ("MP", "NN"):
            bad[0, 3, 2, 1] += 1e-9
        else:
            bad[0, 3, 2, 1] = np.abs(win).max() + 1e-3
        expect(not W.pooled_problems(m, x, y, "pool1") and W.pooled_problems(m, x, bad, "pool1"),
               f"{m}: pooled-value check passes the program and rejects one perturbed window")


def corrupt_gradients(pb):
    for m in ("OP", "GP", "LNP", "SMP_trainable", "SESMP", "SEMP"):
        rng = np.random.default_rng(3)
        net = pb.train.build_net(m, pb.layers.ToyNetConfig(), rng)
        W.randomize_params(net, rng)
        data = pb.data.make_synthetic(samples=4, seed=8)
        _, _, grads = pb.train.forward_backward(net, data.images, data.labels)
        grads = {k: v.copy() for k, v in grads.items()}
        params = {k: v.copy() for k, v in net.params().items()}
        clean, coords = W.network_fd_problems(m, params, grads, data.images, data.labels, np.random.default_rng(4))
        name, i = next(c for c in coords if c[0].startswith("pool"))
        bad = copy.deepcopy(grads)
        bad[name].reshape(-1)[i] += 1e-4 * max(1.0, abs(bad[name].reshape(-1)[i]))
        found, _ = W.network_fd_problems(m, params, bad, data.images, data.labels, np.random.default_rng(4))
        expect(not clean and found, f"{m}: FD check passes forward_backward and rejects {name}[{i}] changed")


def corrupt_sweep(pb):
    work = W.TrainSweep("tiny", OUT / "sweep")
    shutil.rmtree(work.out, ignore_errors=True)
    work.out.mkdir(parents=True)
    work.setup(pb, 9)
    work.run_round(0)
    problems, failed = work.check()
    expect(not problems and failed == 0, f"tiny sweep passes every check: {problems[:3]}")
    out = work.out / "round0"
    runs, payloads = W.read_runs(out, METHODS, work.seeds)
    summary = W.read_summary(out / "summary.csv")

    bad_runs = copy.deepcopy(runs)
    key = next(iter(bad_runs))
    bad_runs[key][-1]["train_loss"] = bad_runs[key][0]["train_loss"]
    expect(W.loss_problems(bad_runs, 2), "loss check rejects a run whose last loss is not below its first")

    bad_summary = copy.deepcopy(summary)
    bad_summary["AP"]["mean_test_acc"] += 1e-9
    expect(not W.summary_problems(summary, runs, METHODS) and W.summary_problems(bad_summary, runs, METHODS),
           "summary check rejects one mean off by 1e-9")

    bad_payloads = copy.deepcopy(payloads)
    op_key = next(k for k in bad_payloads if k[0] == "OP")
    bad_payloads[op_key]["blocks"][1]["params"]["ordinal_w"] = [0.5, 0.6, -0.1, 0.0]
    expect(not W.simplex_problems(payloads) and W.simplex_problems(bad_payloads),
           "simplex check rejects OP weights with a negative entry")

    copy_dir = work.out / "copy"
    shutil.copytree(out, copy_dir)
    path = copy_dir / "summary.csv"
    path.write_bytes(path.read_bytes() + b" ")
    expect(W.report_hash(copy_dir) != W.report_hash(out), "report hash changes when one byte changes")


def corrupt_gradcheck(pb):
    work = W.GradCheck("tiny", OUT)
    work.setup(pb, 2)
    work.run_round(0)
    code, text = work.rounds[0]
    clean, failed = W.gradcheck_problems(code, text, METHODS, work.TOLERANCE)
    expect(not clean and not failed, "gradcheck output parses with every method PASS")
    lines = text.splitlines()
    lse = next(i for i, line in enumerate(lines) if line.startswith("LSE "))
    failing = lines.copy()
    failing[lse] = "LSE  2.0e-03  1.0e-05 FAIL"
    _, failed = W.gradcheck_problems(2, "\n".join(failing), METHODS, work.TOLERANCE)
    expect(failed == ["LSE"], "a FAIL row counts as a failed method")
    missing = "\n".join(line for line in lines if not line.startswith("OP "))
    expect(W.gradcheck_problems(0, missing, METHODS, work.TOLERANCE)[0], "a missing method is rejected")
    wrong = lines.copy()
    wrong[lse] = "LSE  2.0e-03  1.0e-05 PASS"
    expect(W.gradcheck_problems(0, "\n".join(wrong), METHODS, work.TOLERANCE)[0],
           "a PASS row above the tolerance is rejected")
    counts = {m: 20 for m in METHODS}
    expect(not W.fd_count_problems(counts, METHODS, 20)
           and W.fd_count_problems({**counts, "GP": 19}, METHODS, 20),
           "fewer FD comparisons than trials is rejected")


def check_calibrator():
    cal = Calibrator()
    before = signal.getsignal(signal.SIGPROF)
    cal.start()
    t0, x = time.thread_time(), 0
    while time.thread_time() - t0 < 0.6:
        x += 1
    samples, spent = cal.stop()
    expect(len(samples) >= 4 and min(samples) > 0 and spent >= sum(samples),
           f"the calibration kernel runs from the interval timer during a busy loop ({len(samples)} samples)")
    expect(signal.getsignal(signal.SIGPROF) is before and signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0),
           "stopping the calibrator disarms the timer and restores the handler")
    cal.start()
    samples, spent = cal.stop()
    expect(len(samples) == MIN_SAMPLES and spent == 0.0,
           "a round too short for the timer gets its samples after it, outside its CPU time")


def main():
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    check_spec()
    check_calibrator()
    pb = W.load_program()
    corrupt_forward_batch(pb)
    corrupt_gradients(pb)
    corrupt_sweep(pb)
    corrupt_gradcheck(pb)
    check_refuses_without_program()
    check_end_to_end_runs()
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
