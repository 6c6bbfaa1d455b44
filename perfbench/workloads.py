"""The three benchmark workloads and the checks that judge their outputs.

Each workload has a ``setup`` (input generation, timed as part of
``setup_s``), a ``run_round`` (one timed unit of the job) and a ``check``
run after timing.  Every check compares the program's outputs with
properties or computations made here, never with stored output; each is a
plain function of the outputs, so the smoke test can feed it a corrupted
copy and see it refuse.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import statistics
import sys
from types import SimpleNamespace

import numpy as np

import reference as ref
from tracing import METHODS

MODULES = ("cli", "data", "gradcheck", "grads", "layers", "ops", "optim", "reports", "train")


def load_program():
    """Import poolbench afresh (dropping any earlier import) and return its modules."""
    for name in [n for n in sys.modules if n == "poolbench" or n.startswith("poolbench.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"poolbench.{m}") for m in MODULES})


def _draw_seeds(seed, count):
    """``count`` program seeds derived from the benchmark seed."""
    return [int(v) for v in np.random.default_rng(seed).integers(1, 2**31 - 1, size=count)]


def _quiet_main(pb, argv):
    """Run a poolbench command in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pb.cli.main(argv)
    return code, out.getvalue()


def randomize_params(net, rng):
    """Move a fresh network off its symmetric initial point, in place.

    At initialization OP weights are uniform (so sort order does not
    matter), gates and biases are zero; random values make every formula's
    parameters count.
    """
    for name, arr in net.params().items():
        if name.endswith("ordinal_w"):
            arr[...] = rng.dirichlet(np.full(arr.size, 2.0))
        elif name.endswith(("gate_w", "conv_w")):
            arr[...] = rng.normal(0.25, 0.3, arr.shape)
        elif name.endswith(("bias", "p_raw")):
            arr[...] = arr + rng.normal(0.0, 0.05, arr.shape)


# -- checks -------------------------------------------------------------------


def logits_problems(method, logits, expected, rtol=1e-9):
    """Program logits against the reference forward, relative to the logit scale."""
    if logits.shape != expected.shape or logits.size == 0:
        return [f"{method}: logits shape {logits.shape}, reference {expected.shape}"]
    err = float(np.abs(logits - expected).max())
    scale = float(np.abs(expected).max())
    if not err <= rtol * scale:
        return [f"{method}: logits differ from the reference by {err:.3e} (scale {scale:.3e})"]
    return []


def pooled_problems(method, x, y, where):
    """Order properties of one pooling stage's output ``y`` for its input ``x``.

    MP must equal the window maximum and NN the first window entry exactly;
    AP, GP, OP, LSE and the softmax averages lie between the window minimum
    and maximum, LNP between those of |x|.
    """
    win = ref.windows(x)
    if y.shape != win.shape[:-1] or y.size == 0:
        return [f"{method} {where}: pooled shape {y.shape}, windows {win.shape[:-1]}"]
    if method == "MP":
        bad = int((y != win.max(axis=-1)).sum())
    elif method == "NN":
        bad = int((y != win[..., 0]).sum())
    elif method in ("AP", "GP", "OP", "LSE", "SMP_fixed", "SMP_trainable", "SESMP", "LNP"):
        if method == "LNP":
            win = np.abs(win)
        slack = 1e-12 * max(1.0, float(np.abs(win).max()))
        bad = int(((y < win.min(axis=-1) - slack) | (y > win.max(axis=-1) + slack)).sum())
    else:
        return []
    return [f"{method} {where}: {bad} pooled values break the window property"] if bad else []


def pooled_stage_problems(method, net, images):
    """``pooled_problems`` at both stages of a ToyNet, run through its own layers."""
    a1 = net.relu1.forward(net.conv1.forward(images))
    y1 = net.pool1.forward(a1)
    a2 = net.relu2.forward(net.conv2.forward(y1))
    return pooled_problems(method, a1, y1, "pool1") + pooled_problems(method, a2, net.pool2.forward(a2), "pool2")


def network_fd_problems(method, params, grads, images, labels, rng, per_array=2, step=1e-5):
    """Central differences of the reference loss against the program's gradients.

    Samples ``per_array`` coordinates of each pooling parameter and of both
    conv weights.  A coordinate whose differences at ``step`` and ``step/4``
    disagree sits next to a ReLU, max or sort kink and is redrawn.  Returns
    (problems, checked coordinates); the coordinates depend only on the
    parameters and ``rng``, so a rerun with an equal ``rng`` checks the same.
    """
    work = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    names = [n for n in grads if n.startswith(("pool1.", "pool2.")) or n in ("conv1.weight", "conv2.weight")]

    def central(name, i, h):
        flat = work[name].reshape(-1)
        saved = flat[i]
        flat[i] = saved + h
        hi = ref.cross_entropy(ref.forward(method, work, images), labels)
        flat[i] = saved - h
        lo = ref.cross_entropy(ref.forward(method, work, images), labels)
        flat[i] = saved
        return (hi - lo) / (2.0 * h)

    problems, checked = [], []
    for name in names:
        done = 0
        for _ in range(per_array + 6):
            if done == per_array:
                break
            i = int(rng.integers(work[name].size))
            d1, d2 = central(name, i, step), central(name, i, step / 4)
            # stricter than the comparison below: a kink between step/4 and
            # step of the point moves d1 by less than 1e-3 but more than 1e-5
            if abs(d1 - d2) > 1e-6 * max(abs(d1), abs(d2)) + 1e-8:
                continue
            analytic = float(np.asarray(grads[name]).reshape(-1)[i])
            if not abs(analytic - d1) <= 1e-5 * max(abs(analytic), abs(d1)) + 1e-8:
                problems.append(f"{method} {name}[{i}]: gradient {analytic:.9e}, central difference {d1:.9e}")
            checked.append((name, i))
            done += 1
        if done == 0:
            problems.append(f"{method} {name}: every sampled coordinate sits at a kink")
    return problems, checked


def read_runs(out_dir, methods, seeds):
    """{(method, seed): [epoch rows]} and {(method, seed): params payload} of a sweep."""
    runs, payloads = {}, {}
    for m in methods:
        for s in seeds:
            with open(out_dir / f"run_{m}_{s}.csv", newline="") as fh:
                runs[(m, s)] = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            payloads[(m, s)] = json.loads((out_dir / f"params_{m}_{s}.json").read_text())
    return runs, payloads


def read_summary(path):
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return {row.pop("method"): {k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)}


def loss_problems(runs, epochs):
    """Every completed run has all its epochs and a last train loss below the first."""
    problems = []
    for (m, s), rows in runs.items():
        if len(rows) != epochs:
            problems.append(f"{m} seed {s}: {len(rows)} epochs, expected {epochs}")
        elif not rows[-1]["train_loss"] < rows[0]["train_loss"]:
            problems.append(f"{m} seed {s}: train loss {rows[0]['train_loss']} -> {rows[-1]['train_loss']}")
    return problems


def summary_problems(summary, runs, methods):
    """summary.csv means and sample sds against those of the run files."""
    problems = []
    for m in methods:
        if m not in summary:
            problems.append(f"summary.csv has no row for {m}")
            continue
        finals = [rows[-1] for (mm, _), rows in sorted(runs.items()) if mm == m]
        for key in ("train_acc", "test_acc"):
            values = [row[key] for row in finals]
            mean = statistics.fmean(values)
            sd = statistics.stdev(values) if len(values) > 1 else 0.0
            for label, want in ((f"mean_{key}", mean), (f"sd_{key}", sd)):
                got = summary[m][label]
                if not abs(got - want) <= 1e-12 * max(1.0, abs(want)):
                    problems.append(f"summary.csv {m} {label} = {got!r}, run files give {want!r}")
    return problems


def simplex_problems(payloads):
    """Trained OP ordinal weights are nonnegative and sum to one."""
    problems = []
    for (m, s), payload in payloads.items():
        if m != "OP":
            continue
        for block in payload["blocks"]:
            w = np.asarray(block["params"]["ordinal_w"])
            if w.size == 0 or (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
                problems.append(f"OP seed {s} block {block['block']}: weights {w.tolist()} off the simplex")
    return problems


def report_hash(out_dir):
    """sha256 over the names and bytes of every report file of a sweep."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def gradcheck_problems(code, text, methods, tolerance):
    """Parse the gradcheck table; returns (problems, methods that failed)."""
    rows = {}
    for line in text.splitlines()[1:]:
        parts = line.split()
        if len(parts) == 4:
            rows[parts[0]] = parts
    problems, failed = [], []
    if code not in (0, 2):
        problems.append(f"gradcheck exited {code}")
    for m in methods:
        if m not in rows:
            problems.append(f"gradcheck printed no row for {m}")
            continue
        _, worst, tol, verdict = rows[m]
        if float(tol) != tolerance:
            problems.append(f"{m}: tolerance {tol}, asked for {tolerance}")
        if verdict == "FAIL":
            failed.append(m)
        elif not (verdict == "PASS" and float(worst) < tolerance):
            problems.append(f"{m}: verdict {verdict} with worst error {worst}")
    if (code == 2) != bool(failed):
        problems.append(f"gradcheck exited {code} with failing methods {failed}")
    return problems, failed


def fd_count_problems(per_method, methods, trials):
    """The traced gradcheck made at least ``trials`` FD comparisons per method."""
    return [
        f"{m}: {per_method.get(m, 0)} finite-difference comparisons for {trials} trials"
        for m in methods
        if per_method.get(m, 0) < trials
    ]


# -- workloads ----------------------------------------------------------------


class TrainSweep:
    """The ``sweep`` command over all methods x several seeds."""

    name = "train-sweep"
    item = "samples"
    metric = "sweep_samples_per_s"
    SIZES = {
        "full": dict(samples=1000, epochs=2, seeds=2, fd_batch=4),
        "tiny": dict(samples=200, epochs=2, seeds=2, fd_batch=4),
    }

    def __init__(self, size, out_dir):
        self.size = self.SIZES[size]
        self.out = out_dir
        self.rounds = []

    def setup(self, pb, seed):
        self.pb = pb
        *self.seeds, self.data_seed, self.fd_seed = _draw_seeds(seed, self.size["seeds"] + 2)
        self.config = self._write_config("sweep.cfg", self.seeds, self.size["samples"], self.size["epochs"])
        fd = pb.data.make_synthetic(classes=4, samples=self.size["fd_batch"], seed=self.fd_seed, noise=0.1)
        self.fd_images, self.fd_labels = fd.images, fd.labels

    def _write_config(self, name, seeds, samples, epochs):
        path = self.out / name
        path.write_text(
            f"methods = {' '.join(METHODS)}\n"
            f"seeds = {' '.join(map(str, seeds))}\n"
            f"epochs = {epochs}\nsamples = {samples}\n"
            "noise = 0.1\nclasses = 4\nbatch_size = 10\nlr = 0.0001\n"
            f"data_seed = {self.data_seed}\nlse_r = {ref.LSE_SHARPNESS}\n"
        )
        return path

    def warmup(self):
        """One epoch of every method on 40 samples, so the first timed round starts warm."""
        config = self._write_config("warmup.cfg", self.seeds[:1], 40, 1)
        _quiet_main(self.pb, ["sweep", "--config", str(config), "--out", str(self.out / "warmup")])

    def train_split(self):
        per_class = self.size["samples"] // 4
        return 4 * int(round(0.8 * per_class))

    def run_round(self, k):
        out = self.out / f"round{k}"
        code, _ = _quiet_main(self.pb, ["sweep", "--config", str(self.config), "--out", str(out)])
        self.rounds.append((code, out))
        runs = len(METHODS) * len(self.seeds)
        return runs * self.size["epochs"] * self.train_split(), runs

    def on_trace(self, tracer):
        pass

    def check(self, tracer=None):
        problems, failed = [], 0
        hashes = set()
        for code, out in self.rounds:
            runs, payloads = read_runs(out, METHODS, self.seeds)
            diverged = {key for key, p in payloads.items() if p["diverged"]}
            failed += len(diverged)
            if code != (3 if diverged else 0):
                problems.append(f"sweep exited {code} with {len(diverged)} diverged runs")
            done = {key: rows for key, rows in runs.items() if key not in diverged}
            problems += loss_problems(done, self.size["epochs"])
            problems += summary_problems(read_summary(out / "summary.csv"), done, METHODS)
            problems += simplex_problems({key: p for key, p in payloads.items() if key not in diverged})
            hashes.add(report_hash(out))
        problems += self._rerun_problems()
        problems += self._net_problems()
        if len(hashes) != 1:
            problems.append(f"report files differ between repetitions: {sorted(hashes)}")
        self.report_hashes = sorted(hashes)
        return problems, failed

    def _rerun_problems(self):
        """A second sweep of one method reproduces its report files byte for byte."""
        method = METHODS[self.seeds[0] % len(METHODS)]
        out = self.out / "rerun"
        _quiet_main(self.pb, ["sweep", "--config", str(self.config), "--methods", method, "--out", str(out)])
        first = self.rounds[0][1]
        return [
            f"{name}: bytes differ on a repeated run"
            for s in self.seeds
            for name in (f"run_{method}_{s}.csv", f"params_{method}_{s}.json")
            if (out / name).read_bytes() != (first / name).read_bytes()
        ]

    def _net_problems(self):
        """Per method: loss and pooled values on a small batch, then the FD check."""
        pb = self.pb
        rng = np.random.default_rng(self.fd_seed)
        problems = []
        for method in METHODS:
            net = pb.train.build_net(method, pb.layers.ToyNetConfig(lse_sharpness=ref.LSE_SHARPNESS), rng)
            randomize_params(net, rng)
            loss, _, grads = pb.train.forward_backward(net, self.fd_images, self.fd_labels)
            grads = {k: v.copy() for k, v in grads.items()}
            params = net.params()
            want = ref.cross_entropy(ref.forward(method, params, self.fd_images), self.fd_labels)
            if not abs(loss - want) <= 1e-10 * abs(want):
                problems.append(f"{method}: forward_backward loss {loss!r}, reference {want!r}")
            problems += pooled_stage_problems(method, net, self.fd_images)
            problems += network_fd_problems(method, params, grads, self.fd_images, self.fd_labels, rng)[0]
        return problems


class ForwardBatch:
    """``ToyNet.forward`` over freshly generated samples at a large batch."""

    name = "forward-batch"
    item = "samples"
    metric = "forward_samples_per_s"
    SIZES = {
        "full": dict(samples=2000, batch=250, probe=16),
        "tiny": dict(samples=100, batch=50, probe=4),
    }

    def __init__(self, size, out_dir):
        self.size = self.SIZES[size]
        self.out = out_dir
        self.kept = {}
        self.nonfinite = 0

    def setup(self, pb, seed):
        self.pb = pb
        data_seed, net_seed, pick = _draw_seeds(seed, 3)
        self.images = pb.data.make_synthetic(classes=4, samples=self.size["samples"], seed=data_seed, noise=0.1).images
        rng = np.random.default_rng(net_seed)
        config = pb.layers.ToyNetConfig(lse_sharpness=ref.LSE_SHARPNESS)
        self.nets = {}
        for m in METHODS:
            self.nets[m] = pb.train.build_net(m, config, rng)
            randomize_params(self.nets[m], rng)
        batch = self.size["batch"]
        self.starts = range(0, self.size["samples"], batch)
        self.checked_start = self.starts[pick % len(self.starts)]

    def warmup(self):
        for net in self.nets.values():
            net.forward(self.images[: self.size["batch"]])

    def run_round(self, k):
        batch = self.size["batch"]
        for m, net in self.nets.items():
            for start in self.starts:
                logits = net.forward(self.images[start : start + batch])
                self.nonfinite += not np.isfinite(logits).all()
                if start == self.checked_start:
                    self.kept[m] = logits
        return self.size["samples"] * len(self.nets), len(self.nets) * len(self.starts)

    def on_trace(self, tracer):
        for net in self.nets.values():
            tracer.tag_net(net)

    def check(self, tracer=None):
        start, batch = self.checked_start, self.size["batch"]
        images = self.images[start : start + batch]
        probe = images[: self.size["probe"]]
        problems = []
        for m, net in self.nets.items():
            problems += logits_problems(m, self.kept[m], ref.forward(m, net.params(), images))
            problems += pooled_stage_problems(m, net, probe)
        return problems, self.nonfinite


class GradCheck:
    """The ``gradcheck`` command over all methods."""

    name = "gradcheck"
    item = "points"
    metric = "gradcheck_points_per_s"
    TOLERANCE = 1e-5
    SIZES = {"full": dict(trials=1000), "tiny": dict(trials=20)}

    def __init__(self, size, out_dir):
        self.trials = self.SIZES[size]["trials"]
        self.out = out_dir
        self.rounds = []

    def setup(self, pb, seed):
        self.pb = pb
        (self.check_seed,) = _draw_seeds(seed, 1)

    def _argv(self, trials):
        return [
            "gradcheck", "--methods", *METHODS, "--trials", str(trials),
            "--tolerance", repr(self.TOLERANCE), "--seed", str(self.check_seed), "--lse-r", repr(ref.LSE_SHARPNESS),
        ]

    def warmup(self):
        _quiet_main(self.pb, self._argv(5))

    def run_round(self, k):
        self.rounds.append(_quiet_main(self.pb, self._argv(self.trials)))
        return self.checked_points, len(METHODS)

    @property
    def checked_points(self):
        return len(METHODS) * self.trials

    def on_trace(self, tracer):
        pass

    def check(self, tracer=None):
        problems, failed = [], 0
        for code, text in self.rounds:
            found, failing = gradcheck_problems(code, text, METHODS, self.TOLERANCE)
            problems += found
            failed += len(failing)
        if tracer is not None:
            problems += fd_count_problems(tracer.fd_checks_per_method(), METHODS, self.trials)
        return problems, failed


WORKLOADS = {w.name: w for w in (TrainSweep, ForwardBatch, GradCheck)}
