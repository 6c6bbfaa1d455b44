"""Command-line interface: subcommands, exit codes, config handling."""

import csv
import math
import os
import signal
import warnings
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

import gradcheck_reference
from poolbench import cli, gradcheck, grads, layers, ops
from helpers import read_run_csv, read_summary_csv
from poolbench import reports as rep
from poolbench.train import BlockSnapshot, EpochMetrics, RunReport


def run_cli(*argv):
    return cli.main(list(argv))


def fake_training(monkeypatch, run):
    """Train every run with ``run(method, seed, data_kwargs, optim, net_config)``:
    the dataset a run gets is the settings that describe it."""
    monkeypatch.setattr(cli, "shared_dataset", lambda data_kwargs: data_kwargs)
    monkeypatch.setattr(
        cli, "train_runs", lambda method, data, runs, net: [run(method, r.seed, data, r, net) for r in runs]
    )


@pytest.fixture()
def started(monkeypatch):
    """The methods of every training task the test starts; each fails."""
    calls = []

    def record(method, *args):
        calls.append(method)
        raise AssertionError("a run started before the settings were validated")

    monkeypatch.setattr(cli, "train_runs", record)
    return calls


@pytest.fixture()
def tiny_config(tmp_path):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "# tiny benchmark\n"
        "samples = 200\n"
        "epochs = 1\n"
        "batch_size = 20\n"
        "seeds = 1\n"
    )
    return cfg


class TestSweep:
    def test_single_method_single_seed(self, tmp_path, tiny_config):
        out = tmp_path / "results"
        code = run_cli(
            "sweep", "--config", str(tiny_config), "--methods", "MP", "--out", str(out)
        )
        assert code == 0
        assert (out / "run_MP_1.csv").exists()
        assert (out / "params_MP_1.json").exists()
        assert len(list(out.glob("run_*.csv"))) == 1
        rows = read_summary_csv(out / "summary.csv")
        assert [r["method"] for r in rows] == ["MP"]

    def test_run_count_and_summary_rows(self, tmp_path, tiny_config):
        out = tmp_path / "results"
        code = run_cli(
            "sweep",
            "--config",
            str(tiny_config),
            "--methods",
            "MP",
            "AP",
            "--seeds",
            "1",
            "2",
            "3",
            "4",
            "--out",
            str(out),
        )
        assert code == 0
        assert len(list(out.glob("run_*.csv"))) == 8
        assert len(list(out.glob("params_*.json"))) == 8
        rows = read_summary_csv(out / "summary.csv")
        assert [r["method"] for r in rows] == ["MP", "AP"]

    def test_rerun_is_byte_identical(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert (
                run_cli("sweep", "--config", str(tiny_config), "--methods", "OP", "--out", str(out))
                == 0
            )
        for path1 in sorted(out1.iterdir()):
            path2 = out2 / path1.name
            assert path1.read_bytes() == path2.read_bytes()

    def test_parallel_workers_same_bytes(self, tmp_path, tiny_config):
        out1, out2 = tmp_path / "seq", tmp_path / "par"
        assert run_cli("sweep", "--config", str(tiny_config), "--methods", "MP", "AP", "--out", str(out1)) == 0
        args = ["--methods", "MP", "AP", "--workers", "2", "--out", str(out2)]
        assert run_cli("sweep", "--config", str(tiny_config), *args) == 0
        for path1 in sorted(out1.iterdir()):
            assert path1.read_bytes() == (out2 / path1.name).read_bytes()

    def test_lnp_reports_byte_identical_across_reruns_and_workers(self, tmp_path, tiny_config):
        outs = []
        for workers in ("1", "1", "2"):
            outs.append(tmp_path / f"run{len(outs)}_workers{workers}")
            args = ["--methods", "LNP", "--seeds", "1", "2", "--epochs", "2", "--workers", workers]
            assert run_cli("sweep", "--config", str(tiny_config), *args, "--out", str(outs[-1])) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert "params_LNP_2.json" in names and len(names) == 5
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (out.name, name)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_seed_reports_do_not_depend_on_the_seed_list(self, tmp_path, workers):
        # a method's seeds train in lock-step; seed 2's files are those of seed 2 alone
        args = ["--methods", *ops.METHODS, "--samples", "40", "--epochs", "2", "--workers", workers]
        assert run_cli("sweep", *args, "--seeds", "1", "2", "3", "--out", str(tmp_path / "all")) == 0
        assert run_cli("sweep", *args, "--seeds", "2", "--out", str(tmp_path / "alone")) == 0
        for method in ops.METHODS:
            for name in (f"run_{method}_2.csv", f"params_{method}_2.json"):
                assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name

    def test_a_crash_leaves_the_other_seeds_as_alone(self, tmp_path, tiny_config, monkeypatch, capsys):
        real = cli.train_runs

        def crash_seed_2(method, dataset, runs, *args):
            if 2 in [run.seed for run in runs]:
                raise RuntimeError("injected")
            return real(method, dataset, runs, *args)

        monkeypatch.setattr(cli, "train_runs", crash_seed_2)
        args = ["--config", str(tiny_config), "--methods", "OP", "--epochs", "2"]
        assert run_cli("sweep", *args, "--seeds", "1", "2", "3", "--out", str(tmp_path / "all")) == 3
        assert capsys.readouterr().err.splitlines() == ["DIVERGED: OP seed 2: crashed: RuntimeError: injected"]
        for seed in (1, 3):
            assert run_cli("sweep", *args, "--seeds", str(seed), "--out", str(tmp_path / f"alone{seed}")) == 0
            for name in (f"run_OP_{seed}.csv", f"params_OP_{seed}.json"):
                assert (tmp_path / "all" / name).read_bytes() == (tmp_path / f"alone{seed}" / name).read_bytes()

    def test_fewest_samples_with_a_test_split(self, tmp_path):
        # 9 samples over 4 classes: the class of 3 puts one sample in the test split
        args = ["--methods", "MP", "--seeds", "1", "--samples", "9", "--epochs", "1"]
        assert run_cli("sweep", *args, "--out", str(tmp_path / "r")) == 0
        assert len(read_run_csv(tmp_path / "r" / "run_MP_1.csv")) == 1

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        code = run_cli("sweep", "--methods", "MAXIMUMPOOL", "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err
        assert "MAXIMUMPOOL" in err
        assert "MP" in err and "SESMP" in err  # lists the valid names

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--epochs", "0"], ""),
            (["--batch-size", "0"], ""),
            ([], "classes = 9\n"),
            (["--methods", "LSE", "--lse-r", "0"], ""),
            (["--seeds", "1", "-1"], ""),  # numpy would raise on the negative seed
            ([], "data_seed = -2\n"),
            (["--lr", "inf"], ""),
            # a negative or nan noise trained on the noise-free data; inf diverged every run
            ([], "noise = -0.1\n"),
            ([], "noise = nan\n"),
            (["--noise", "inf"], ""),
            # the 80/20 split of 2 samples per class holds no test sample, and every run crashed
            (["--samples", "8"], ""),
            ([], "samples = 10\nclasses = 5\n"),
            # a worker count under 1 once ran one worker without a word
            (["--workers", "0"], ""),
            (["--workers", "-1"], ""),
            (["--workers", "two"], ""),
            ([], "workers = 0\n"),
        ],
    )
    def test_bad_value_is_one_error_line(self, tmp_path, capsys, started, flags, config):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        code = run_cli("sweep", "--config", str(cfg), *flags, "--out", str(tmp_path / "r"))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert started == []

    def test_summary_statistics_recompute_from_runs(self, tmp_path, tiny_config):
        out = tmp_path / "results"
        run_cli(
            "sweep",
            "--config",
            str(tiny_config),
            "--methods",
            "AP",
            "--seeds",
            "1",
            "2",
            "--out",
            str(out),
        )
        rows = read_summary_csv(out / "summary.csv")
        finals = [
            read_run_csv(out / f"run_AP_{seed}.csv")[-1] for seed in (1, 2)
        ]
        mean_test = np.mean([e.test_acc for e in finals])
        sd_test = np.std([e.test_acc for e in finals], ddof=1)
        assert abs(rows[0]["mean_test_acc"] - mean_test) < 1e-12
        assert abs(rows[0]["sd_test_acc"] - sd_test) < 1e-12

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("samples = 200\nepochs = 1\nmethods = MP AP\nseeds = 1 2\n")
        out = tmp_path / "results"
        code = run_cli("sweep", "--config", str(cfg), "--methods", "NN", "--seeds", "5", "--out", str(out))
        assert code == 0
        assert sorted(p.name for p in out.glob("run_*.csv")) == ["run_NN_5.csv"]

    def test_diverged_run_recorded_and_exit_code_3(self, tmp_path, monkeypatch, capsys):
        def fake_run(method, seed, data_kwargs, optim, net_config):
            diverged = method == "AP"
            report = RunReport(method=method, seed=seed, diverged=diverged)
            report.note = "diverged at step 1: non-finite loss" if diverged else ""
            if not diverged:
                report.epochs = [EpochMetrics(1, 0.5, 0.9, 0.6, 0.8)]
            report.snapshots = [BlockSnapshot(0, {}), BlockSnapshot(1, {})]
            return report

        fake_training(monkeypatch, fake_run)
        out = tmp_path / "results"
        code = run_cli("sweep", "--methods", "MP", "AP", "--seeds", "1", "--out", str(out))
        assert code == 3
        assert "DIVERGED: AP seed 1" in capsys.readouterr().err
        # the diverged run is still recorded on disk, and the sweep continued
        assert (out / "run_AP_1.csv").exists()
        rows = read_summary_csv(out / "summary.csv")
        assert np.isnan(rows[1]["mean_test_acc"])
        assert rows[0]["mean_test_acc"] == 0.8

    def test_overflowing_runs_recorded_and_exit_code_3(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(
                "sweep", "--config", str(tiny_config), "--methods", "MP", "LNP", "GP",
                "--lr", "1e300", "--out", str(out),
            )
        assert code == 3
        assert [str(w.message) for w in caught] == []  # no overflow warnings from numpy
        err = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in err] == ["DIVERGED"] * 3
        for method in ("MP", "LNP", "GP"):
            assert any(line.startswith(f"DIVERGED: {method} seed 1") for line in err)
        assert [r["method"] for r in read_summary_csv(out / "summary.csv")] == ["MP", "LNP", "GP"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_crashed_run_recorded_and_exit_code_3(self, tmp_path, tiny_config, capsys, monkeypatch, workers):
        real = cli.train_runs

        # AP's seeds crash together, then train one at a time: only seed 2 crashes again
        def crash_ap_seed_2(method, dataset, runs, *args):
            if method == "AP" and 2 in [run.seed for run in runs]:
                raise KeyError("boom")
            return real(method, dataset, runs, *args)

        monkeypatch.setattr(cli, "train_runs", crash_ap_seed_2)
        out = tmp_path / "results"
        code = run_cli(
            "sweep", "--config", str(tiny_config), "--methods", "MP", "AP", "--seeds", "1", "2",
            "--workers", workers, "--out", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.splitlines() == ["DIVERGED: AP seed 2: crashed: KeyError: 'boom'"]
        assert "Traceback" not in err
        for method in ("MP", "AP"):
            for seed in (1, 2):
                assert (out / f"run_{method}_{seed}.csv").exists()
        crashed = rep.read_params_json(out / "params_AP_2.json")
        assert crashed["diverged"] and crashed["note"] == "crashed: KeyError: 'boom'"
        assert not rep.read_params_json(out / "params_AP_1.json")["diverged"]
        assert [r["method"] for r in read_summary_csv(out / "summary.csv")] == ["MP", "AP"]


    def test_killed_worker_loses_only_its_runs(self, tmp_path, tiny_config, capsys, monkeypatch):
        # a worker killed by a signal breaks the pool: the runs it did not return become
        # failed rows, every report is written and the sweep exits 3
        real = cli.train_runs
        parent = os.getpid()

        def killed_on_ap(method, *args):
            if method == "AP" and os.getpid() != parent:  # never the test process itself
                os.kill(os.getpid(), signal.SIGKILL)
            return real(method, *args)

        monkeypatch.setattr(cli, "train_runs", killed_on_ap)
        out = tmp_path / "results"
        code = run_cli(
            "sweep", "--config", str(tiny_config), "--methods", "MP", "AP", "--seeds", "1", "2",
            "--workers", "2", "--out", str(out),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        failed = {line.split(":")[1].strip() for line in err.splitlines()}
        assert {"AP seed 1", "AP seed 2"} <= failed
        assert all(": crashed: BrokenProcessPool: " in line for line in err.splitlines())
        for method in ("MP", "AP"):
            for seed in (1, 2):
                payload = rep.read_params_json(out / f"params_{method}_{seed}.json")
                assert (out / f"run_{method}_{seed}.csv").exists()
                assert payload["diverged"] == (f"{method} seed {seed}" in failed)
        assert [r["method"] for r in read_summary_csv(out / "summary.csv")] == ["MP", "AP"]


WINDOW_METHODS = ("MP", "AP", "NN", "CONV", "GP", "OP", "LNP", "LSE", "SMP_fixed", "SMP_trainable")
WINDOW_PARAMS = {"CONV": ("conv_w", 4), "GP": ("gate_w", 4), "OP": ("ordinal_w", 4),
                 "LNP": ("p_raw", 1), "SMP_fixed": ("tau", 1), "SMP_trainable": ("tau", 1)}
#: (method, "x" or parameter name, coordinate): every checked gradient coordinate
#: of every window method, the input's first two
WINDOW_PERTURBATIONS = [(m, "x", c) for m in WINDOW_METHODS for c in (0, 1)] + [
    (m, param, c) for m, (param, size) in WINDOW_PARAMS.items() for c in range(size)
]


class TestGradcheck:
    def test_linear_ops_at_machine_epsilon(self, capsys):
        code = run_cli("gradcheck", "--methods", "AP", "NN", "CONV", "--trials", "40")
        assert code == 0
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            name, err = line.split()[0], float(line.split()[1])
            assert err < 1e-9, name

    def test_all_methods_pass_at_default_tolerance(self):
        assert run_cli("gradcheck", "--trials", "25") == 0

    def test_impossible_tolerance_fails_with_exit_2(self, capsys):
        code = run_cli("gradcheck", "--methods", "SMP_trainable", "--trials", "5", "--tolerance", "1e-16")
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_method_usage_error(self):
        assert run_cli("gradcheck", "--methods", "NOPE") == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--trials", "0"],  # would report a worst error of 0 and pass vacuously
            ["--trials", "-3"],
            ["--tolerance", "0"],
            ["--methods", "LSE", "--lse-r", "0"],
            ["--methods", "LSE", "--lse-r", "inf"],  # pooled to NaN
            ["--methods", "LSE", "--lse-r", "nan"],
            ["--tolerance", "inf"],  # would pass any gradient, right or wrong
            ["--seed", "-1"],
        ],
    )
    def test_bad_value_is_usage_error(self, capsys, flags):
        assert run_cli("gradcheck", "--methods", "AP", "--trials", "2", *flags) == 1
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("method, trials", [("MP", 0), ("SESMP", -3), ("LSE", 0)])
    def test_no_trial_is_no_pass(self, method, trials):
        # a check without a comparison reported a worst error of 0, which passed
        with pytest.raises(ValueError, match="trials"):
            gradcheck.check_method(method, trials=trials)
        with pytest.raises(ValueError, match="trials"):
            gradcheck.run_gradcheck([method], trials=trials)

    def test_config_file_seed_is_used_and_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "gradcheck.cfg"
        cfg.write_text("methods = GP OP\ntrials = 50\nseed = 5\n")
        rows = {}
        for name, flags in {
            "file": ["--config", str(cfg)],
            "flag5": ["--methods", "GP", "OP", "--trials", "50", "--seed", "5"],
            "flag0": ["--methods", "GP", "OP", "--trials", "50", "--seed", "0"],
            "flag_wins": ["--config", str(cfg), "--seed", "0"],
        }.items():
            assert run_cli("gradcheck", *flags) == 0
            rows[name] = capsys.readouterr().out
        assert rows["file"] == rows["flag5"]
        assert rows["file"] != rows["flag0"]
        assert rows["flag_wins"] == rows["flag0"]

    def test_negative_config_file_seed_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "gradcheck.cfg"
        cfg.write_text("seed = -2\n")
        assert run_cli("gradcheck", "--config", str(cfg), "--methods", "AP", "--trials", "2") == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_spread_window_draws_match_the_pairwise_predicate(self):
        def pairwise(rng, n=4, gap=1e-2):
            # every pair compared, as the sorted-neighbour test must reproduce
            while True:
                x = rng.uniform(-1.0, 1.0, size=n)
                if np.abs(np.subtract.outer(x, x))[np.triu_indices(n, k=1)].min() > gap:
                    return x

        for n, gap in ((4, 1e-2), (4, 0.3), (9, 0.05)):
            old, new = np.random.default_rng(17), np.random.default_rng(17)
            for _ in range(500):
                assert np.array_equal(gradcheck._spread_window(new, n, gap), pairwise(old, n, gap))
            assert old.uniform() == new.uniform()  # the generators stay in step

    @pytest.fixture()
    def fd_calls(self, monkeypatch):
        """Every gradcheck.fd_check call of the test, as (args, kwargs)."""
        calls = []
        real = gradcheck.fd_check

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(gradcheck, "fd_check", counting)
        return calls

    def test_away_from_zero_draws_match_rng_choice(self):
        def by_choice(rng, n=4, lo=0.05, hi=1.0):
            return rng.uniform(lo, hi, size=n) * rng.choice([-1.0, 1.0], size=n)

        for n in (1, 4, 9):
            old, new = np.random.default_rng(23), np.random.default_rng(23)
            for _ in range(700):
                assert np.array_equal(gradcheck._away_from_zero(new, n), by_choice(old, n))
            assert old.uniform() == new.uniform()  # the generators stay in step

    @pytest.mark.parametrize("method", ops.METHODS)
    def test_each_trial_keeps_its_own_fd_check_call(self, monkeypatch, fd_calls, method):
        # perfbench's traced gate (workloads.fd_count_problems) counts at least `trials`
        # gradcheck.fd_check calls per method; these trials span more than one block
        trials = 40 if ops.pooling_row(method).se else 150
        assert gradcheck.check_method(method, trials=trials).passed
        assert len(fd_calls) >= trials
        # each call gets the values and gradient of its own trial: those that the
        # reference computes one trial at a time, bit for bit and in the same order
        reference = []
        monkeypatch.setattr(
            gradcheck_reference, "fd_check", lambda *args: reference.append(args) or grads.fd_check(*args)
        )
        gradcheck_reference.worst_error(method, trials)
        assert len(fd_calls) == len(reference)
        for (args, kwargs), expected in zip(fd_calls, reference):
            assert kwargs == {} and args[2] == expected[2]
            for got, want in zip(args[:2], expected[:2]):
                assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("method", ops.METHODS)
    def test_worst_error_is_the_one_trial_at_a_time_reference(self, method, seed):
        trials = 80 if ops.pooling_row(method).se else 300
        result = gradcheck.check_method(method, trials=trials, seed=seed)
        assert result.worst_error == gradcheck_reference.worst_error(method, trials, seed=seed)

    def test_lse_worst_error_is_the_reference_at_high_sharpness(self):
        result = gradcheck.check_method("LSE", trials=300, lse_sharpness=1e12)
        assert result.worst_error == gradcheck_reference.worst_error("LSE", 300, lse_sharpness=1e12)

    def test_every_trial_makes_a_comparison_at_high_lse_sharpness(self, fd_calls):
        result = gradcheck.check_method("LSE", trials=200, lse_sharpness=100.0)
        assert len(fd_calls) == 200
        assert result.passed

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_every_trial_makes_a_comparison_in_se_blocks(self, fd_calls, method):
        # per trial: the 2k values of every kept input coordinate in one call, then one direction
        result = gradcheck.check_method(method, trials=50)
        assert len(fd_calls) == 100
        inputs, directions = fd_calls[::2], fd_calls[1::2]
        assert all(1 <= args[1].size <= 64 and args[0].shape == (2 * args[1].size,) for args, _ in inputs)
        assert all(args[0].shape == (2,) and args[1].size == 1 and args[1][0] != 0.0 for args, _ in directions)
        # SEMP's non-maximal entries get only d_mu / 16, under the guard in some channels
        assert np.mean([args[1].size for args, _ in inputs]) > 48
        assert result.passed

    def test_se_candidate_draws_match_per_array_uniform_draws(self):
        def per_array(rng, count, probe_shape):
            # one rng.uniform call per array and the window-view tie test, as drawn before
            # the arrays shared one call
            bounds = {name: bound for name, (_, bound) in gradcheck._SE_DRAWS.items()}
            xs, params, probes, vs = [], {name: [] for name in bounds if name != "x"}, [], []
            while len(xs) < count:
                x = rng.uniform(-1.0, 1.0, size=(1, 4, 4, 4))
                draw = {name: rng.uniform(-bounds[name], bounds[name], size=shape)
                        for name, (shape, _) in gradcheck._SE_DRAWS.items() if name != "x"}
                hidden_pre = draw["se_f1_weight"] @ x[0].mean(axis=(1, 2)) + draw["se_f1_bias"]
                windows = np.sort(np.stack(layers.window_views(x.transpose(2, 3, 0, 1), gradcheck._WINDOW)), axis=0)
                if np.abs(hidden_pre).min() <= 1e-3 or (windows[-1] - windows[-2]).min() <= 1e-2:
                    continue
                xs.append(x)
                for name, value in draw.items():
                    params[name].append(value)
                probes.append(rng.uniform(-1.0, 1.0, size=probe_shape))
                v = rng.standard_normal(gradcheck._SE_SIZE)
                vs.append(v / np.linalg.norm(v))
            return np.array(xs), {k: np.array(v) for k, v in params.items()}, np.array(probes), np.array(vs)

        old, new = np.random.default_rng(29), np.random.default_rng(29)
        for count in (1, 7, 32, 32):
            want, got = per_array(old, count, (1, 4, 2, 2)), gradcheck._se_candidates(new, count, (1, 4, 2, 2))
            for w, g in zip(want, got):
                for key in (w if isinstance(w, dict) else [None]):
                    a, b = (w[key], g[key]) if key else (w, g)
                    assert a.shape == b.shape and a.tobytes() == np.ascontiguousarray(b).tobytes()
        assert old.uniform() == new.uniform()  # the generators stay in step

    @pytest.fixture()
    def deadline(self):
        """A check that does not end in 120 s fails the test instead of hanging it."""

        def hung(signum, frame):
            raise TimeoutError("the check did not end")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(120)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    @pytest.mark.parametrize("trials", [1, 33, 100])
    def test_one_block_per_candidate_group(self, monkeypatch, fd_calls, deadline, method, trials):
        # a group's candidates are the replicas of one block, whose own forwards also
        # give their values at their bumped inputs, a few coordinates at a time
        groups, blocks, forwards = [], [], []
        draw, build, forward = gradcheck._se_candidates, layers.PoolingBlock.__init__, layers.PoolingBlock.forward

        def drawing(rng, count, probe_shape):
            groups.append(count)
            return draw(rng, count, probe_shape)

        def building(block, spec, params, replicas=None):
            blocks.append(replicas)
            build(block, spec, params, replicas)

        def recording(block, x):
            forwards.append(x.shape[:2])
            return forward(block, x)

        monkeypatch.setattr(gradcheck, "_se_candidates", drawing)
        monkeypatch.setattr(layers.PoolingBlock, "__init__", building)
        monkeypatch.setattr(layers.PoolingBlock, "forward", recording)
        result = gradcheck.check_method(method, trials=trials)
        assert blocks == groups and len(groups) == math.ceil(trials / gradcheck._SE_BLOCK)
        assert max(groups) <= gradcheck._SE_BLOCK
        # no forward holds more bumped inputs than 32 replicas of 4 coordinates, +h and -h
        assert max(s * b for s, b in forwards) <= gradcheck._SE_BLOCK * 2 * gradcheck._SE_CHUNK
        assert len(fd_calls) == 2 * trials
        assert result.worst_error == gradcheck_reference.worst_error(method, trials)

    @pytest.mark.parametrize("method", ["MP", "GP", "SESMP", "SEMP"])
    def test_nan_gradient_fails(self, monkeypatch, capsys, deadline, method):
        # NaN in every 5th entry of the kernel's input gradient: SESMP's NaN entries
        # were dropped by max(worst, nan), SEMP's NaN <g, v> redrew every candidate
        # without end, and a window method's raised DivergedRunError out of the
        # command.  Each must be a FAIL row and exit 2.
        pooling = ops.POOLING[method]

        def nan_every_5th(cache, dy):
            d_stack, d_fields = pooling.backward(cache, dy)
            d_stack = np.array(d_stack)
            d_stack.flat[::5] = np.nan
            return d_stack, d_fields

        monkeypatch.setitem(ops.POOLING, method, pooling._replace(backward=nan_every_5th))
        assert run_cli("gradcheck", "--methods", method, "--trials", "200") == 2
        assert np.isnan(gradcheck_reference.worst_error(method, 20))
        row = capsys.readouterr().out.splitlines()[1].split()
        assert row[0] == method and row[1] == "nan" and row[-1] == "FAIL"

    @pytest.mark.parametrize("sharpness", ["1000", "1e8", "1e12"])
    def test_correct_lse_gradient_passes_at_high_sharpness(self, capsys, sharpness):
        # an FD step sized for O(1) inputs failed here: the draws shrink as 1 / r
        assert run_cli("gradcheck", "--methods", "LSE", "--trials", "200", "--lse-r", sharpness) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("sharpness", [1.0, 1e8, 1e12])
    def test_perturbed_lse_gradient_fails_at_any_sharpness(self, monkeypatch, sharpness):
        # comparing gradients scaled by 1 / r would put them under the relative-error
        # floor at high r and let a 1e-3 relative error pass
        lse = ops.POOLING["LSE"]

        def perturbed(cache, dy):
            d_stack, d_fields = lse.backward(cache, dy)
            return d_stack * (1.0 + 1e-3), d_fields

        monkeypatch.setitem(ops.POOLING, "LSE", lse._replace(backward=perturbed))
        result = gradcheck.check_method("LSE", trials=20, lse_sharpness=sharpness)
        assert result.worst_error > 5e-4
        assert not result.passed


    @pytest.mark.parametrize("method, target, coord", WINDOW_PERTURBATIONS)
    def test_perturbed_window_gradient_fails(self, monkeypatch, method, target, coord):
        # a 1e-3 relative error in one coordinate of the kernel pair's input or parameter
        # gradient; a coordinate that is exactly zero (off MP's argmax, NN's ignored
        # entries) gets 1e-3 instead, where the central difference is exactly zero
        pooling = ops.POOLING[method]

        def perturbed(cache, dy):
            d_stack, d_fields = pooling.backward(cache, dy)
            d = np.array(d_stack if target == "x" else d_fields[target])
            # the kernel sees the windows along axis 0: coordinate `coord` of every window
            # is row `coord`; a scalar parameter has one entry per window
            part = d[coord] if d.ndim == 2 else d
            part[...] = np.where(part != 0.0, part * (1.0 + 1e-3), 1e-3)
            if target == "x":
                return d, d_fields
            return d_stack, {**d_fields, target: d}

        monkeypatch.setitem(ops.POOLING, method, pooling._replace(backward=perturbed))
        assert not gradcheck.check_method(method, trials=50).passed

    @pytest.mark.parametrize("coord", [0, 1])
    @pytest.mark.parametrize("target", ["x", *ops.POOLING["SEMP"].trainable])
    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_perturbed_se_gradient_fails(self, monkeypatch, method, target, coord):
        # a 1e-3 relative error in one coordinate of the input or of one branch array, in
        # every replica of a stacked block
        real = layers.PoolingBlock.backward

        def perturbed(block, dy):
            dx = real(block, dy)
            d = dx if target == "x" else block.grads()[target]
            for replica in d if block.replicas is not None else d[None]:
                replica.flat[coord] *= 1.0 + 1e-3
            return dx

        monkeypatch.setattr(layers.PoolingBlock, "backward", perturbed)
        assert not gradcheck.check_method(method, trials=50).passed

    def test_semp_backward_without_sigmoid_derivative_fails(self, monkeypatch):
        def dropped_one_minus_s(block, dx, d_fields):
            x, scales = block._scaled
            d_scales = (dx * x).sum(axis=(-4, -3))  # blocks compute in (S, H, W, B, C)
            return dx * scales[..., None, None, :, :] + block._branch_backward(d_scales * scales)

        monkeypatch.setattr(layers.PoolingBlock, "_se_backward", dropped_one_minus_s)
        assert not gradcheck.check_method("SEMP", trials=50).passed

    @pytest.mark.parametrize("method", ["SESMP", "SEMP"])
    def test_doubled_squeeze_gradient_fails(self, monkeypatch, method):
        real = layers.PoolingBlock._branch_backward
        # the branch's input gradient is d_mu spread over H x W; doubling it doubles d_mu
        monkeypatch.setattr(layers.PoolingBlock, "_branch_backward", lambda block, d: 2.0 * real(block, d))
        assert not gradcheck.check_method(method, trials=50).passed


class TestParamsReport:
    def test_report_from_sweep_output(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        run_cli("sweep", "--config", str(tiny_config), "--methods", "OP", "SMP_trainable", "--out", str(out))
        capsys.readouterr()
        code = run_cli("params-report", "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "ordinal_w[4]" in text
        assert "tau" in text
        assert "ordinal drift" in text
        assert (out / "params_report.csv").exists()

    def test_explicit_snapshot_paths(self, tmp_path, capsys):
        report = RunReport(
            method="LNP",
            seed=1,
            epochs=[EpochMetrics(1, 1.0, 0.5, 1.0, 0.5)],
            snapshots=[BlockSnapshot(0, {"p_raw": [1.85], "p": [3.0]})],
        )
        path = tmp_path / "params_LNP_1.json"
        rep.write_params_json(report, path)
        code = run_cli("params-report", str(path), "--out", str(tmp_path))
        assert code == 0
        assert "p50=+3.0000" in capsys.readouterr().out

    def test_report_of_an_extreme_learning_rate_run(self, tmp_path):
        # the run diverges (exit 3) with finite weights near -+1.7e308, whose tau
        # percentiles came out unsorted and failed the report with a traceback
        out = tmp_path / "big"
        flags = ["--seeds", "1", "--samples", "40", "--epochs", "1", "--lr", "1.7e308", "--out", str(out)]
        assert run_cli("sweep", "--methods", "CONV", "SMP_trainable", *flags) == 3
        assert run_cli("params-report", "--out", str(out)) == 0
        with open(out / "params_report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {row["param"].split("[")[0] for row in rows} == {"conv_w", "tau"}
        for row in rows:
            points = [float(row[f"p{p}"]) for p in rep.PERCENTILES]
            assert np.isfinite(points).all() and points == sorted(points)

    def test_missing_snapshots_usage_error(self, tmp_path):
        assert run_cli("params-report", "--out", str(tmp_path / "empty")) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "[]",
            '{"method": "OP", "seed": 1, "diverged": false, "note": "", "blocks": []}',
            '{"seed": 1, "diverged": false, "note": "", "blocks": [{"block": 0, "params": {}}]}',
            '{"method": "LNP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {"p": ["abc"]}}]}',
            '{"method": "SMP_trainable", "seed": 1, "diverged": true, "note": "", '
            '"blocks": [{"block": 0, "params": {"tau": [0.5, NaN]}}]}',
            '{"method": "CONV", "seed": 1, "diverged": true, "note": "", '
            '"blocks": [{"block": 0, "params": {"conv_w": [Infinity, 0.0, 0.0, 0.0]}}]}',
            '{"method": "CONV", "seed": 1, "diverged": true, "note": "", '
            '"blocks": [{"block": 0, "params": {"conv_w": [-Infinity, 0.0, 0.0, 0.0]}}]}',
            '{"method": "LNP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {"p": [1' + '0' * 400 + ']}}]}',  # past the largest float
            # json's true and false are bools, which isinstance counts as ints
            '{"method": "OP", "seed": true, "diverged": false, "note": "", '
            '"blocks": [{"block": false, "params": {"ordinal_w": [0.25, 0.25, 0.25, 0.25]}}]}',
            '{"method": "OP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": false, "params": {"ordinal_w": [0.25, 0.25, 0.25, 0.25]}}]}',
            '[' * 200000 + ']' * 200000,  # too deep for json's recursion limit
            # the ordinal drift check failed on these with a KeyError, a ValueError and an
            # IndexError, and the tau percentiles with an IndexError
            '{"method": "OP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {}}]}',
            '{"method": "OP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {"ordinal_w": [1.0]}}]}',
            '{"method": "OP", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {"ordinal_w": []}}]}',
            '{"method": "SMP_trainable", "seed": 1, "diverged": false, "note": "", '
            '"blocks": [{"block": 0, "params": {"tau": []}}]}',
        ],
        ids=["top-level-list", "op-without-blocks", "no-method", "text-value", "nan", "inf", "-inf", "huge-int",
             "bool-seed", "bool-block", "deep-nesting", "op-without-ordinal-w", "one-ordinal-weight",
             "no-ordinal-weights", "no-tau"],
    )
    def test_malformed_snapshot_is_one_error_line(self, tmp_path, capsys, payload):
        path = tmp_path / "params_X_1.json"
        path.write_text(payload)
        assert run_cli("params-report", str(path), "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot read snapshot {path}: ")


class TestLrSweep:
    def test_single_rate_is_returned(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "lr-sweep",
            "--config",
            str(tiny_config),
            "--method",
            "MP",
            "--lrs",
            "0.001",
            "--out",
            str(out),
        )
        assert code == 0
        assert "best lr: 0.001" in capsys.readouterr().out
        assert (out / "lr_sweep.csv").exists()

    def test_winner_recorded_across_rates(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "results"
        code = run_cli(
            "lr-sweep",
            "--config",
            str(tiny_config),
            "--method",
            "MP",
            "--lrs",
            "1e-3",
            "1e-4",
            "1e-5",
            "--out",
            str(out),
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "best lr:" in text
        lines = (out / "lr_sweep.csv").read_text().splitlines()
        assert lines[0] == "lr,final_train_loss,diverged"
        assert len(lines) == 4

    def test_tie_breaks_toward_smaller_rate(self, tmp_path, monkeypatch, capsys):
        def fake_run(method, seed, data_kwargs, optim, net_config):
            report = RunReport(method=method, seed=seed)
            report.epochs = [EpochMetrics(1, 0.5, 0.9, 0.6, 0.8)]  # same loss always
            return report

        fake_training(monkeypatch, fake_run)
        code = run_cli("lr-sweep", "--method", "MP", "--lrs", "1e-3", "1e-4", "--out", str(tmp_path))
        assert code == 0
        assert "best lr: 0.0001" in capsys.readouterr().out

    def test_non_positive_rate_usage_error(self, tmp_path):
        assert run_cli("lr-sweep", "--method", "MP", "--lrs", "0.0", "--out", str(tmp_path)) == 1
        assert run_cli("lr-sweep", "--method", "MP", "--lrs", "-1e-4", "--out", str(tmp_path)) == 1
        assert run_cli("lr-sweep", "--method", "MP", "--lrs", "nan", "--out", str(tmp_path)) == 1
        assert run_cli("lr-sweep", "--method", "MP", "--lrs", "inf", "--out", str(tmp_path)) == 1

    def test_negative_seed_usage_error(self, tmp_path, capsys):
        code = run_cli("lr-sweep", "--seed", "-3", "--lrs", "1e-3", "--out", str(tmp_path))
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_data_and_net_settings_from_config(self, tmp_path, monkeypatch):
        seen = []

        def fake_run(method, seed, data_kwargs, optim, net_config):
            seen.append((data_kwargs, optim, net_config))
            report = RunReport(method=method, seed=seed)
            report.epochs = [EpochMetrics(1, 0.5, 0.9, 0.6, 0.8)]
            return report

        fake_training(monkeypatch, fake_run)
        cfg = tmp_path / "cfg"
        cfg.write_text("samples = 160\nnoise = 0.3\ndata_seed = 9\nlse_r = 2.5\nbatch_size = 20\n")
        code = run_cli(
            "lr-sweep", "--config", str(cfg), "--method", "LSE", "--lrs", "1e-3", "--out", str(tmp_path)
        )
        assert code == 0
        (data_kwargs, optim, net_config), = seen
        assert data_kwargs == {"classes": 4, "samples": 160, "seed": 9, "noise": 0.3}
        assert (optim.lr, optim.epochs, optim.batch_size) == (1e-3, 1, 20)
        assert net_config.lse_sharpness == 2.5

    def test_bad_class_count_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("classes = 9\n")
        code = run_cli("lr-sweep", "--config", str(cfg), "--lrs", "1e-3", "--out", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    LOCKSTEP = ["--method", "GP", "--samples", "40", "--epochs", "2"]

    def rows_alone(self, tmp_path, capsys, rates):
        """Each rate's csv row and stdout line when it runs alone."""
        rows = []
        for lr in rates:
            code = run_cli("lr-sweep", *self.LOCKSTEP, "--lrs", lr, "--out", str(tmp_path / lr))
            assert code == (3 if lr == "1e300" else 0)  # alone, 1e300 leaves no winner
            row = (tmp_path / lr / "lr_sweep.csv").read_bytes().splitlines()[1]
            rows.append((row, capsys.readouterr().out.splitlines()[1]))
        return rows

    def test_each_rate_row_is_that_rate_alone(self, tmp_path, capsys):
        # the rates train in lock-step, and 1e300 diverges beside live rates
        rates = ["1e300", "1e-2", "1e-3"]
        assert run_cli("lr-sweep", *self.LOCKSTEP, "--lrs", *rates, "--out", str(tmp_path / "all")) == 0
        lines = capsys.readouterr().out.splitlines()[1:4]
        rows = (tmp_path / "all" / "lr_sweep.csv").read_bytes().splitlines()[1:]
        assert list(zip(rows, lines)) == self.rows_alone(tmp_path, capsys, rates)
        assert [row.split(b",")[-1] for row in rows] == [b"1", b"0", b"0"]

    def test_a_crash_is_recorded_against_its_rate(self, tmp_path, monkeypatch, capsys):
        real = cli.train_runs

        def crash_at_1e_3(method, dataset, runs, *args):
            if 1e-3 in [run.lr for run in runs]:
                raise RuntimeError("injected")
            return real(method, dataset, runs, *args)

        monkeypatch.setattr(cli, "train_runs", crash_at_1e_3)
        rates = ["1e300", "1e-2", "1e-3"]
        assert run_cli("lr-sweep", *self.LOCKSTEP, "--lrs", *rates, "--out", str(tmp_path / "all")) == 0
        captured = capsys.readouterr()
        assert captured.err == ""  # no traceback
        lines = captured.out.splitlines()[1:4]
        rows = (tmp_path / "all" / "lr_sweep.csv").read_bytes().splitlines()[1:]
        assert rows[2] == b"0.001,nan,1" and lines[2].endswith("nan (diverged)")
        assert list(zip(rows, lines))[:2] == self.rows_alone(tmp_path, capsys, rates[:2])
        assert "best lr: 0.01 " in captured.out

    def test_class_count_from_config_respected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("samples = 160\nclasses = 8\nepochs = 1\nbatch_size = 20\n")
        out = tmp_path / "results"
        code = run_cli(
            "lr-sweep", "--config", str(cfg), "--method", "AP", "--lrs", "1e-3", "--out", str(out)
        )
        assert code == 0


class TestConfigFile:
    def test_malformed_line_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs 3\n")
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_missing_file_usage_error(self, tmp_path):
        assert run_cli("sweep", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)) == 1

    def test_bad_value_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = soon\n")
        assert run_cli("sweep", "--config", str(cfg), "--out", str(tmp_path)) == 1

    @pytest.mark.parametrize(
        "command, text, key, token",
        [
            ("lr-sweep", "epochs = soon\n", "epochs", "soon"),
            ("sweep", "seeds = 1, two\n", "seeds", "two"),
            ("lr-sweep", "lrs = 1e-3 fast\n", "lrs", "fast"),
            ("gradcheck", "tolerance = tight\n", "tolerance", "tight"),
        ],
    )
    def test_wrong_type_value_names_file_and_key(self, tmp_path, capsys, command, text, key, token):
        # once reported as if it were the flag: "argument --epochs: invalid int value"
        cfg = tmp_path / "typed.cfg"
        cfg.write_text(text)
        required = ["--lrs", "1e-3"] if command == "lr-sweep" and key != "lrs" else []
        assert run_cli(command, "--config", str(cfg), *required, "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert str(cfg) in err[0] and repr(key) in err[0] and repr(token) in err[0]
        assert "argument --" not in err[0]


@pytest.mark.parametrize(
    "argv, repeated",
    [
        (["sweep", "--methods", "MP", "AP", "MP", "--seeds", "1", "2"], "method MP"),
        (["sweep", "--methods", "MP", "--seeds", "1", "2", "1"], "run of seed 1 at lr 0.0001"),
        (["lr-sweep", "--lrs", "1e-3", "1e-4", "0.001"], "run of seed 1 at lr 0.001"),
    ],
    ids=["method", "seed", "lr"],
)
def test_repeated_method_or_run_is_one_error_line(tmp_path, capsys, started, argv, repeated):
    # a repeated seed once counted twice in summary.csv's mean and sd
    out = tmp_path / "r"
    assert run_cli(*argv, "--samples", "40", "--epochs", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: repeated {repeated}"]
    assert started == [] and not out.exists()


def test_gradcheck_repeated_method_is_one_error_line(capsys, monkeypatch):
    # sweep's rule: a repeated method once printed its gradcheck row twice and exited 0
    monkeypatch.setattr(cli, "run_gradcheck", lambda *args, **kwargs: pytest.fail("the check started"))
    assert run_cli("gradcheck", "--methods", "MP", "AP", "MP", "--trials", "1") == 1
    assert capsys.readouterr().err.splitlines() == ["error: repeated method MP"]


@pytest.mark.parametrize(
    "command, path",
    [(c, p) for c in ("sweep", "lr-sweep", "params-report") for p in ("out-is-a-file", "out-under-a-file")]
    + [(c, "config-not-utf-8") for c in ("sweep", "lr-sweep", "gradcheck")],
)
def test_bad_path_is_one_error_line(tmp_path, capsys, started, command, path):
    blocker = tmp_path / "file"
    blocker.write_text("a file, not a directory\n")
    out = {"out-is-a-file": blocker, "out-under-a-file": blocker / "results"}.get(path, tmp_path / "results")
    cfg = tmp_path / "latin-1.cfg"
    cfg.write_bytes("# r\xe9sultats\nsamples = 40\n".encode("latin-1"))
    snapshot = tmp_path / "params_LNP_1.json"
    rep.write_params_json(fake_report("LNP", 1), snapshot)
    argv = {
        "sweep": ["--methods", "MP", "--seeds", "1", "--samples", "40", "--epochs", "1", "--out", str(out)],
        "lr-sweep": ["--lrs", "1e-3", "--samples", "40", "--out", str(out)],
        "params-report": [str(snapshot), "--out", str(out)],
        "gradcheck": ["--methods", "AP", "--trials", "2"],
    }[command]
    if path == "config-not-utf-8":
        argv += ["--config", str(cfg)]
    assert run_cli(command, *argv) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot ")
    assert str(cfg if path == "config-not-utf-8" else out) in err[0]
    assert captured.out == "" and started == []
    assert blocker.read_text() == "a file, not a directory\n"


class TestNegativeExponentForm:
    """A negative number in exponent form is a value, as -0.0001 is: it gets
    the learning-rate range error, not an argparse option error."""

    @pytest.fixture()
    def no_run(self, started):
        yield
        assert started == []

    def range_error(self, capsys, *argv):
        assert run_cli("lr-sweep", *argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        return err[0]

    def test_flag(self, tmp_path, capsys, no_run):
        expected = self.range_error(capsys, "--lrs", "-0.0001", "--out", str(tmp_path))
        assert expected == "error: lr must be finite and > 0, got -0.0001"
        assert self.range_error(capsys, "--lrs", "-1e-4", "--out", str(tmp_path)) == expected
        assert self.range_error(capsys, "--lrs", "1e-3", "-1E-4", "--out", str(tmp_path)) == expected

    def test_config_file(self, tmp_path, capsys, no_run):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("lrs = 1e-3 -1e-4\n")
        assert self.range_error(capsys, "--config", str(cfg), "--out", str(tmp_path)) == (
            "error: lr must be finite and > 0, got -0.0001"
        )


#: key -> (file value, flag values, what the command gets from each)
KEY_VALUES = {
    "out": ("from_file", ["from_flag"], "from_file", "from_flag"),
    "methods": ("MP, AP", ["NN"], ("MP", "AP"), ("NN",)),
    "seeds": ("3 4", ["5"], (3, 4), (5,)),
    "epochs": ("2", ["3"], 2, 3),
    "lr": ("1e-3", ["2e-3"], 1e-3, 2e-3),
    "batch_size": ("20", ["8"], 20, 8),
    "lse_r": ("2.5", ["3.5"], 2.5, 3.5),
    "samples": ("160", ["120"], 160, 120),
    "noise": ("0.3", ["0.2"], 0.3, 0.2),
    "classes": ("3", ["5"], 3, 5),
    "data_seed": ("9", ["11"], 9, 11),
    "method": ("AP", ["NN"], "AP", "NN"),
    "seed": ("4", ["6"], 4, 6),
    "lrs": ("1e-3, 2e-3", ["5e-4"], (1e-3, 2e-3), (5e-4,)),
    "trials": ("7", ["9"], 7, 9),
    "tolerance": ("1e-4", ["1e-3"], 1e-4, 1e-3),
    "workers": ("2", ["3"], 2, 3),
}
OUTPUTS = ("summary.csv", "lr_sweep.csv", "params_report.csv")


def command_keys():
    """(command, key) for every flag a config file can set."""
    commands = cli.build_parser().commands
    return [
        (name, action.dest)
        for name, p in commands.items()
        for action in p._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


def fake_report(method, seed):
    report = RunReport(method=method, seed=seed)
    report.epochs = [EpochMetrics(1, 0.5, 0.9, 0.6, 0.8)]
    report.snapshots = [BlockSnapshot(0, {"p_raw": [1.85], "p": [3.0]}), BlockSnapshot(1, {})]
    return report


class TestConfigKeys:
    @pytest.fixture()
    def calls(self, monkeypatch, tmp_path):
        """The settings of every run and run_gradcheck call, in a fresh directory."""
        seen = []

        def fake_run(method, seed, data_kwargs, optim, net_config):
            seen.append({
                "method": method, "seed": seed, "epochs": optim.epochs, "lr": optim.lr,
                "batch_size": optim.batch_size, "lse_r": net_config.lse_sharpness,
                "samples": data_kwargs["samples"], "noise": data_kwargs["noise"],
                "classes": data_kwargs["classes"], "data_seed": data_kwargs["seed"],
            })
            return fake_report(method, seed)

        def fake_gradcheck(methods, trials, tolerance, seed, lse_sharpness):
            seen.append({"methods": tuple(methods), "trials": trials, "tolerance": tolerance,
                         "seed": seed, "lse_r": lse_sharpness})
            return []

        class InlinePool:  # a worker pool that runs its tasks here, where seen records them
            def __init__(self, max_workers):
                seen.append({"workers": max_workers})

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        fake_training(monkeypatch, fake_run)
        monkeypatch.setattr(cli, "run_gradcheck", fake_gradcheck)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        monkeypatch.chdir(tmp_path)
        return seen

    @staticmethod
    def observed(key, calls):
        """What the command got for `key`: the output directory, or from the recorded calls."""
        if key == "out":
            (out,) = {path.parent.name for name in OUTPUTS for path in Path().glob(f"*/{name}")}
            return out
        if key in calls[0]:
            return calls[0][key]
        column = {"methods": "method", "seeds": "seed", "lrs": "lr"}[key]
        return tuple(dict.fromkeys(c[column] for c in calls))

    @pytest.mark.parametrize("command, key", command_keys())
    def test_file_value_reaches_the_command_and_the_flag_wins(self, calls, command, key):
        file_value, flag_values, from_file, from_flag = KEY_VALUES[key]
        Path("cfg").write_text(f"{key} = {file_value}\n")
        for name in ("results", "from_file", "from_flag"):  # what params-report reads
            Path(name).mkdir()
            rep.write_params_json(fake_report("LNP", 1), Path(name) / "params_LNP_1.json")
        # lrs = ... in the file satisfies lr-sweep's required --lrs
        required = ["--lrs", "1e-3"] if command == "lr-sweep" and key != "lrs" else []
        flag = "--" + key.replace("_", "-")
        for extra, expected in (([], from_file), ([flag, *flag_values], from_flag)):
            for old in [path for name in OUTPUTS for path in Path().glob(f"*/{name}")]:
                old.unlink()
            calls.clear()
            assert run_cli(command, "--config", "cfg", *required, *extra) == 0
            assert self.observed(key, calls) == expected

    @pytest.mark.parametrize("command", ["sweep", "gradcheck", "params-report", "lr-sweep"])
    def test_unknown_key_is_one_error_line(self, calls, capsys, command):
        Path("cfg").write_text("trial = 3\n")  # gradcheck's flag is --trials
        required = ["--lrs", "1e-3"] if command == "lr-sweep" else []
        assert run_cli(command, "--config", "cfg", *required) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "'trial'" in err[0] and "cfg" in err[0]
        assert calls == []

    @pytest.mark.parametrize("text", ["method = NOPE\nseed = -5\n", "seed = -5\n", "noise = -0.1\n"])
    def test_bad_lr_sweep_value_in_file_is_one_error_line(self, calls, capsys, text):
        # a file's method and seed were once ignored: MP ran at seed 1 and the command exited 0
        Path("cfg").write_text(text)
        assert run_cli("lr-sweep", "--config", "cfg", "--lrs", "1e-3") == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert calls == []

    def test_other_commands_keys_are_skipped(self, calls):
        Path("cfg").write_text("seeds = 7 8\ntrials = 3\nmethod = AP\nworkers = 2\n")
        assert run_cli("lr-sweep", "--config", "cfg", "--lrs", "1e-3") == 0
        assert [(c["method"], c["seed"]) for c in calls] == [("AP", 1)]
        calls.clear()
        assert run_cli("gradcheck", "--config", "cfg") == 0
        assert [(c["trials"], c["seed"]) for c in calls] == [(3, 0)]
        rep.write_params_json(fake_report("LNP", 1), Path("results") / "params_LNP_1.json")
        assert run_cli("params-report", "--config", "cfg") == 0
        assert Path("results", "params_report.csv").exists()
