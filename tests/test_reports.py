"""Report serialization: round-trips, summaries, percentile tables."""

import numpy as np
import pytest

from helpers import read_run_csv, read_summary_csv
from poolbench import reports as rep
from poolbench.train import BlockSnapshot, EpochMetrics, RunReport


def sample_report(method="SMP_trainable", seed=3, diverged=False):
    return RunReport(
        method=method,
        seed=seed,
        epochs=[
            EpochMetrics(1, 1.3862943611198906, 0.25, 1.39, 0.24),
            EpochMetrics(2, 0.9871234567891234, 0.625, 1.01, 0.58),
        ],
        snapshots=[
            BlockSnapshot(0, {"tau": [0.1, -0.7, 0.33, 0.0]}),
            BlockSnapshot(1, {"tau": [1.5, -2.25, 0.125, 0.5]}),
        ],
        diverged=diverged,
    )


class TestRoundTrips:
    def test_run_csv_exact(self, tmp_path):
        report = sample_report()
        path = tmp_path / "run.csv"
        rep.write_run_csv(report, path)
        assert read_run_csv(path) == report.epochs

    def test_params_json_exact(self, tmp_path):
        report = sample_report()
        path = tmp_path / "params.json"
        rep.write_params_json(report, path)
        payload = rep.read_params_json(path)
        assert payload["method"] == report.method
        assert payload["seed"] == report.seed
        assert payload["blocks"] == [
            {"block": s.block, "params": s.params} for s in report.snapshots
        ]

    def test_full_run_report_reconstructs(self, tmp_path):
        # the run CSV plus the params JSON together rebuild the RunReport
        report = sample_report()
        rep.write_run_csv(report, tmp_path / "run.csv")
        rep.write_params_json(report, tmp_path / "params.json")
        payload = rep.read_params_json(tmp_path / "params.json")
        rebuilt = RunReport(
            method=payload["method"],
            seed=payload["seed"],
            epochs=read_run_csv(tmp_path / "run.csv"),
            snapshots=[BlockSnapshot(b["block"], b["params"]) for b in payload["blocks"]],
            diverged=payload["diverged"],
            note=payload["note"],
        )
        assert rebuilt == report

    def test_summary_round_trip_and_recompute(self, tmp_path):
        reports = [sample_report(seed=s) for s in (1, 2, 3)]
        reports[1].epochs[-1] = EpochMetrics(2, 0.9, 0.75, 0.95, 0.7)
        rows = rep.summarize(reports, ["SMP_trainable"])
        path = tmp_path / "summary.csv"
        rep.write_summary_csv(rows, path)
        parsed = read_summary_csv(path)
        assert parsed == rows
        # recompute the statistics from the per-run values
        train_accs = [r.final_train_acc for r in reports]
        assert abs(parsed[0]["mean_train_acc"] - np.mean(train_accs)) < 1e-12
        assert abs(parsed[0]["sd_train_acc"] - np.std(train_accs, ddof=1)) < 1e-12


class TestSummaries:
    def test_single_seed_spread_is_zero(self):
        rows = rep.summarize([sample_report()], ["SMP_trainable"])
        assert rows[0]["sd_train_acc"] == 0.0

    def test_diverged_runs_excluded(self):
        good = sample_report(seed=1)
        bad = sample_report(seed=2, diverged=True)
        rows = rep.summarize([good, bad], ["SMP_trainable"])
        assert rows[0]["mean_train_acc"] == good.final_train_acc

    def test_all_diverged_yields_nan(self):
        rows = rep.summarize([sample_report(diverged=True)], ["SMP_trainable"])
        assert np.isnan(rows[0]["mean_test_acc"])


class TestPercentiles:
    def test_single_value_all_equal(self):
        summary = rep.percentile_summary([0.7])
        assert set(summary.values()) == {0.7}

    def test_linear_interpolation_median(self):
        values = np.arange(1, 101) / 100.0
        assert rep.percentile_summary(values)["p50"] == pytest.approx(0.505)

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            summary = rep.percentile_summary(rng.normal(size=17))
            points = list(summary.values())
            assert points == sorted(points)

    def test_finite_and_sorted_near_the_largest_float(self):
        # the difference of two weights near -+1.7e308 overflowed, and the percentiles came out unsorted
        big = np.finfo(np.float64).max
        for values in ([-1.7e308, 1.7e308], [-big, big, -big, 0.5], [big, big, big, -big]):
            points = list(rep.percentile_summary(values).values())
            assert np.isfinite(points).all() and points == sorted(points)

    def test_ordinary_values_keep_their_percentiles_exactly(self):
        # halving before the interpolation and doubling after are exact for normal floats
        rng = np.random.default_rng(1)
        for _ in range(200):
            values = rng.normal(size=rng.integers(1, 20)) * 10.0 ** rng.integers(-300, 300)
            for p, v in zip(rep.PERCENTILES, rep.percentile_summary(values).values()):
                assert v == float(np.percentile(values, p, method="linear"))


class TestParamsReport:
    def test_tau_rows_have_percentiles(self):
        payload = {
            "method": "SMP_trainable",
            "seed": 1,
            "diverged": False,
            "blocks": [{"block": 0, "params": {"tau": list(np.arange(1, 101) / 100.0)}}],
        }
        rows = rep.params_report_rows([payload])
        assert len(rows) == 1
        assert rows[0]["p50"] == pytest.approx(0.505)
        assert rows[0]["count"] == 100

    def test_ordinal_weights_echoed_exactly(self):
        payload = {
            "method": "OP",
            "seed": 2,
            "diverged": False,
            "blocks": [{"block": 1, "params": {"ordinal_w": [0.1, 0.2, 0.3, 0.4]}}],
        }
        rows = rep.params_report_rows([payload])
        assert [r["param"] for r in rows] == [
            "ordinal_w[1]",
            "ordinal_w[2]",
            "ordinal_w[3]",
            "ordinal_w[4]",
        ]
        assert [r["p50"] for r in rows] == [0.1, 0.2, 0.3, 0.4]
        assert all(r[f"p{p}"] == r["p50"] for r in rows for p in (5, 25, 75, 95))

    def test_lnp_reports_effective_exponent(self):
        payload = {
            "method": "LNP",
            "seed": 1,
            "diverged": False,
            "blocks": [{"block": 0, "params": {"p_raw": [1.85], "p": [3.0]}}],
        }
        rows = rep.params_report_rows([payload])
        assert rows[0]["param"] == "p"
        assert rows[0]["p50"] == 3.0

    def test_csv_output(self, tmp_path):
        payload = {
            "method": "OP",
            "seed": 2,
            "diverged": False,
            "blocks": [{"block": 0, "params": {"ordinal_w": [0.25, 0.25, 0.25, 0.25]}}],
        }
        path = tmp_path / "params_report.csv"
        rep.write_params_report_csv(rep.params_report_rows([payload]), path)
        text = path.read_text()
        assert text.startswith("method,seed,block,param,count,p5,p25,p50,p75,p95")
        assert "OP,2,0,ordinal_w[1],1,0.25" in text


class TestOrdinalDrift:
    @staticmethod
    def payload(seed, weights):
        return {
            "method": "OP",
            "seed": seed,
            "diverged": False,
            "blocks": [
                {"block": 0, "params": {"ordinal_w": [0.25, 0.25, 0.25, 0.25]}},
                {"block": 1, "params": {"ordinal_w": weights}},
            ],
        }

    def test_pass_when_max_slot_dominates(self):
        payloads = [self.payload(s, [0.1, 0.2, 0.3, 0.4]) for s in (1, 2, 3)]
        payloads.append(self.payload(4, [0.4, 0.3, 0.2, 0.1]))
        drift = rep.ordinal_drift_check(payloads)
        assert drift["wins"] == 3
        assert drift["verdict"] == "PASS"

    def test_warn_when_it_does_not(self):
        payloads = [self.payload(s, [0.4, 0.3, 0.2, 0.1]) for s in (1, 2, 3, 4)]
        assert rep.ordinal_drift_check(payloads)["verdict"] == "WARN"

    def test_ties_are_not_strict_wins(self):
        payloads = [self.payload(1, [0.25, 0.25, 0.25, 0.25])]
        drift = rep.ordinal_drift_check(payloads)
        assert drift["wins"] == 0
