"""Report serialization: per-run CSVs, parameter snapshots, sweep summaries.

Floats are written with ``repr`` so parsing an emitted file reproduces the
in-memory values exactly; nothing time- or host-dependent is written, so an
identical configuration produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import sys

import numpy as np

from .layers import POOL_WINDOW
from .ops import ENTRY_WEIGHTS, POOLING
from .train import RunReport

__all__ = [
    "RUN_FIELDS",
    "SUMMARY_FIELDS",
    "PERCENTILES",
    "run_csv_name",
    "params_json_name",
    "write_run_csv",
    "write_params_json",
    "read_params_json",
    "summarize",
    "write_summary_csv",
    "percentile_summary",
    "params_report_rows",
    "write_params_report_csv",
    "ordinal_drift_check",
]

RUN_FIELDS = ("epoch", "train_loss", "train_acc", "test_loss", "test_acc")
SUMMARY_FIELDS = (
    "method",
    "mean_train_acc",
    "sd_train_acc",
    "mean_test_acc",
    "sd_test_acc",
)
PERCENTILES = (5, 25, 50, 75, 95)

#: documented once in every summary file: the +- spread in the accuracy
#: table is the sample standard deviation (ddof=1) over seeds
_SUMMARY_NOTE = "# spread: sample standard deviation (ddof=1) over seeds; 0 for a single seed"


def _fmt(value: float) -> str:
    return repr(float(value))


def run_csv_name(method: str, seed: int) -> str:
    return f"run_{method}_{seed}.csv"


def params_json_name(method: str, seed: int) -> str:
    return f"params_{method}_{seed}.json"


def write_run_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RUN_FIELDS)
        for em in report.epochs:
            writer.writerow(
                [em.epoch, _fmt(em.train_loss), _fmt(em.train_acc), _fmt(em.test_loss), _fmt(em.test_acc)]
            )


def write_params_json(report: RunReport, path) -> None:
    payload = {
        "method": report.method,
        "seed": report.seed,
        "diverged": report.diverged,
        "note": report.note,
        "blocks": [
            {"block": snap.block, "params": snap.params} for snap in report.snapshots
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_params_json(path) -> dict:
    """A params_*.json payload; ``ValueError`` says how a malformed one is off."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    # exact types: json reads true and false as bools, and a bool is an int to isinstance
    for key, kind in (("method", str), ("seed", int), ("diverged", bool), ("blocks", list)):
        if type(payload.get(key)) is not kind:
            raise ValueError(f"{key!r} must be a JSON {kind.__name__}, got {payload.get(key)!r}")
    if not payload["blocks"] and not payload["diverged"]:
        raise ValueError("a run that did not diverge must have parameter blocks")
    for b in payload["blocks"]:
        if not (isinstance(b, dict) and type(b.get("block")) is int and isinstance(b.get("params"), dict)):
            raise ValueError(f"each block needs an integer 'block' and a 'params' object, got {b!r}")
        for name, values in b["params"].items():
            # json reads NaN, Infinity and -Infinity as floats, and an integer of any size
            if not (isinstance(values, list) and values) or not all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in values
            ):
                raise ValueError(f"parameter {name!r} must be a non-empty list of finite numbers, got {values!r}")
        # the ordinal drift check compares the last slot's weight with the others
        if payload["method"] == "OP" and len(b["params"].get("ordinal_w", ())) != POOL_WINDOW.n:
            raise ValueError(f"an OP block must hold one 'ordinal_w' weight per window entry, got {b['params']!r}")
    payload["blocks"] = [{"block": b["block"], "params": b["params"]} for b in payload["blocks"]]
    return payload


def summarize(reports: list[RunReport], method_order) -> list[dict]:
    """One row per method: mean and sample sd of final accuracies over seeds.

    Diverged runs are excluded from the statistics; a method with no
    completed run reports nan.
    """
    rows = []
    for method in method_order:
        runs = [r for r in reports if r.method == method and not r.diverged]
        row = {"method": method}
        for split in ("train", "test"):
            accs = [getattr(r, f"final_{split}_acc") for r in runs]
            row[f"mean_{split}_acc"], row[f"sd_{split}_acc"] = _mean_and_sd(accs)
        rows.append(row)
    return rows


def _mean_and_sd(values) -> tuple[float, float]:
    """Mean and sample sd of ``values``: the sd is 0 for one value, and both are nan for none."""
    if not values:
        return float("nan"), float("nan")
    return float(np.mean(values)), float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def write_summary_csv(rows: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(_SUMMARY_NOTE + "\n")
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for row in rows:
            writer.writerow([row["method"]] + [_fmt(row[k]) for k in SUMMARY_FIELDS[1:]])


def percentile_summary(values) -> dict[str, float]:
    """5/25/50/75/95 percentiles with linear interpolation; nondecreasing.

    The interpolation runs on the halved values and the result is doubled:
    exact for normal floats, and the difference of two finite halves cannot
    overflow, as that of two weights near +-1.7e308 does.
    """
    values = np.asarray(values, dtype=np.float64) * 0.5
    points = [2.0 * float(np.percentile(values, p, method="linear")) for p in PERCENTILES]
    assert all(a <= b for a, b in zip(points, points[1:])), "percentiles must be sorted"
    return {f"p{p}": v for p, v in zip(PERCENTILES, points)}


def params_report_rows(snapshots: list[dict]) -> list[dict]:
    """Percentile table rows from params_*.json payloads.

    Each method's table row names the parameters worth a distribution
    table (its ``report``): the effective LNP exponent p, the temperatures
    per channel, the raw ordinal/gate/conv weight vectors.  For vector
    parameters the percentiles run over the vector entries; for scalars and
    for the weight slots every percentile equals the value itself, so the
    slot values are echoed exactly.
    """
    rows = []
    for payload in snapshots:
        method = payload["method"]
        names = POOLING[method].report if method in POOLING else ()
        for block in payload["blocks"]:

            def row(param, count, percentiles):
                return {
                    "method": method, "seed": payload["seed"], "block": block["block"], "param": param,
                    "count": count, **percentiles,
                }

            for name in names:
                if name not in block["params"]:
                    continue
                values = block["params"][name]
                if name in ENTRY_WEIGHTS:
                    for slot, value in enumerate(values, start=1):
                        rows.append(row(f"{name}[{slot}]", 1, {f"p{p}": float(value) for p in PERCENTILES}))
                else:
                    rows.append(row(name, len(values), percentile_summary(values)))
    return rows


def write_params_report_csv(rows: list[dict], path) -> None:
    fields = ["method", "seed", "block", "param", "count"] + [f"p{p}" for p in PERCENTILES]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(
                [row["method"], row["seed"], row["block"], row["param"], row["count"]]
                + [_fmt(row[f"p{p}"]) for p in PERCENTILES]
            )


def ordinal_drift_check(snapshots: list[dict]) -> dict:
    """Directional check on the trained ordinal weights of the last block.

    Counts the seeds in which the maximum-slot weight is strictly the
    largest of the block nearest the head; verdict PASS needs a strict
    majority analogous to the large-scale finding (>= 3 of 4 seeds, scaled
    as >= 3/4 of the seeds present).  WARN is an expected outcome on toy
    data and does not fail the run.
    """
    per_seed = {}
    for payload in snapshots:
        if payload["method"] != "OP" or payload.get("diverged"):
            continue
        last = max(payload["blocks"], key=lambda b: b["block"])
        weights = np.asarray(last["params"]["ordinal_w"], dtype=np.float64)
        top = float(weights[-1])
        per_seed[payload["seed"]] = bool(top > weights[:-1].max())
    wins = sum(per_seed.values())
    total = len(per_seed)
    verdict = "PASS" if total and wins >= int(np.ceil(0.75 * total)) else "WARN"
    return {"seeds": per_seed, "wins": wins, "total": total, "verdict": verdict}
