"""Smoke test of the harness on reduced sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs real CLI ops (a 32-node 1D cascade) through the same code path as
the benchmark, plus one op that is known to crash: ``certify`` whose
first ladder grid is 128^2 (NOTES.md, defect 1).  That op must be
counted in ``fail_frac`` without stopping the run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CHECKOUT = harness.Checkout(HERE.parent)


def small_cascade() -> workloads.Workload:
    full = workloads.build("cascade-1d", 0)
    return replace(full, config=full.config.replace("cell.resolution = 256",
                                                    "cell.resolution = 32"))


def crashing_certify() -> workloads.Workload:
    full = workloads.build("certify-2d", 0)
    return replace(full, name="certify-128",
                   config=full.config.replace("eps = 1/16", "eps = 1/8"))


def _assert_every_metric(result: dict, kind: str) -> None:
    assert set(result["metrics"]) == {e["name"] for e in SPEC[kind]}
    for entry in SPEC[kind]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_end_to_end_metrics_and_anchors():
    record = harness.run(CHECKOUT, small_cascade(), seed=0, seconds=0.0,
                         trace=False)
    assert record["attempted"] == 1 and record["failed"] == 0
    op = record["ops"][0]
    assert op["ok"] and op["anchors"]
    assert op["anchors"][0]["value"] == 3.0
    assert len(record["setup_s"]) == harness.SETUP_REPEATS
    result = run.summary(record, SPEC)
    assert result["correct"]
    _assert_every_metric(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_failing_op_is_counted_not_fatal():
    record = harness.run(CHECKOUT, crashing_certify(), seed=0, seconds=0.0,
                         trace=False)
    assert record["attempted"] == 1 and record["failed"] == 1
    assert record["fail_frac"] == 1.0
    assert record["ops"][0]["error"].startswith("exit 1")
    result = run.summary(record, SPEC)
    assert not result["correct"] and result["failed"] == 1
    _assert_every_metric(result, "end_to_end")


def test_traced_run_reports_every_layer():
    record = harness.run(CHECKOUT, small_cascade(), seed=0, seconds=0.0,
                         trace=True)
    assert [op["traced"] for op in record["ops"]] == [False, True]
    result = run.summary(record, SPEC)
    assert result["correct"]
    _assert_every_metric(result, "per_layer")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # 32 frozen slow samples plus the final constant level
    assert values["cascade.samples"] == values["cell.solves"] == 33
    assert values["cache.stores"] == values["cache.lookups"] == 33
    assert values["kernels.matvec_calls"] == values["grid.pcg_iterations"]


def test_compare_verdicts(tmp_path):
    def write(name, walls):
        path = tmp_path / name
        with open(path, "w") as fh:
            for seed, wall in enumerate(walls):
                metrics = {e["name"]: 1.0 for e in SPEC["end_to_end"]}
                metrics["wall_s"] = wall
                fh.write(json.dumps({"workload": "rate-1d", "seed": seed,
                                     "trace": 0, "metrics": metrics,
                                     "attempted": 3, "failed": 0}) + "\n")
        return path

    parent = write("parent.jsonl", [1.00, 1.01, 0.99, 1.00, 1.02] * 2)
    faster = write("faster.jsonl", [0.50, 0.51, 0.49, 0.50, 0.52] * 2)
    noisy = write("noisy.jsonl", [0.5, 1.5, 0.6, 1.4, 1.0] * 2)
    bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "wall_s")
    rows = {tuple(line.split()[:2]): line
            for line in compare.table(parent, faster, SPEC)[2:]}
    assert rows[("rate-1d", "wall_s")].endswith(f"better (bound {bound:g})")
    assert "100% of 10" in rows[("rate-1d", "wall_s")]
    assert "within bound" in rows[("rate-1d", "cpu_s")]
    rows = {tuple(line.split()[:2]): line
            for line in compare.table(parent, noisy, SPEC)[2:]}
    assert "unresolved" in rows[("rate-1d", "wall_s")]
