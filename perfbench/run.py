"""End-to-end benchmark of the ``reiterate`` CLI, with an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cascade-1d --seed 3 --trace 0
    python3 perfbench/run.py                      # every workload, seed 0
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

Every run measures for BENCHMARK.json's ``run_seconds``, so a parent and a
change always use the same window.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.  Each run
appends its full record (every op, anchors, environment, CPU steal) to
``--results`` and prints one JSON summary as its last line.  Exit
status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
DEFAULT_RESULTS = ROOT / ".perfbench" / "results.jsonl"


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def summary(record: dict, spec: dict) -> dict:
    """The summary line: every metric of the requested kind, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    metrics, missing = {}, []
    for entry in spec[kind]:
        value = record["metrics"].get(entry["name"])
        if value is None or not math.isfinite(value):
            missing.append(entry["name"])
            continue
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": record["failed"] == 0 and not missing,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def describe(record: dict, spec: dict) -> list[str]:
    """Human-readable lines: environment, each op, every metric with its unit."""
    env = record["env"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} "
        f"trace {record['trace']}: {record['attempted']} ops, "
        f"fail_frac {record['fail_frac']:.3g} ({record['failed']}/{record['attempted']})",
        f"  env: nproc {env['nproc']} affinity {env['affinity']} python "
        f"{env['python']} numpy {env['numpy']} scipy {env['scipy']} numba "
        f"{env['numba'] or 'absent'} blas {env['blas']} {env['blas_version']} "
        f"threads {env['blas_threads']} {env['blas_env'] or ''} commit {env['commit']}",
    ]
    for i, op in enumerate(record["ops"]):
        steal = "n/a" if op["steal_s"] is None else f"{op['steal_s']:.2f}"
        lines.append(
            f"  op {i} {'traced ' if op['traced'] else ''}exit {op['exit']} "
            f"wall {op['wall_s']:.3f} s cpu {op['cpu_s']:.3f} s "
            f"rss {op['peak_rss_mb']:.1f} MB steal {steal} s "
            + ("ok" if op["ok"] else f"FAILED: {op['error']}"))
    if record["setup_s"]:
        lines.append("  setup samples: " +
                     " ".join(f"{t:.4f}" for t in record["setup_s"]) + " s")
    kind = "per_layer" if record["trace"] else "end_to_end"
    for entry in spec[kind]:
        value = record["metrics"].get(entry["name"])
        shown = "missing" if value is None else f"{value:.6g}"
        lines.append(f"  {entry['name']:<24} {shown} {entry['unit']}")
    return lines


def overview(summaries: dict, spec: dict) -> list[str]:
    """One row per workload: every end-to-end metric, then fail_frac."""
    entries = spec["end_to_end"]
    rows = [f"{'workload':<11}" + "".join(
        f" {e['name'] + ' (' + e['unit'] + ')':>18}" for e in entries)
        + f" {'fail_frac':>10}"]
    for name, result in summaries.items():
        cells = "".join(
            f" {result['metrics'][e['name']]['value']:>18.6g}"
            if e["name"] in result["metrics"] else f" {'missing':>18}"
            for e in entries)
        rows.append(f"{name:<11}{cells} "
                    f"{result['failed'] / result['attempted']:>10.3g}")
    return rows


def _terminate(signum, frame):
    # unwinds through harness.run, which kills the running op and cleans up
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=0)
    # the calling convention passes the window; it may only restate run_seconds
    parser.add_argument("--seconds", type=float,
                        help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=DEFAULT_RESULTS,
                        help="JSON-lines file each run record is appended to")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"),
                        help="compare two results files instead of running")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC}: {exc}", file=sys.stderr)
        return 2
    if args.compare:
        print("\n".join(compare.table(*args.compare, spec)))
        return 0

    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        print(f"error: --seconds {args.seconds:g} differs from run_seconds "
              f"{seconds} in {SPEC}", file=sys.stderr)
        return 2
    checkout = harness.Checkout(ROOT)
    names = [args.workload] if args.workload else list(workloads.NAMES)
    summaries = {}
    for name in names:
        workload = workloads.build(name, args.seed)
        try:
            record = harness.run(checkout, workload, seed=args.seed,
                                 seconds=seconds, trace=bool(args.trace))
        except harness.BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        args.results.parent.mkdir(parents=True, exist_ok=True)
        with open(args.results, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print("\n".join(describe(record, spec)), flush=True)
        summaries[name] = summary(record, spec)
    if len(names) > 1:
        if not args.trace:
            print("\n".join(overview(summaries, spec)))
        print(json.dumps(summaries))
    else:
        print(json.dumps(summaries[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
