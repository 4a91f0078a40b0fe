"""Parent-versus-change table over two results files written by run.py.

Runs are paired by seed, in the order they were recorded: run each seed
on both commits, alternating which goes first.  For every workload and
end-to-end metric the table gives both medians and quartiles, the share
of pairs the change wins, and a verdict:

- ``unresolved``: a side's quartile spread, as a share of its median,
  exceeds the metric's bound, and not every change run beats every
  parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``better``: the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile spread;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import NAMES


def load(path: Path) -> dict:
    """Untraced run records grouped by workload, in file order."""
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(parent: list, change: list) -> list[tuple[dict, dict]]:
    """Match each parent run with the first unused change run of its seed."""
    unused = list(change)
    out = []
    for run in parent:
        match = next((c for c in unused if c["seed"] == run["seed"]), None)
        if match is not None:
            unused.remove(match)
            out.append((run, match))
    return out


def verdict(base: list[float], new: list[float], matched, lower_better: bool,
            bound: float) -> tuple[str, float]:
    """(verdict, share of pairs won) for one metric on one workload."""
    def better(a, b):
        return a < b if lower_better else a > b

    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    wins = sum(better(n, b) for b, n in matched)
    share = wins / len(matched) if matched else float("nan")
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    if spread > bound:
        if all(better(n, b) for n in new for b in base):
            return "better (every run)", share
        return "unresolved", share
    change = (nmed - bmed) / abs(bmed) if bmed else 0.0
    if (change if lower_better else -change) > bound:
        return "worse", share
    if matched and wins >= 0.9 * len(matched) and better(nmed, bmed) \
            and abs(nmed - bmed) > bq3 - bq1:
        return "better", share
    return "within bound", share


def table(parent_path: Path, change_path: Path, spec: dict) -> list[str]:
    parent, change = load(parent_path), load(change_path)
    lines = [f"parent {parent_path}  vs  change {change_path}",
             f"{'workload':<11} {'metric':<12} {'parent med [q1, q3]':<32} "
             f"{'change med [q1, q3]':<32} {'wins':>9}  verdict"]
    for name in [n for n in NAMES if n in parent or n in change]:
        base_runs, new_runs = parent.get(name, []), change.get(name, [])
        matched = pairs(base_runs, new_runs)
        for entry in spec["end_to_end"]:
            key = entry["name"]
            base = [r["metrics"][key] for r in base_runs]
            new = [r["metrics"][key] for r in new_runs]
            if not base or not new:
                lines.append(f"{name:<11} {key:<12} runs missing on one side")
                continue
            result, share = verdict(
                base, new, [(b["metrics"][key], n["metrics"][key]) for b, n in matched],
                entry["better"] == "lower", entry["bound"])
            cells = ["%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])
                     for q in (quartiles(base), quartiles(new))]
            won = f"{share:.0%} of {len(matched)}" if matched else "no pairs"
            lines.append(f"{name:<11} {key:<12} {cells[0]:<32} {cells[1]:<32} "
                         f"{won:>9}  {result} (bound {entry['bound']:g})")
        failed = [sum(r["failed"] for r in runs) for runs in (base_runs, new_runs)]
        tried = [sum(r["attempted"] for r in runs) for runs in (base_runs, new_runs)]
        cells = [f"{f}/{t} ops failed" for f, t in zip(failed, tried)]
        lines.append(f"{name:<11} {'fail_frac':<12} {cells[0]:<32} {cells[1]}")
    return lines
