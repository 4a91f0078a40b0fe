"""The four fixed CLI workloads, their seeded configs and their anchors.

A workload is one ``reiterate <subcommand>`` run on a generated config.
The seed only moves inputs that leave every anchor where it is: phase
shifts of the laminate factors (multiples of 1/256, so the 256-node 1D
cells see cyclic shifts of the seed-0 coefficient) and the integer wave
vector of the slow modulation in ``cascade-2d``.  Seed 0 gives the
configs exactly as written in NOTES.md.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("cascade-1d", "rate-1d", "certify-2d", "cascade-2d")

# calibration ratio of the 1/16 candidate on the homogenized certify-2d
# solves; it does not depend on the laminate phase
CERTIFY_RATIO = 0.50028950392703
RATE_HITS = 257


@dataclass(frozen=True)
class Workload:
    """One CLI subcommand on one config; ``anchors`` reads the op's output dir."""

    name: str
    subcommand: str
    config: str
    anchors: Callable[[Path], list]
    warm_cache: bool = False  # ops read a cache filled by one untimed op


def _phase(rng: random.Random | None) -> str:
    if rng is None:
        return ""
    return f"+{rng.randrange(256) / 256!r}"


def _laminate(rng, *slots: str) -> str:
    factors = [f"2+sin(2*pi*({y}{_phase(rng)}))" if rng else f"2+sin(2*pi*{y})"
               for y in slots]
    return f"laminate1d({', '.join(factors)})"


def _check(name: str, ok: bool, value) -> dict:
    return {"name": name, "ok": bool(ok), "value": value}


def _read_json(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cascade_1d_anchors(out: Path) -> list:
    tensor = _read_json(out / "cascade.json")["effective_tensor"]
    value = tensor[0][0]
    return [_check("A_hat == 3 +- 1e-4", abs(value - 3.0) <= 1e-4, value)]


def rate_1d_anchors(out: Path) -> list:
    with open(out / "rate.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    manifest = _read_json(out / "manifest-rate.json")
    exponent = manifest["results"]["exponent"]
    cache = manifest["timing"]["cache"]
    return [
        _check("rate.csv has 5 rows", len(rows) == 5, len(rows)),
        _check("exponent in [0.8, 1.2]", 0.8 <= exponent <= 1.2, exponent),
        _check(f"cache {RATE_HITS} hits, 0 misses",
               cache["hits"] == RATE_HITS and cache["misses"] == 0,
               [cache["hits"], cache["misses"]]),
    ]


def certify_2d_anchors(out: Path) -> list:
    results = _read_json(out / "manifest-certify.json")["results"]
    ratio = results["calibration_ratios"].get("0.0625")
    certs = results["certificates"]
    ratio_ok = ratio is not None and \
        abs(ratio - CERTIFY_RATIO) <= 1e-6 * CERTIFY_RATIO
    certs_ok = bool(certs) and all(math.isfinite(c) and 0.0 < c <= 2.0
                                   for c in certs)
    return [
        _check(f"calibration ratio at 1/16 == {CERTIFY_RATIO} rel 1e-6",
               ratio_ok, ratio),
        _check("certificates finite in (0, 2]", certs_ok, certs),
    ]


def cascade_2d_anchors(out: Path) -> list:
    level = _read_json(out / "cascade.json")["levels"][0]
    lo, hi = level["spectrum"]
    ratio = hi / lo
    return [
        _check("1089 samples", level["samples"] == 1089, level["samples"]),
        _check("spectrum ratio == 5/3 +- 1e-9", abs(ratio - 5 / 3) <= 1e-9, ratio),
    ]


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with inputs drawn from ``seed``."""
    rng = random.Random(f"{name}:{seed}") if seed else None
    if name == "cascade-1d":
        return Workload(name, "cascade", "\n".join((
            f"field = {_laminate(rng, 'y1', 'y2')}",
            "dim = 1",
            "eps = 1/4",
            "cell.resolution = 256",
        )) + "\n", cascade_1d_anchors)
    if name == "rate-1d":
        # cell.resolution stays unset: rate ignores it today
        return Workload(name, "rate", "\n".join((
            f"field = {_laminate(rng, 'y1', 'y2')}",
            "dim = 1",
            "eps = 1/4, 1/8, 1/16, 1/32, 1/64",
            "bvp.rhs = 1",
            "bvp.boundary = x1",
        )) + "\n", rate_1d_anchors, warm_cache=True)
    if name == "certify-2d":
        # eps = 1/16 is the coarsest sweep entry certify survives (NOTES.md)
        return Workload(name, "certify", "\n".join((
            f"field = {_laminate(rng, 'y1')}",
            "dim = 2",
            "eps = 1/16",
            "bvp.rhs = 1",
            "bvp.boundary = sin(pi*x1)",
        )) + "\n", certify_2d_anchors)
    if name == "cascade-2d":
        k1, k2 = (rng.choice((1, 2)), rng.choice((1, 2))) if rng else (1, 1)
        return Workload(name, "cascade", "\n".join((
            "field = slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, "
            f"k1={k1}, k2={k2})",
            "dim = 2",
            "eps = 1/8",
            "cell.resolution = 8",
        )) + "\n", cascade_2d_anchors)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
