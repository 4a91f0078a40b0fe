"""Key-value experiment configuration with strict schema validation.

Grammar: one ``key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Numbers accept integers, decimals, fractions
like 3/4, and dyadic powers like 2^-5.  Lists are comma separated.  The
bvp.* values are arithmetic expressions in x1..xd.

``SCHEMA`` holds one row per key: its expected form, parser, check on the
parsed value and dim, and default; one loop parses and checks them all.
``parse_config`` then applies the rules that read several keys: dim and
field are required; exactly one of ``eps`` and ``scales`` is given, and the
ladders are the explicit scales or eps^lambda_k for every eps, ``lambdas``
defaulting to 1, 2, ... per fast slot; a ladder has one scale per fast slot;
``resolution`` and ``cells_per_scale`` exclude each other; 1D rejects the
solver tolerances; bvp.* compile in x1..xd; probe.center lies inside the
domain; and every grid resolves its finest scale within MEMORY_LIMIT_BYTES.
Every violation is collected and reported together, naming its key.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

import numpy as np

from .cascade import CascadeResult, homogenize_all
from .coeff import CoefficientField, CoefficientSpec, ScaleLadder, builtin_family, hex_digest
from .dirichlet import BVP, cells_per_axis, require_resolved
from .errors import ConfigError, ResolutionError
from .expr import compile_expression
from .grid import Grid
from .probes import T_CANDIDATES

MEMORY_LIMIT_BYTES = 8 << 30
# node-sized float arrays budgeted per grid: the peak of one box solve
# (tracemalloc: 10.1 arrays on a rotated laminate and 9.1 on a diagonal
# field at 256^2, 5.1 on a 1D laminate of 65,536 cells; coefficients are
# tabulated in slabs) rounded up, plus the solution and rhs the CLI
# keeps beside it (boundary data lives on the boundary nodes only), and
# spares; kept at 18 as the peak fell, so the grids it accepts stay the same
ARRAYS_PER_NODE = 18
_DYADIC = re.compile(r"^2\^(-?\d+)$")
_FRACTION = re.compile(r"^(-?\d+(?:\.\d+)?)\s*/\s*(\d+(?:\.\d+)?)$")


def parse_number(text: str) -> float:
    """Scalar literal: plain number, fraction a/b, or dyadic 2^k."""
    text = text.strip()
    m = _DYADIC.match(text)
    if m:
        return 2.0 ** int(m.group(1))
    m = _FRACTION.match(text)
    if m:
        return float(m.group(1)) / float(m.group(2))
    return float(text)


def parse_number_list(text: str) -> tuple[float, ...]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty list")
    return tuple(parse_number(p) for p in parts)


def parse_int(text: str) -> int:
    value = parse_number(text)
    if value != int(value):
        raise ValueError(f"{text.strip()!r} is not an integer")
    return int(value)


# key -> (expected form, parser, check on (value, dim) or None, default).
# dim comes first, so the checks after it can read it.
SCHEMA = {
    "dim": ("1 or 2", parse_int, lambda v, d: v in (1, 2), None),
    "field": ("coefficient family, e.g. laminate1d(2+sin(2*pi*y1))", str, None, ""),
    "eps": ("comma list of distinct scale parameters in (0, 1)", parse_number_list,
            lambda v, d: all(0.0 < e < 1.0 for e in v) and len(set(v)) == len(v), None),
    "lambdas": ("comma list of increasing exponents, one per fast slot",
                parse_number_list,
                lambda v, d: v[0] > 0 and all(a < b for a, b in zip(v, v[1:])), None),
    "scales": ("comma list, strictly decreasing in (0, 1)", parse_number_list,
               None, None),
    "separation_n": ("integer >= 1", parse_int, lambda v, d: v >= 1, None),
    "domain": ("two finite numbers lo, hi with lo < hi", parse_number_list,
               lambda v, d: len(v) == 2 and v[0] < v[1] and np.isfinite(v).all(),
               (0.0, 1.0)),
    "resolution": ("cells per axis, integer >= 2", parse_int, lambda v, d: v >= 2, None),
    "cells_per_scale": ("integer >= 8, so the spacing is at most an eighth of "
                        "the finest scale", parse_int, lambda v, d: v >= 8, 16),
    "cell.resolution": ("cells per axis for cell problems, integer >= 8",
                        parse_int, lambda v, d: v >= 8, None),
    "cell.tol": ("solver tolerance in (0, 1e-4], dim = 2 only", parse_number,
                 lambda v, d: 0.0 < v <= 1e-4, 1e-11),
    "bvp.rhs": ("expression in x1..xd", str, None, "1"),
    "bvp.boundary": ("expression in x1..xd", str, None, "0"),
    "probe.p": ("integrability exponent > dim", parse_number,
                lambda v, d: d is None or v > d, None),
    "probe.theta": ("number in (0, 1]", parse_number, lambda v, d: 0.0 < v <= 1.0,
                    1.0),
    "probe.center": ("dim numbers inside the domain", parse_number_list,
                     lambda v, d: d is None or len(v) == d, None),
    "probe.radius": ("finite number > 0", parse_number, lambda v, d: 0 < v < np.inf,
                     None),
    "probe.rho": ("number > 0", parse_number, lambda v, d: v > 0, 0.5),
    "probe.t": ("one of 1/16, 1/32, 1/64", parse_number,
                lambda v, d: any(abs(v - c) < 1e-12 for c in T_CANDIDATES), None),
    "tol.solver": ("solver tolerance in (0, 1e-4], dim = 2 only", parse_number,
                   lambda v, d: 0.0 < v <= 1e-4, 1e-10),
    "out": ("output directory path", str, None, "runs"),
    "cache": ("cache directory path", str, None, None),
}


class ExperimentConfig(NamedTuple):
    field_source: str
    field: CoefficientField
    d: int
    eps_values: tuple[float, ...]
    ladders: tuple[ScaleLadder, ...]  # one per eps, or the explicit scales
    domain: tuple[float, float]
    resolution: int | None
    cells_per_scale: int
    cell_resolution: int | None
    cell_tol: float
    rhs_source: str
    boundary_source: str
    # probe.* values keyed without the prefix: p (None: d + 1 at use
    # sites), theta, center (None: the domain midpoint), radius (None: a
    # quarter of the domain width), rho, t (None: calibrated)
    probe: dict
    solver_tol: float
    out: str
    cache_dir: str | None
    items: tuple[tuple[str, str], ...]  # normalized pairs, hashed for the manifest

    def homogenize(self, cache=None) -> CascadeResult:
        """The one cascade every subcommand reads its effective tensor from."""
        return homogenize_all(self.field, self.ladders[0],
                              resolution=self.cell_resolution, tol=self.cell_tol,
                              cache=cache, domain=self.domain)

    def resolution_for(self, ladder: ScaleLadder) -> int:
        lo, hi = self.domain
        return self.resolution or cells_per_axis(hi - lo, self.cells_per_scale,
                                                 ladder.finest)

    def grid_for(self, ladder: ScaleLadder) -> Grid:
        lo, hi = self.domain
        return Grid.box((lo,) * self.d, (hi,) * self.d, self.resolution_for(ladder))

    def pointwise(self, source: str):
        """Compile an expression in x1..xd: its number when it reads no
        coordinate, else a function of node points."""
        names = [f"x{i + 1}" for i in range(self.d)]
        fn = compile_expression(source, names)
        if not fn.reads:
            return float(fn())
        return lambda pts: fn(**{names[i]: pts[..., i] for i in range(self.d)})

    def bvp_for(self, grid: Grid) -> BVP:
        return BVP.on(grid, rhs=self.pointwise(self.rhs_source),
                      boundary=self.pointwise(self.boundary_source))

    def probe_center(self) -> tuple:
        if self.probe["center"] is not None:
            return self.probe["center"]
        mid = 0.5 * (self.domain[0] + self.domain[1])
        return (mid,) * self.d

    def probe_radius(self) -> float:
        if self.probe["radius"] is not None:
            return self.probe["radius"]
        return 0.25 * (self.domain[1] - self.domain[0])

    def digest(self) -> str:
        payload = "\n".join(f"{k} = {v}" for k, v in self.items)
        return hex_digest(payload, 16)

    def with_overrides(self, out=None) -> "ExperimentConfig":
        return self if out is None else self._replace(out=str(out))

    def resolved_cache_dir(self) -> str:
        # the environment overrides the config file; a --cache flag beats both
        return os.environ.get("REITERATE_CACHE") or self.cache_dir \
            or ".reiterate-cache"


def _read_pairs(path: str, errors: list[str]) -> dict[str, str]:
    pairs: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                errors.append(f"line {lineno}: {line!r} is not a 'key = value' "
                              "assignment")
                continue
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in SCHEMA:
                errors.append(f"key {key!r}: unknown (known keys: "
                              f"{', '.join(sorted(SCHEMA))})")
                continue
            if key in pairs:
                errors.append(f"key {key!r}: assigned twice (line {lineno})")
                continue
            pairs[key] = value
    return pairs


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    errors: list[str] = []
    try:
        pairs = _read_pairs(path, errors)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None

    values = {}
    for key, (form, parse, check, default) in SCHEMA.items():
        values[key] = default
        try:
            if key in pairs:
                value = parse(pairs[key])
                if check is not None and not check(value, values["dim"]):
                    raise ValueError(value)
                values[key] = value
        except (ValueError, OverflowError):  # int() of an infinity overflows
            errors.append(f"key {key!r}: got {pairs[key]}; expected {form}")
    d = values["dim"]

    for key in ("dim", "field"):
        if key not in pairs:
            errors.append(f"key {key!r}: required; expected {SCHEMA[key][0]}")
    field = None
    if "field" in pairs and d is not None:
        try:
            field = builtin_family(CoefficientSpec.parse(values["field"]), d,
                                   domain=values["domain"])
        except (ValueError, ConfigError) as exc:
            errors.append(f"key 'field': {exc}; expected {SCHEMA['field'][0]}")

    eps_values, lambdas, explicit = values["eps"], values["lambdas"], values["scales"]
    if "eps" in pairs and "scales" in pairs:
        errors.append("key 'scales': conflicts with 'eps'; give explicit scales "
                      "or a sweep, not both")
        explicit = None
    elif "eps" not in pairs and "scales" not in pairs:
        errors.append("key 'eps': required unless 'scales' is given; expected "
                      f"{SCHEMA['eps'][0]}")
    if "lambdas" in pairs and explicit is not None:
        errors.append("key 'lambdas': meaningless with explicit 'scales'")
    elif "lambdas" not in pairs:
        n_slots = field.n_scales if field is not None else 1
        lambdas = tuple(float(k) for k in range(1, max(n_slots, 1) + 1))

    N = values["separation_n"]
    ladders: tuple[ScaleLadder, ...] = ()
    try:
        if explicit is not None:
            ladders = (ScaleLadder(explicit, N=N),)
        elif eps_values is not None and lambdas is not None:
            ladders = tuple(ScaleLadder.power(e, lambdas, N=N) for e in eps_values)
    except ValueError as exc:
        errors.append(f"key 'scales': {exc}" if explicit is not None
                      else f"key 'eps': ladder eps^lambda_k invalid: {exc}")
    if ladders and field is not None and 0 < field.n_scales != ladders[0].n:
        # the key that built the ladder; eps alone gets one rung per slot
        key = "scales" if explicit is not None else "lambdas"
        errors.append(f"key {key!r}: ladder has {ladders[0].n} scales but the "
                      f"field has {field.n_scales} fast slots")
        ladders = ()

    if "resolution" in pairs and "cells_per_scale" in pairs:
        errors.append("key 'cells_per_scale': conflicts with 'resolution'; give "
                      "resolution or cells_per_scale, not both")
    for key, problem in (("cell.tol", "cell"), ("tol.solver", "box")):
        if d == 1 and key in pairs:
            errors.append(f"key {key!r}: 1D {problem} problems are solved exactly, "
                          "so a tolerance changes nothing; remove the key")
    if d is not None:
        names = [f"x{i + 1}" for i in range(d)]
        for key in ("bvp.rhs", "bvp.boundary"):
            try:
                compile_expression(values[key], names)
            except ConfigError as exc:
                errors.append(f"key {key!r}: {exc}; expected {SCHEMA[key][0]}")
    lo, hi = domain = values["domain"]
    center = values["probe.center"]
    if center is not None and any(not lo < c < hi for c in center):
        errors.append(f"key 'probe.center': got {pairs['probe.center']}; "
                      f"expected {SCHEMA['probe.center'][0]}")

    cfg = ExperimentConfig(
        field_source=values["field"], field=field, d=d,
        eps_values=eps_values or (), ladders=ladders, domain=domain,
        resolution=values["resolution"], cells_per_scale=values["cells_per_scale"],
        cell_resolution=values["cell.resolution"], cell_tol=values["cell.tol"],
        rhs_source=values["bvp.rhs"], boundary_source=values["bvp.boundary"],
        probe={key[len("probe."):]: value for key, value in values.items()
               if key.startswith("probe.")},
        solver_tol=values["tol.solver"], out=values["out"],
        cache_dir=values["cache"], items=tuple(sorted(pairs.items())))

    # feasibility of the grids the solves will use, blamed on the key that
    # sized them: resolution, else cells_per_scale, else the ladder's key
    sizer = next((key for key in ("resolution", "cells_per_scale") if key in pairs),
                 "scales" if explicit is not None else "eps")
    for ladder in ladders if d is not None else ():
        grid = cfg.grid_for(ladder)
        try:
            require_resolved(grid, ladder)
        except ResolutionError as exc:
            errors.append(f"key {sizer!r}: {exc}")
            continue
        memory = ARRAYS_PER_NODE * 8 * (grid.shape[0] + 1) ** d
        if memory > MEMORY_LIMIT_BYTES:
            errors.append(
                f"key {sizer!r}: {grid.shape[0]} cells per axis in dimension {d} "
                f"needs about {memory / 2**30:.1f} GiB, over the "
                f"{MEMORY_LIMIT_BYTES / 2**30:.0f} GiB limit")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return cfg
