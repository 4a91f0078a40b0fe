"""Key-value experiment configuration with strict schema validation.

Grammar: one ``key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Numbers accept integers, decimals, fractions
like 3/4, and dyadic powers like 2^-5.  Lists are comma separated.  The
bvp.* values are arithmetic expressions in x1..xd.

The ladder law is one of two shapes: ``scales = s1, s2, ...`` fixes every
scale explicitly for a single run, or ``eps = e1, e2, ...`` sweeps the
power ladder eps^lambda_k with exponents from ``lambdas``.  Validation
collects every violation before reporting, each naming the offending key
and the expected form, and checks per-run grid feasibility: spacing at
most an eighth of the finest scale, and a memory estimate under
MEMORY_LIMIT_BYTES.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .cascade import CascadeResult, homogenize_all
from .coeff import CoefficientField, CoefficientSpec, ScaleLadder, builtin_family
from .dirichlet import BVP, cells_per_axis, require_resolved
from .errors import ConfigError, ResolutionError
from .expr import compile_expression
from .grid import Grid
from .probes import T_CANDIDATES

MEMORY_LIMIT_BYTES = 8 << 30
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


@dataclass(frozen=True)
class ProbeParams:
    p: float | None = None  # defaults to d + 1 at use sites
    theta: float = 1.0
    center: tuple | None = None  # defaults to the domain midpoint
    radius: float | None = None  # defaults to a quarter of the domain width
    rho: float = 0.5
    t: float | None = None  # calibrated when absent


# key -> (expected form, default shown in --help and error messages)
KNOWN_KEYS = {
    "field": "coefficient family, e.g. laminate1d(2+sin(2*pi*y1))",
    "dim": "1 or 2",
    "eps": "comma list of scale parameters in (0, 1)",
    "lambdas": "comma list of increasing exponents, one per fast slot",
    "scales": "comma list, strictly decreasing in (0, 1)",
    "separation_n": "integer >= 1",
    "domain": "two numbers lo, hi with lo < hi",
    "resolution": "cells per axis, integer >= 2",
    "cells_per_scale": "integer >= 8",
    "cell.resolution": "cells per axis for cell problems, integer >= 8",
    "cell.tol": "solver tolerance in (0, 1e-4], dim = 2 only",
    "bvp.rhs": "expression in x1..xd",
    "bvp.boundary": "expression in x1..xd",
    "probe.p": "integrability exponent > dim",
    "probe.theta": "number in (0, 1]",
    "probe.center": "dim numbers inside the domain",
    "probe.radius": "number > 0",
    "probe.rho": "number > 0",
    "probe.t": "one of 1/16, 1/32, 1/64",
    "tol.solver": "solver tolerance in (0, 1e-4], dim = 2 only",
    "out": "output directory path",
    "cache": "cache directory path",
}


def _ladders(explicit, eps_values, lambdas, N) -> list[ScaleLadder]:
    """The ladder law: the explicit scales as one ladder, else eps^lambda_k
    for every eps of the sweep."""
    if explicit is not None:
        return [ScaleLadder(explicit, N=N)]
    return [ScaleLadder.power(e, lambdas, N=N) for e in eps_values]


@dataclass(frozen=True)
class ExperimentConfig:
    field_source: str
    field: CoefficientField
    d: int
    eps_values: tuple[float, ...]
    lambdas: tuple[float, ...] | None
    explicit_scales: tuple[float, ...] | None
    separation_n: int | None
    domain: tuple[float, float]
    resolution: int | None
    cells_per_scale: int
    cell_resolution: int | None
    cell_tol: float
    rhs_source: str
    boundary_source: str
    probe: ProbeParams
    solver_tol: float
    out: str
    cache_dir: str | None
    items: tuple[tuple[str, str], ...]  # normalized pairs, hashed for the manifest

    def ladders(self) -> list[ScaleLadder]:
        return _ladders(self.explicit_scales, self.eps_values, self.lambdas,
                        self.separation_n)

    def homogenize(self, cache=None) -> CascadeResult:
        """The one cascade every subcommand reads its effective tensor from."""
        return homogenize_all(self.field, self.ladders()[0],
                              resolution=self.cell_resolution, tol=self.cell_tol,
                              cache=cache)

    def resolution_for(self, ladder: ScaleLadder) -> int:
        lo, hi = self.domain
        return self.resolution or cells_per_axis(hi - lo, self.cells_per_scale,
                                                 ladder.finest)

    def grid_for(self, ladder: ScaleLadder) -> Grid:
        lo, hi = self.domain
        return Grid.box((lo,) * self.d, (hi,) * self.d, self.resolution_for(ladder))

    def pointwise(self, source: str):
        """Compile an expression in x1..xd into a function of node points."""
        names = [f"x{i + 1}" for i in range(self.d)]
        fn = compile_expression(source, names)

        def pointwise(pts):
            # constant expressions come back 0-d; broadcast to the nodes
            out = fn(**{names[i]: pts[..., i] for i in range(self.d)})
            return np.broadcast_to(out, pts.shape[:-1]).copy()

        return pointwise

    def bvp_for(self, grid: Grid) -> BVP:
        return BVP.on(grid, rhs=self.pointwise(self.rhs_source),
                      boundary=self.pointwise(self.boundary_source))

    def probe_center(self) -> tuple:
        if self.probe.center is not None:
            return self.probe.center
        mid = 0.5 * (self.domain[0] + self.domain[1])
        return (mid,) * self.d

    def probe_radius(self) -> float:
        if self.probe.radius is not None:
            return self.probe.radius
        return 0.25 * (self.domain[1] - self.domain[0])

    def digest(self) -> str:
        payload = "\n".join(f"{k} = {v}" for k, v in self.items)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def with_overrides(self, out=None) -> "ExperimentConfig":
        return self if out is None else replace(self, out=str(out))

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
            if key not in KNOWN_KEYS:
                errors.append(f"key {key!r}: unknown (known keys: "
                              f"{', '.join(sorted(KNOWN_KEYS))})")
                continue
            if key in pairs:
                errors.append(f"key {key!r}: assigned twice (line {lineno})")
                continue
            pairs[key] = value
    return pairs


def _take(pairs, key, parser, errors, default=None):
    if key not in pairs:
        return default
    try:
        return parser(pairs[key])
    except (ValueError, ConfigError) as exc:
        errors.append(f"key {key!r}: {exc}; expected {KNOWN_KEYS[key]}")
        return default


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError listing every violation."""
    errors: list[str] = []
    try:
        pairs = _read_pairs(path, errors)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None

    d = _take(pairs, "dim", parse_int, errors)
    if "dim" not in pairs:
        errors.append(f"key 'dim': required; expected {KNOWN_KEYS['dim']}")
    elif d is not None and d not in (1, 2):
        errors.append(f"key 'dim': got {d}; expected {KNOWN_KEYS['dim']}")
        d = None

    field = None
    field_source = pairs.get("field", "")
    if "field" not in pairs:
        errors.append(f"key 'field': required; expected {KNOWN_KEYS['field']}")
    elif d is not None:
        try:
            field = builtin_family(CoefficientSpec.parse(field_source), d)
        except (ValueError, ConfigError) as exc:
            errors.append(f"key 'field': {exc}; expected {KNOWN_KEYS['field']}")

    eps_values = _take(pairs, "eps", parse_number_list, errors)
    lambdas = _take(pairs, "lambdas", parse_number_list, errors)
    explicit = _take(pairs, "scales", parse_number_list, errors)
    separation_n = _take(pairs, "separation_n", parse_int, errors)
    if separation_n is not None and separation_n < 1:
        errors.append(f"key 'separation_n': got {separation_n}; expected "
                      f"{KNOWN_KEYS['separation_n']}")
        separation_n = None

    if eps_values is not None and explicit is not None:
        errors.append("key 'scales': conflicts with 'eps'; give explicit scales "
                      "or a sweep, not both")
        explicit = None
    if eps_values is None and explicit is None and "eps" not in pairs \
            and "scales" not in pairs:
        errors.append("key 'eps': required unless 'scales' is given; expected "
                      f"{KNOWN_KEYS['eps']}")
    if eps_values is not None:
        bad = [e for e in eps_values if not 0.0 < e < 1.0]
        if bad:
            errors.append(f"key 'eps': values {bad} outside (0, 1); expected "
                          f"{KNOWN_KEYS['eps']}")
            eps_values = None
    if lambdas is not None:
        if explicit is not None:
            errors.append("key 'lambdas': meaningless with explicit 'scales'")
        elif list(lambdas) != sorted(lambdas) or lambdas[0] <= 0:
            errors.append(f"key 'lambdas': got {list(lambdas)}; expected "
                          f"{KNOWN_KEYS['lambdas']}")
            lambdas = None
    if eps_values is not None and lambdas is None and "lambdas" not in pairs:
        n_slots = field.n_scales if field is not None else 1
        lambdas = tuple(float(k) for k in range(1, max(n_slots, 1) + 1))

    ladders: list[ScaleLadder] = []
    if explicit is not None or (eps_values is not None and lambdas is not None):
        try:
            ladders = _ladders(explicit, eps_values, lambdas, separation_n)
        except ValueError as exc:
            if explicit is not None:
                errors.append(f"key 'scales': {exc}")
                explicit = None
            else:
                errors.append(f"key 'eps': ladder eps^lambda_k invalid: {exc}")
    if field is not None and field.n_scales > 0 and ladders:
        if ladders[0].n != field.n_scales:
            errors.append(f"key 'lambdas': ladder has {ladders[0].n} scales but "
                          f"the field has {field.n_scales} fast slots")
            ladders = []

    domain = _take(pairs, "domain", parse_number_list, errors, default=(0.0, 1.0))
    if domain is not None and (len(domain) != 2 or domain[0] >= domain[1]):
        errors.append(f"key 'domain': got {list(domain)}; expected "
                      f"{KNOWN_KEYS['domain']}")
        domain = (0.0, 1.0)

    resolution = _take(pairs, "resolution", parse_int, errors)
    if resolution is not None and resolution < 2:
        errors.append(f"key 'resolution': got {resolution}; expected "
                      f"{KNOWN_KEYS['resolution']}")
        resolution = None
    cells_per_scale = _take(pairs, "cells_per_scale", parse_int, errors, default=16)
    if cells_per_scale is not None and cells_per_scale < 8:
        errors.append(f"key 'cells_per_scale': got {cells_per_scale}; spacing "
                      "must not exceed an eighth of the finest scale; expected "
                      f"{KNOWN_KEYS['cells_per_scale']}")
        cells_per_scale = 16
    cell_resolution = _take(pairs, "cell.resolution", parse_int, errors)
    if cell_resolution is not None and cell_resolution < 8:
        errors.append(f"key 'cell.resolution': got {cell_resolution}; expected "
                      f"{KNOWN_KEYS['cell.resolution']}")
        cell_resolution = None
    cell_tol = _take(pairs, "cell.tol", parse_number, errors, default=1e-11)
    solver_tol = _take(pairs, "tol.solver", parse_number, errors, default=1e-10)
    for key, value in (("cell.tol", cell_tol), ("tol.solver", solver_tol)):
        if value is not None and not 0.0 < value <= 1e-4:
            errors.append(f"key {key!r}: got {value:g}; expected "
                          f"{KNOWN_KEYS[key]}")
    for key, problem in (("cell.tol", "cell"), ("tol.solver", "box")):
        if d == 1 and key in pairs:
            errors.append(f"key {key!r}: 1D {problem} problems are solved exactly, "
                          "so a tolerance changes nothing; remove the key")

    rhs_source = pairs.get("bvp.rhs", "1")
    boundary_source = pairs.get("bvp.boundary", "0")
    if d is not None:
        names = [f"x{i + 1}" for i in range(d)]
        for key, src in (("bvp.rhs", rhs_source), ("bvp.boundary", boundary_source)):
            try:
                compile_expression(src, names)
            except ConfigError as exc:
                errors.append(f"key {key!r}: {exc}; expected {KNOWN_KEYS[key]}")

    probe_p = _take(pairs, "probe.p", parse_number, errors)
    if probe_p is not None and d is not None and probe_p <= d:
        errors.append(f"key 'probe.p': got {probe_p:g}; expected "
                      f"{KNOWN_KEYS['probe.p']}")
        probe_p = None
    theta = _take(pairs, "probe.theta", parse_number, errors, default=1.0)
    if theta is not None and not 0.0 < theta <= 1.0:
        errors.append(f"key 'probe.theta': got {theta:g}; expected "
                      f"{KNOWN_KEYS['probe.theta']}")
    center = _take(pairs, "probe.center", parse_number_list, errors)
    if center is not None and d is not None:
        if len(center) != d or any(not domain[0] < c < domain[1] for c in center):
            errors.append(f"key 'probe.center': got {list(center)}; expected "
                          f"{KNOWN_KEYS['probe.center']}")
            center = None
    radius = _take(pairs, "probe.radius", parse_number, errors)
    if radius is not None and radius <= 0:
        errors.append(f"key 'probe.radius': got {radius:g}; expected "
                      f"{KNOWN_KEYS['probe.radius']}")
        radius = None
    rho = _take(pairs, "probe.rho", parse_number, errors, default=0.5)
    if rho is not None and rho <= 0:
        errors.append(f"key 'probe.rho': got {rho:g}; expected "
                      f"{KNOWN_KEYS['probe.rho']}")
        rho = 0.5
    t_shrink = _take(pairs, "probe.t", parse_number, errors)
    if t_shrink is not None and not any(abs(t_shrink - c) < 1e-12
                                        for c in T_CANDIDATES):
        errors.append(f"key 'probe.t': got {t_shrink:g}; expected "
                      f"{KNOWN_KEYS['probe.t']}")
        t_shrink = None

    cfg = ExperimentConfig(
        field_source=field_source, field=field, d=d,
        eps_values=tuple(eps_values) if eps_values is not None else (),
        lambdas=tuple(lambdas) if lambdas is not None else None,
        explicit_scales=tuple(explicit) if explicit is not None else None,
        separation_n=separation_n, domain=(float(domain[0]), float(domain[1])),
        resolution=resolution, cells_per_scale=cells_per_scale,
        cell_resolution=cell_resolution, cell_tol=cell_tol,
        rhs_source=rhs_source, boundary_source=boundary_source,
        probe=ProbeParams(p=probe_p, theta=theta, center=center,
                          radius=radius, rho=rho, t=t_shrink),
        solver_tol=solver_tol, out=pairs.get("out", "runs"),
        cache_dir=pairs.get("cache"), items=tuple(sorted(pairs.items())))

    # feasibility of the grids the solves will use
    for ladder in ladders if d is not None else ():
        grid = cfg.grid_for(ladder)
        try:
            require_resolved(grid, ladder)
        except ResolutionError as exc:
            errors.append(f"key 'resolution': {exc}")
            continue
        # node arrays for solution, rhs, boundary, coefficient, pcg workspace
        memory = (4 + d * d) * 8 * (grid.shape[0] + 1) ** d
        if memory > MEMORY_LIMIT_BYTES:
            errors.append(
                f"key 'resolution': {grid.shape[0]} cells per axis in dimension {d} "
                f"needs about {memory / 2**30:.1f} GiB, over the "
                f"{MEMORY_LIMIT_BYTES / 2**30:.0f} GiB limit")

    if errors:
        raise ConfigError("invalid config:\n  " + "\n  ".join(errors))
    return cfg
