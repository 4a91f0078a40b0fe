"""Multiscale coefficient fields, scale ladders, and the builtin field families.

A coefficient field maps (x, y_1, ..., y_n) to a symmetric positive
definite d x d matrix, 1-periodic in each fast slot y_k.  Symmetry is a
contract here (the conjugate-gradient solves rely on it); builders reject
asymmetric or indefinite data where they tabulate it (laminate factors on
a uniform grid, expression families at seeded points) and record mu, the
ellipticity constant the cascade checks every effective spectrum against.
Periodicity is the expressions' contract: a cell
solve sees one period on a torus grid, and descended tables wrap their
slot axes.

A field that is a product A = scale(x, y_1..y_{n-1}) * fast(y_n) by
construction declares it as its split: a laminate of two or more
factors, and a slow modulation of such a field or of a one-slot field
that reads no x.  The cascade then solves one cell per level.  Products
are never detected from sampled values.

Expression-based families name coordinates slot-major: x1..xd are the
slow coordinates and y{(k-1)*d + j} is coordinate j of fast slot k, so in
d=1 the factors read y1..yn while in d=2 the first slot is (y1, y2), the
second (y3, y4), and so on.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, field as dc_field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .expr import compile_expression

_MAX_SLOTS = 9


# ---------------------------------------------------------------------------
# scale ladders


@dataclass(frozen=True)
class ScaleLadder:
    """Strictly decreasing scales 1 > eps_1 > ... > eps_n > 0, optional separation power N."""

    scales: tuple[float, ...]
    N: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if not self.scales:
            raise ValueError("ladder needs at least one scale")
        prev = 1.0
        for s in self.scales:
            if not (0.0 < s < prev):
                raise ValueError(f"scales must decrease strictly from 1, got {self.scales}")
            prev = s
        if self.N is not None and self.N < 1:
            raise ValueError("separation power N must be >= 1")

    @property
    def n(self) -> int:
        return len(self.scales)

    @property
    def finest(self) -> float:
        return self.scales[-1]

    @classmethod
    def power(cls, eps: float, lambdas: Sequence[float], N: int | None = None) -> "ScaleLadder":
        return cls(tuple(eps**lam for lam in lambdas), N=N)


def check_separation(ladder: ScaleLadder) -> tuple[bool, tuple[float, ...]]:
    """(satisfied, slack): per-k slack log(eps_k/eps_{k-1}) - N*log(eps_{k+1}/eps_k)
    with the ladder's N, nonnegative iff well separated."""
    if ladder.N is None:
        raise ValueError("separation check requires the ladder's N")
    eps = (1.0,) + ladder.scales
    slack = []
    for k in range(1, ladder.n):
        slack.append(math.log(eps[k] / eps[k - 1]) - ladder.N * math.log(eps[k + 1] / eps[k]))
    slack = tuple(slack)
    return all(s >= -1e-12 for s in slack), slack


# ---------------------------------------------------------------------------
# coefficient specs (family grammar)


def _split_args(body: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced parentheses in {body!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ConfigError(f"unbalanced parentheses in {body!r}")
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


@dataclass(frozen=True)
class CoefficientSpec:
    """Family tag plus arguments; round-trips through its canonical string."""

    family: str
    args: tuple = ()
    kwargs: tuple = ()

    @classmethod
    def parse(cls, text: str) -> "CoefficientSpec":
        text = text.strip()
        if "(" not in text or not text.endswith(")"):
            raise ConfigError(f"coefficient spec must look like family(...): {text!r}")
        head, body = text.split("(", 1)
        family = head.strip()
        if family not in _FAMILIES:
            raise ConfigError(f"unknown family {family!r} (have: {', '.join(sorted(_FAMILIES))})")
        args, kwargs = [], []
        for part in _split_args(body[:-1]):
            if "=" in part and "(" not in part.split("=", 1)[0]:
                key, val = (s.strip() for s in part.split("=", 1))
                kwargs.append((key, float(val)))
            elif part and part.split("(", 1)[0].strip() in _FAMILIES:
                args.append(cls.parse(part))
            else:
                args.append(part)
        return cls(family=family, args=tuple(args), kwargs=tuple(kwargs))

    def canonical(self) -> str:
        rendered = [a.canonical() if isinstance(a, CoefficientSpec) else str(a) for a in self.args]
        rendered += [f"{k}={v:.17g}" for k, v in self.kwargs]
        return f"{self.family}({', '.join(rendered)})"

    def digest(self, d: int) -> str:
        return hashlib.sha256(f"{self.canonical()}|d={d}".encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# coefficient fields


@dataclass(frozen=True)
class CoefficientField:
    """Symmetric elliptic coefficient A(x, y_1..y_n) with ellipticity constant mu."""

    d: int
    n_scales: int
    evaluator: Callable = dc_field(repr=False)
    mu: float = 1.0
    depends_on_x: tuple[int, ...] = ()  # the x axes the field reads (falsy: none)
    spec: CoefficientSpec | None = None
    digest_override: str | None = dc_field(default=None, repr=False)
    # (scale, fast) when A(x, ys) = scale(x, ys[:-1]) * fast(ys[-1]) exactly:
    # scale gives one positive number per row from x and the slower slots,
    # and fast is a one-slot field that reads neither
    split: tuple | None = dc_field(default=None, repr=False)

    def __call__(self, x, ys) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        ys = [np.atleast_2d(np.asarray(y, dtype=float)) for y in ys]
        if len(ys) < self.n_scales:
            raise ValueError(f"field reads {self.n_scales} fast slots, got {len(ys)}")
        return self.evaluator(x, ys)

    def digest(self) -> str | None:
        """Stable hash for cache keys; None for ad-hoc fields (never cached)."""
        if self.digest_override is not None:
            return self.digest_override
        if self.spec is not None:
            return self.spec.digest(self.d)
        return None


def evaluate_multiscale(field: CoefficientField, ladder: ScaleLadder, x) -> np.ndarray:
    """A(x, x/eps_1, ..., x/eps_n) at the given points, shape (m, d, d)."""
    if field.n_scales not in (0, ladder.n):
        raise ValueError(f"field has {field.n_scales} fast slots but ladder has {ladder.n}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    ys = [x / eps for eps in ladder.scales]
    return field(x, ys)


# ---------------------------------------------------------------------------
# builtin families


def _identity_times(scalar: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros(scalar.shape + (d, d))
    for i in range(d):
        out[..., i, i] = scalar
    return out


def _range_of(fn, var: str, samples: int = 8192):
    grid = np.linspace(0.0, 1.0, samples, endpoint=False)
    vals = fn(**{var: grid})
    return float(vals.min()), float(vals.max())


def _build_constant(spec: CoefficientSpec, d: int) -> CoefficientField:
    vals = [float(a) for a in spec.args]
    if d == 1:
        if len(vals) != 1:
            raise ConfigError("constant(v) takes one value in d=1")
        mat = np.array([[vals[0]]])
    elif len(vals) == 1:
        mat = vals[0] * np.eye(2)
    elif len(vals) == 3:
        mat = np.array([[vals[0], vals[1]], [vals[1], vals[2]]])
    else:
        raise ConfigError("constant takes (v) or (v11, v12, v22) in d=2")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() <= 0:
        raise ConfigError(f"constant coefficient not positive definite: eigenvalues {eigs}")
    mu = min(float(eigs.min()), 1.0 / float(eigs.max()))

    def evaluator(x, ys, mat=mat):
        return np.broadcast_to(mat, x.shape[:-1] + mat.shape).copy()

    return CoefficientField(d=d, n_scales=0, evaluator=evaluator, mu=mu, spec=spec)


def _build_laminate(spec: CoefficientSpec, d: int) -> CoefficientField:
    if not spec.args:
        raise ConfigError("laminate1d needs at least one factor expression")
    factors = []
    lo_all, hi_all = 1.0, 1.0
    for k, src in enumerate(spec.args, start=1):
        if isinstance(src, CoefficientSpec):
            raise ConfigError("laminate1d factors must be scalar expressions")
        # factor k laminates along the first coordinate of fast slot k
        var = f"y{(k - 1) * d + 1}"
        fn = compile_expression(str(src), [var])
        lo, hi = _range_of(fn, var)
        if lo <= 0:
            raise ConfigError(f"laminate factor {src!r} reaches {lo:g} <= 0 (ellipticity violation)")
        lo_all *= lo
        hi_all *= hi
        factors.append((var, fn))
    mu = min(lo_all, 1.0 / hi_all)

    def evaluator(x, ys, factors=factors, d=d):
        return _identity_times(_factor_product(factors, x, ys), d)

    split = None
    if len(factors) > 1:
        # the last factor alone, read from the one slot of its own field;
        # lo and hi still hold its range
        def fast_evaluator(x, ys, last=factors[-1:], d=d):
            return _identity_times(_factor_product(last, x, ys), d)

        fast = CoefficientField(
            d=d, n_scales=1, evaluator=fast_evaluator, mu=min(lo, 1.0 / hi),
            digest_override=hashlib.sha256(f"{spec.digest(d)}|fast".encode()).hexdigest()[:16])
        split = (lambda x, ys, slower=factors[:-1]: _factor_product(slower, x, ys), fast)
    return CoefficientField(d=d, n_scales=len(factors), evaluator=evaluator, mu=mu,
                            spec=spec, split=split)


def _factor_product(factors, x, ys) -> np.ndarray:
    """Product of laminate factors, factor k read from the first coordinate
    of ys[k]: one number per row of x."""
    scalar = np.ones(x.shape[:-1])
    for (var, fn), y in zip(factors, ys):
        scalar = scalar * fn(**{var: y[..., 0]})
    return scalar


def _build_checkerboard(spec: CoefficientSpec, d: int) -> CoefficientField:
    if d != 2:
        raise ConfigError("smooth checkerboard is a d=2 family")
    if len(spec.args) != 3:
        raise ConfigError("checkerboard2d takes (a1, a2, sharpness)")
    a1, a2, sharp = (float(a) for a in spec.args)
    if not (0 < a1 <= a2) or sharp <= 0:
        raise ConfigError("checkerboard2d needs 0 < a1 <= a2 and sharpness > 0")
    geo = math.sqrt(a1 * a2)
    tau = 0.5 * math.log(a2 / a1)
    mu = min(a1, 1.0 / a2)
    # values sqrt(a1 a2) * exp(tau * tanh(s sin sin)) lie strictly inside (a1, a2)
    # and swap into a1*a2/a under quarter rotation, phases reached as s -> inf.

    def evaluator(x, ys, geo=geo, tau=tau, sharp=sharp):
        y = ys[0]
        pattern = np.sin(2 * np.pi * y[..., 0]) * np.sin(2 * np.pi * y[..., 1])
        scalar = geo * np.exp(tau * np.tanh(sharp * pattern))
        return _identity_times(scalar, 2)

    return CoefficientField(d=2, n_scales=1, evaluator=evaluator, mu=mu, spec=spec)


def _build_slow_modulated(spec: CoefficientSpec, d: int) -> CoefficientField:
    if len(spec.args) != 1 or not isinstance(spec.args[0], CoefficientSpec):
        raise ConfigError("slow_modulated takes a nested base family as its argument")
    base = builtin_family(spec.args[0], d)
    params = dict(spec.kwargs)
    offset = params.pop("offset", 2.0)
    amplitude = params.pop("amplitude", 1.0)
    kvec = np.array([params.pop("k1", 1.0)] + ([params.pop("k2", 0.0)] if d == 2 else []))
    if params:
        raise ConfigError(f"slow_modulated got unknown parameters {sorted(params)}")
    if offset - abs(amplitude) <= 0:
        raise ConfigError("slow modulation must stay positive: need offset > |amplitude|")
    lo = offset - abs(amplitude)
    hi = offset + abs(amplitude)
    mu = min(base.mu * lo, 1.0 / ((1.0 / base.mu) * hi))

    def modulation(x, offset=offset, amplitude=amplitude, kvec=kvec):
        return offset + amplitude * np.sin(2 * np.pi * (x @ kvec))

    def evaluator(x, ys, base=base):
        return base.evaluator(x, ys) * modulation(x)[..., None, None]

    split = None
    if base.split is not None:
        base_scale, fast = base.split
        split = (lambda x, ys: modulation(x) * base_scale(x, ys), fast)
    elif base.n_scales == 1 and not base.depends_on_x:
        split = (lambda x, ys: modulation(x), base)
    return CoefficientField(d=d, n_scales=base.n_scales, evaluator=evaluator, mu=mu,
                            depends_on_x=tuple(sorted(set(base.depends_on_x)
                                                      | set(np.flatnonzero(kvec).tolist()))),
                            spec=spec, split=split)


def _scan_slots(sources: Sequence[str], d: int) -> tuple[list[str], int]:
    """Infer the slot count from the y-coordinate names an expression uses.

    Coordinate names are slot-major: y{(k-1)*d + j} is coordinate j of fast
    slot k, so d=1 reads y1..yn one slot each and d=2 reads (y1,y2) for the
    first slot, (y3,y4) for the second, and so on.
    """
    names = [f"x{j}" for j in range(1, d + 1)] + [f"y{i}" for i in range(1, _MAX_SLOTS + 1)]
    used = 0
    for src in sources:
        for tok in re.findall(r"\by([1-9])\b", src):
            used = max(used, int(tok))
    return names, -(-used // d)


def _x_axes(sources: Sequence[str], d: int) -> tuple[int, ...]:
    """The slow axes i whose coordinate x{i+1} an expression names."""
    return tuple(i for i in range(d)
                 if any(re.search(rf"\bx{i + 1}\b", src) for src in sources))


def _slot_kwargs(ys, d: int, n: int) -> dict:
    return {f"y{k * d + j + 1}": ys[k][..., j] for k in range(n) for j in range(d)}


def _sampled_scalar_metadata(fns, d, n, seed=0):
    """Each expression's values at 20,000 seeded points of the unit cube."""
    rng = np.random.default_rng(seed)
    pts = {f"x{j}": rng.uniform(0, 1, 20_000) for j in range(1, d + 1)}
    pts.update({f"y{i}": rng.uniform(0, 1, 20_000) for i in range(1, n * d + 1)})
    return [fn(**pts) for fn in fns]


def _build_expr(spec: CoefficientSpec, d: int) -> CoefficientField:
    if len(spec.args) != 1:
        raise ConfigError("expr takes a single scalar expression")
    src = str(spec.args[0])
    names, n = _scan_slots([src], d)
    fn = compile_expression(src, names)
    (vals,) = _sampled_scalar_metadata([fn], d, n)
    lo, hi = float(vals.min()), float(vals.max())
    if lo <= 0:
        raise ConfigError(f"expr coefficient reaches {lo:g} <= 0 on samples (ellipticity violation)")

    def evaluator(x, ys, fn=fn, d=d, n=n):
        kwargs = {f"x{j+1}": x[..., j] for j in range(d)}
        kwargs.update(_slot_kwargs(ys, d, n))
        return _identity_times(fn(**kwargs), d)

    return CoefficientField(d=d, n_scales=n, evaluator=evaluator, mu=min(lo, 1.0 / hi),
                            depends_on_x=_x_axes([src], d), spec=spec)


def _build_matrix2d(spec: CoefficientSpec, d: int) -> CoefficientField:
    if d != 2:
        raise ConfigError("matrix2d is a d=2 family")
    if len(spec.args) != 3:
        raise ConfigError("matrix2d takes (e11, e12, e22) scalar expressions")
    sources = [str(a) for a in spec.args]
    names, n = _scan_slots(sources, d)
    fns = [compile_expression(src, names) for src in sources]
    a11, a12, a22 = _sampled_scalar_metadata(fns, d, n)
    tr = a11 + a22
    det = a11 * a22 - a12 * a12
    disc = np.sqrt(np.maximum((tr / 2) ** 2 - det, 0))
    lam_min = float((tr / 2 - disc).min())
    lam_max = float((tr / 2 + disc).max())
    if lam_min <= 0:
        raise ConfigError(f"matrix2d reaches min eigenvalue {lam_min:g} <= 0 on samples")

    def evaluator(x, ys, fns=fns, n=n):
        kwargs = {f"x{j+1}": x[..., j] for j in range(2)}
        kwargs.update(_slot_kwargs(ys, 2, n))
        e11, e12, e22 = (np.broadcast_to(f(**kwargs), x.shape[:-1]) for f in fns)
        out = np.empty(x.shape[:-1] + (2, 2))
        out[..., 0, 0] = e11
        out[..., 0, 1] = e12
        out[..., 1, 0] = e12
        out[..., 1, 1] = e22
        return out

    return CoefficientField(d=2, n_scales=n, evaluator=evaluator,
                            mu=min(lam_min, 1.0 / lam_max),
                            depends_on_x=_x_axes(sources, d), spec=spec)


_FAMILIES = {
    "constant": _build_constant,
    "laminate1d": _build_laminate,
    "checkerboard2d": _build_checkerboard,
    "slow_modulated": _build_slow_modulated,
    "expr": _build_expr,
    "matrix2d": _build_matrix2d,
}


def builtin_family(spec, d: int) -> CoefficientField:
    """Build a CoefficientField from a spec string or CoefficientSpec."""
    if isinstance(spec, str):
        spec = CoefficientSpec.parse(spec)
    if spec.family not in _FAMILIES:
        raise ConfigError(f"unknown family {spec.family!r}")
    if d not in (1, 2):
        raise ConfigError("only d=1 and d=2 are supported")
    return _FAMILIES[spec.family](spec, d)
