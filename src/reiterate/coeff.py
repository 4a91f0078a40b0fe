"""Multiscale coefficient fields, scale ladders, and the builtin field families.

A coefficient field maps (x, y_1, ..., y_n) to a symmetric positive
definite d x d matrix, 1-periodic in each fast slot y_k.  Symmetry is a
contract here (the conjugate-gradient solves rely on it).  Periodicity is
the expressions' contract: a cell solve sees one period on a torus grid,
and descended tables wrap their slot axes.

Every builtin family lowers to the expression grammar of expr.py: a list
of parts multiplied left to right, each one scalar expression or the
three entries of a matrix (matrix2d, and constant with three values).
One builder reads the parts: the names they read give the slot count and
the x axes, and their ranges give mu, the ellipticity constant the
cascade checks every effective spectrum against.  A part's range is
declared by its family (laminate factors on a uniform grid of their one
coordinate, checkerboard phases, the slow modulation's bounds) or taken
at the points of a Kronecker sequence, x over the domain the field is
built for and y over the unit cell; a range that is not finite and
positive is rejected.  A matrix part's range and every effective
spectrum come from spectrum(), LAPACK's 2 x 2 eigenvalue step in numpy.

The parts that read the fastest slot make the field's split
A = scale(x, y_1..y_{n-1}) * fast(y_n) when they read nothing else and
another part exists, so a laminate of two or more factors, a slow
modulation of a one-slot field that reads no x, and an expr whose
top-level product separates the fastest slot all split.  The cascade
then solves one cell per level.  Products are never detected from
sampled values.

Expression-based families name coordinates slot-major: x1..xd are the
slow coordinates and y{(k-1)*d + j} is coordinate j of fast slot k, so in
d=1 the factors read y1..yn while in d=2 the first slot is (y1, y2), the
second (y3, y4), and so on.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .expr import compile_expression, product_factors

_MAX_SLOTS = 9


# ---------------------------------------------------------------------------
# digests


def _sha256():
    """The interpreter's built-in SHA-256 constructor, hashlib's where the
    build lacks it.  hashlib loads OpenSSL's libcrypto, which stays resident
    (3.5 MB); the digests are the same bytes either way."""
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


_SHA256 = _sha256()


def hex_digest(text: str, n: int) -> str:
    """The first n hex digits of the SHA-256 of text (UTF-8): every field,
    slab, descended-table and config digest."""
    return _SHA256(text.encode()).hexdigest()[:n]


# ---------------------------------------------------------------------------
# scale ladders


class ScaleLadder(NamedTuple("ScaleLadder", [("scales", tuple), ("N", int)])):
    """Strictly decreasing scales 1 > eps_1 > ... > eps_n > 0, optional separation power N."""

    __slots__ = ()

    def __new__(cls, scales, N=None):
        scales = tuple(float(s) for s in scales)
        if not scales:
            raise ValueError("ladder needs at least one scale")
        prev = 1.0
        for s in scales:
            if not (0.0 < s < prev):
                raise ValueError(f"scales must decrease strictly from 1, got {scales}")
            prev = s
        if N is not None and N < 1:
            raise ValueError("separation power N must be >= 1")
        return super().__new__(cls, scales, N)

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


class CoefficientSpec(NamedTuple):
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
        return hex_digest(f"{self.canonical()}|d={d}", 16)


# ---------------------------------------------------------------------------
# coefficient fields


class CoefficientField(NamedTuple):
    """Symmetric elliptic coefficient A(x, y_1..y_n) with ellipticity constant mu."""

    d: int
    n_scales: int
    evaluator: Callable
    mu: float = 1.0
    depends_on_x: tuple[int, ...] = ()  # the x axes the field reads (falsy: none)
    spec: CoefficientSpec | None = None
    digest_override: str | None = None
    # (scale, fast) when A(x, ys) = scale(x, ys[:-1]) * fast(ys[-1]) exactly:
    # scale gives one positive number per row from x and the slower slots,
    # and fast is a one-slot field that reads neither
    split: tuple | None = None

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
# builtin families, lowered to the expression grammar


def _identity_times(scalar: np.ndarray, d: int) -> np.ndarray:
    out = np.zeros(scalar.shape + (d, d))
    for i in range(d):
        out[..., i, i] = scalar
    return out


def _lower(spec: CoefficientSpec, d: int) -> list:
    """The family as parts multiplied left to right, each (compiled
    expressions, declared range or None): one scalar expression, or the
    entries (e11, e12, e22) of a symmetric matrix."""
    family, args = spec.family, [str(a) for a in spec.args]
    if family != "slow_modulated" and (spec.kwargs or any(
            isinstance(a, CoefficientSpec) for a in spec.args)):
        raise ConfigError(f"{family} takes scalar expressions only")
    names = [f"x{j}" for j in range(1, d + 1)] + [f"y{i}" for i in range(1, _MAX_SLOTS + 1)]
    if family in ("constant", "matrix2d"):
        # the entries of a constant read no coordinate
        names = names if family == "matrix2d" else []
        if len(args) == 3 and d == 2:
            return [(tuple(compile_expression(src, names) for src in args), None)]
        if family == "matrix2d" or len(args) != 1:
            raise ConfigError(f"{family} takes (e11, e12, e22) in d=2"
                              + (" or one value" if family == "constant" else ""))
        return [((compile_expression(args[0], names),), None)]
    if family == "laminate1d":
        if not args:
            raise ConfigError("laminate1d needs at least one factor expression")
        parts = []
        for k, src in enumerate(args):
            # factor k+1 laminates along the first coordinate of fast slot k+1
            var = f"y{k * d + 1}"
            fn = compile_expression(src, [var])
            vals = fn(**{var: np.linspace(0.0, 1.0, 8192, endpoint=False)})
            parts.append(((fn,), (float(vals.min()), float(vals.max()))))
        return parts
    if family == "checkerboard2d":
        if d != 2 or len(args) != 3:
            raise ConfigError("checkerboard2d takes (a1, a2, sharpness) in d=2")
        a1, a2, sharp = (float(a) for a in args)
        if not (0 < a1 <= a2) or sharp <= 0:
            raise ConfigError("checkerboard2d needs 0 < a1 <= a2 and sharpness > 0")
        # sqrt(a1 a2) * exp(tau * tanh(s sin sin)) lies strictly inside (a1, a2)
        # and swaps into a1*a2/a under quarter rotation, phases reached as s -> inf
        geo, tau = math.sqrt(a1 * a2), 0.5 * math.log(a2 / a1)
        src = f"({geo!r}*exp({tau!r}*tanh({sharp!r}*(sin(2*pi*y1)*sin(2*pi*y2)))))"
        return [((compile_expression(src, names),), (a1, a2))]
    if family == "slow_modulated":
        if len(spec.args) != 1 or not isinstance(spec.args[0], CoefficientSpec):
            raise ConfigError("slow_modulated takes a nested base family as its argument")
        params = dict(spec.kwargs)
        offset, amplitude = params.pop("offset", 2.0), params.pop("amplitude", 1.0)
        wave = [params.pop("k1", 1.0)] + ([params.pop("k2", 0.0)] if d == 2 else [])
        if params:
            raise ConfigError(f"slow_modulated got unknown parameters {sorted(params)}")
        # zero wave numbers leave their x axis unread
        phase = "+".join(f"{k!r}*x{j}" for j, k in enumerate(wave, 1) if k) or "0"
        src = f"{offset!r}+{amplitude!r}*sin(2*pi*({phase}))"
        return _lower(spec.args[0], d) + [
            ((compile_expression(src, names),), (offset - abs(amplitude), offset + abs(amplitude)))]
    if len(args) != 1:
        raise ConfigError("expr takes a single scalar expression")
    return [((compile_expression(src, names),), None) for src in product_factors(args[0])]


def _reads(part) -> set:
    return set().union(*(fn.reads for fn in part[0]))


_EPS = 2.0 ** -53  # LAPACK's dlamch('E')


def spectrum(t) -> np.ndarray:
    """(lambda_min, lambda_max) of every symmetric d x d tensor (d <= 2) in
    the stack t, shape (..., d, d) -> (..., 2); the lower triangle is read.

    The bits are np.linalg.eigvalsh's wherever LAPACK does not rescale
    (largest entry between about 1e-120 and 1e145): dsterf keeps the
    diagonal when the off-diagonal entry fails either of its two split
    tests, and otherwise calls dlae2 with the diagonal entry of smaller
    magnitude first.  Only numpy ufuncs run, so no LAPACK routine does."""
    t = np.asarray(t, dtype=float)
    if t.shape[-1] == 1:
        return np.concatenate([t[..., 0], t[..., 0]], axis=-1)
    a, b, c = t[..., 0, 0], t[..., 1, 0], t[..., 1, 1]
    split = (np.abs(b) <= np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * _EPS) | (
        b * b <= _EPS * _EPS * np.abs(a * c))
    # dlae2(a, b, c) with |a| <= |c| and b = sqrt(b*b) as dsterf passes them:
    # rt1 is the eigenvalue of larger magnitude, rt2 = det / rt1
    swap = np.abs(c) < np.abs(a)
    a, c = np.where(swap, c, a), np.where(swap, a, c)
    b = np.sqrt(b * b)
    sm, adf, ab = a + c, np.abs(a - c), b + b
    with np.errstate(divide="ignore", invalid="ignore"):
        rt = np.where(adf > ab, adf * np.sqrt(1.0 + (ab / adf) ** 2),
                      np.where(adf < ab, ab * np.sqrt(1.0 + (adf / ab) ** 2), ab * np.sqrt(2.0)))
        rt1 = 0.5 * np.where(sm < 0, sm - rt, np.where(sm > 0, sm + rt, rt))
        rt2 = np.where(sm == 0, -0.5 * rt, (c / rt1) * a - (b / rt1) * b)
    return np.stack([np.where(split, np.minimum(a, c), np.minimum(rt1, rt2)),
                     np.where(split, np.maximum(a, c), np.maximum(rt1, rt2))], axis=-1)


def _kronecker(m: int, count: int) -> np.ndarray:
    """Roberts' R_m sequence, points 1..count in [0, 1)^m, shape (m, count):
    coordinate i of point k is frac(1/2 + k * phi^-i), phi the root of
    z^(m+1) = z + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (m + 1))
    alpha = phi ** -np.arange(1.0, m + 1)
    return (0.5 + np.arange(1.0, count + 1) * alpha[:, None]) % 1.0


def _ranged(parts, d: int, n: int, domain) -> list:
    """The parts with every range filled in: one without a declared range
    takes its extreme values (a matrix its extreme eigenvalues) at the
    20,000 points of a Kronecker sequence, each x coordinate in [lo, hi)
    of ``domain`` and each y in [0, 1), made once and only when one is
    read."""
    pts, out = {}, []
    for fns, span in parts:
        if span is None:
            if not pts and any(fn.reads for fn in fns):
                lo, hi = domain
                u = _kronecker(d + n * d, 20_000)
                pts = {f"x{j}": lo + (hi - lo) * u[j - 1] for j in range(1, d + 1)}
                pts.update({f"y{i}": u[d + i - 1] for i in range(1, n * d + 1)})
            vals = [fn(**pts) for fn in fns]
            if len(vals) == 3:
                a11, a12, a22 = np.broadcast_arrays(*vals)
                vals = spectrum(np.stack([a11, a12, a12, a22], -1).reshape(
                    a11.shape + (2, 2))).T
            span = (float(vals[0].min()), float(vals[-1].max()))
        out.append((fns, span))
    return out


def _span(parts) -> tuple[float, float]:
    """Interval product of the parts' ranges, in their order (nan propagates)."""
    lo, hi = 1.0, 1.0
    for _, (a, b) in parts:
        ends = (lo * a, lo * b, hi * a, hi * b)
        lo, hi = float(np.min(ends)), float(np.max(ends))
    return lo, hi


def _evaluate(parts, x, ys, d: int, skip: int = 0) -> np.ndarray:
    """The product of the parts at (x, ys), shape (..., d, d); ys[k] is fast
    slot k + 1 + skip."""
    kwargs = {f"x{j + 1}": x[..., j] for j in range(d)}
    kwargs.update({f"y{(k + skip) * d + j + 1}": y[..., j]
                   for k, y in enumerate(ys) for j in range(d)})
    shape = x.shape[:-1]
    scalar, matrix = np.ones(shape), None
    for fns, _ in parts:
        vals = [np.broadcast_to(fn(**kwargs), shape) for fn in fns]
        if len(vals) == 1:
            scalar = scalar * vals[0]
        else:
            matrix = np.stack([vals[0], vals[1], vals[1], vals[2]], -1).reshape(shape + (2, 2))
    if matrix is None:
        return _identity_times(scalar, d)
    # in place on the fresh stack (products commute exactly): a second
    # N x d x d array here was a rotated laminate's box-solve peak
    matrix *= scalar[..., None, None]
    return matrix


def _build(d: int, parts, spec=None, digest=None, skip: int = 0,
           domain=(0.0, 1.0)) -> CoefficientField:
    """The field of lowered parts on x in domain^d.  The names they read
    give the slot count and the x axes, their ranges give mu, and the parts
    that read the fastest slot give the split: it exists when they read
    nothing else and have a positive range, and other parts, all scalar,
    exist."""
    reads = set().union(*map(_reads, parts))
    n = max((-(-int(name[1:]) // d) for name in reads if name[0] == "y"), default=0)
    parts = _ranged(parts, d, n, domain)
    lo, hi = _span(parts)
    if not 0 < lo <= hi < math.inf:
        raise ConfigError(f"coefficient ranges over [{lo:g}, {hi:g}]; it must be "
                          "finite and positive (ellipticity)")
    last = {f"y{(n - 1) * d + j}" for j in range(1, d + 1)}
    fast = [p for p in parts if _reads(p) & last]
    rest = [p for p in parts if not _reads(p) & last]
    split = None
    if fast and rest and all(_reads(p) <= last for p in fast) \
            and all(len(fns) == 1 for fns, _ in rest) and _span(fast)[0] > 0:
        key = hex_digest(f"{spec.digest(d)}|fast", 16)
        split = (lambda x, ys: _evaluate(rest, x, ys, d)[..., 0, 0],
                 _build(d, fast, digest=key, skip=n - 1))
    return CoefficientField(
        d=d, n_scales=n - skip, evaluator=lambda x, ys: _evaluate(parts, x, ys, d, skip),
        mu=min(lo, 1.0 / hi), depends_on_x=tuple(i for i in range(d) if f"x{i + 1}" in reads),
        spec=spec, digest_override=digest, split=split)


_FAMILIES = ("constant", "laminate1d", "checkerboard2d", "slow_modulated", "expr", "matrix2d")


def builtin_family(spec, d: int, domain=(0.0, 1.0)) -> CoefficientField:
    """Build a CoefficientField from a spec string or CoefficientSpec, for x
    in domain^d: ``domain`` = (lo, hi) bounds the points a range is
    sampled at."""
    if isinstance(spec, str):
        spec = CoefficientSpec.parse(spec)
    if spec.family not in _FAMILIES:
        raise ConfigError(f"unknown family {spec.family!r}")
    if d not in (1, 2):
        raise ConfigError("only d=1 and d=2 are supported")
    return _build(d, _lower(spec, d), spec=spec, domain=domain)
