"""Empirical certification: convergence rates, excess decay, Lipschitz bounds.

Everything here measures discrete solutions and reports dimensionless
ratios against the behaviour the theory predicts.  Ball quantities use
node balls.  Affine competitors come from one least-squares fit per
ball (_ball_fit), whose slope is then shrunk along its own ray; every
column of an excess row is read off that fit.  The fit residual is orthogonal
to every design column, so the penalized objective along the ray is
sqrt(E + C (1-t)^2) + t P, and its minimizer over t in [0, 1] has a
closed form (penalized_affine_excess).  Searching along the ray only is
exact for the penalized objective in one dimension and exact up to grid
quantization in two, because the second-moment matrix of a ball is
isotropic.

A ball probe reads only its window: grid._ball_window gives the node
slices covering B(center, r), widened by one node per side and clipped
to the grid, with the offsets x - center on them, so no probe scans the
whole grid.  Each consumer keeps its own membership rule on those
offsets: ball_average takes |x - center|^2 <= r^2, and the ball fit
takes |x - center| <= r + 1e-12.

Conventions used throughout: ratios with vanishing numerator and
denominator count as 0, never NaN; radius sequences are dyadic from the
top radius down to max(finest scale, 8h); the F-term exponent p defaults
to d + 1, and the regularity exponent is min(theta, 1 - d/p)
(_exponents).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coeff import CoefficientField, ScaleLadder
from .dirichlet import BVP, cells_per_axis, solve_homogenized, solve_multiscale
from .grid import Grid, GridFunction, _ball_window, ball_average, gradient, l2_norm

# shrink factors the excess iteration may use, largest first
T_CANDIDATES = (1 / 16, 1 / 32, 1 / 64)
# face points at which face_data_norm_c1alpha samples its data
FACE_SAMPLES = 512
# cells per axis over which rate_sweep drops a scale, per dimension
RATE_CELL_CAP = {1: 65536, 2: 512}
# a ball fit's centred Gram counts as positive definite when its
# determinant exceeds this share of the product of its diagonal, that is
# when no two basis columns correlate to within 1e-12 of +-1
GRAM_FLOOR = 1e-12


def _safe_ratio(num: float, den: float) -> float:
    if den == 0.0:
        return 0.0
    return num / den


def _denoise(value: float, noise: float) -> float:
    return 0.0 if value < noise else value


def _slope(xs, ys) -> float:
    """Least-squares slope of ys against xs in closed form, which
    np.polyfit(xs, ys, 1)[0] takes through LAPACK; 0 when every x is the
    same."""
    if np.ptp(xs) == 0.0:
        return 0.0
    dx = xs - xs.mean()
    return float(np.sum(dx * (ys - ys.mean())) / np.sum(dx * dx))


def dyadic_radii(top: float, floor: float) -> list[float]:
    """Halving sequence from top down to floor (top alone if floor > top)."""
    radii = [float(top)]
    r = top / 2
    while r >= floor * (1.0 - 1e-12):
        radii.append(float(r))
        r /= 2
    return radii


# ---------------------------------------------------------------------------
# homogenization rate sweeps


class RateRow(NamedTuple):
    eps: float
    rate_expr: float  # separation error scale: eps_1 + sum eps_{k+1}/eps_k
    l2_error: float
    slope_so_far: float


class RateSweep(NamedTuple):
    rows: tuple
    exponent: float
    warnings: tuple


def separation_error_scale(ladder: ScaleLadder) -> float:
    scales = ladder.scales
    total = scales[0]
    for k in range(len(scales) - 1):
        total += scales[k + 1] / scales[k]
    return total


def rate_sweep(field: CoefficientField, eps_values, ladder_for, *, effective,
               rhs=1.0, boundary=0.0, cells_per_scale: int = 16,
               tol: float = 1e-10) -> RateSweep:
    """L2 distance between the oscillating and homogenized solves per eps.

    ladder_for maps a bare eps to its ScaleLadder.  effective is the
    homogenized coefficient, a tensor or anything solve_homogenized takes;
    it does not depend on eps.  Scales that need more cells per axis than
    RATE_CELL_CAP[d] are dropped with a warning rather than solved badly.
    The exponent is the log-log slope of the error against the separation
    error scale of each ladder; a fit over fewer than 4 surviving scales
    is flagged.
    """
    d = field.d
    rows: list[RateRow] = []
    warnings: list[str] = []
    for eps in eps_values:
        ladder = ladder_for(eps)
        needed = cells_per_axis(1.0, cells_per_scale, ladder.finest)
        if needed > RATE_CELL_CAP[d]:
            warnings.append(
                f"eps={eps:g} needs {needed} cells per axis, over the cap "
                f"{RATE_CELL_CAP[d]}; dropped")
            continue
        grid = Grid.box((0.0,) * d, (1.0,) * d, needed)
        bvp = BVP.on(grid, rhs=rhs, boundary=boundary)
        u_eps = solve_multiscale(bvp, field, ladder, tol=tol)
        u0 = solve_homogenized(bvp, effective, tol=tol)
        err = l2_norm(GridFunction(grid, u_eps.values - u0.values))
        rate_expr = separation_error_scale(ladder)
        if rows:
            prev = rows[-1]
            slope = _safe_ratio(math.log(_safe_ratio(prev.l2_error, err) or 1.0),
                                math.log(prev.rate_expr / rate_expr))
        else:
            slope = 0.0
        rows.append(RateRow(eps=eps, rate_expr=rate_expr,
                            l2_error=float(err), slope_so_far=float(slope)))
    exponent = 0.0
    if len(rows) >= 2:
        xs = np.log([row.rate_expr for row in rows])
        ys = np.log([max(row.l2_error, 1e-300) for row in rows])
        exponent = _slope(xs, ys)
        if len(rows) < 4:
            warnings.append(f"exponent fitted over only {len(rows)} scales; "
                            "4 or more give a trustworthy slope")
    return RateSweep(rows=tuple(rows), exponent=exponent, warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# local approximation by the homogenized operator


def _aligned_subbox(grid: Grid, center, half_width: float):
    """Node slices of the concentric box of the given half width."""
    slices = []
    for axis in range(grid.d):
        h = grid.spacing[axis]
        c = int(round((center[axis] - grid.lo[axis]) / h))
        k = int(round(half_width / h))
        lo_i, hi_i = c - k, c + k
        if lo_i < 0 or hi_i > grid.shape[axis]:
            raise ValueError(
                f"box of half width {half_width:g} around {center} leaves the domain")
        slices.append(slice(lo_i, hi_i + 1))
    return tuple(slices)


def approximate_by_homogenized(field: CoefficientField, ladder: ScaleLadder, *,
                               effective, r: float = 0.25, rho: float = 0.5,
                               rhs=1.0, boundary=0.0, cells_per_scale: int = 16,
                               tol: float = 1e-10) -> dict:
    """Approximate u_eps on B_r by a homogenized solve fed with its trace.

    The limit operator is solved on the concentric box of half width
    3r/2 with boundary data read off the oscillating solution, and the
    two are compared on the ball of radius r.  bound_ratio divides the
    discrepancy by (eps_1/r)^rho * (rms of u_eps on B_2r + r^2 rms of F),
    the shape the local approximation estimate predicts; rho is an input
    exponent to test, not a derived constant.
    """
    d = field.d
    if ladder.scales[0] > r * (1 + 1e-12):
        raise ValueError(f"coarsest scale {ladder.scales[0]:g} exceeds the "
                         f"probe radius {r:g}")
    n = cells_per_axis(1.0, cells_per_scale, ladder.finest)
    if n % 2:
        n += 1  # keep the box center on a node
    grid = Grid.box((0.0,) * d, (1.0,) * d, n)
    center = tuple(0.5 for _ in range(d))
    bvp = BVP.on(grid, rhs=rhs, boundary=boundary)
    u_eps = solve_multiscale(bvp, field, ladder, tol=tol)
    slices = _aligned_subbox(grid, center, 1.5 * r)
    sub_cells = tuple(s.stop - s.start - 1 for s in slices)
    sub = Grid.box(tuple(grid.lo[a] + slices[a].start * grid.spacing[a] for a in range(d)),
                   tuple(grid.lo[a] + (slices[a].stop - 1) * grid.spacing[a] for a in range(d)),
                   sub_cells)
    local = BVP(grid=sub, rhs=GridFunction(sub, bvp.rhs.values[slices]),
                boundary=u_eps.values[slices][sub.boundary_mask()])
    u0 = solve_homogenized(local, effective, tol=tol)
    defect = GridFunction(sub, u_eps.values[slices] - u0.values)
    discrepancy = ball_average(defect, center, r, p=2.0)
    size = ball_average(u_eps, center, 2 * r, p=2.0)
    f_term = (r**2) * ball_average(bvp.rhs, center, 2 * r, p=2.0)
    denom = (ladder.scales[0] / r) ** rho * (size + f_term)
    return {
        "eps": ladder.finest,
        "r": r,
        "rho": rho,
        "resolution": n,
        "discrepancy": discrepancy,
        "bound_ratio": _safe_ratio(discrepancy, denom),
    }


def approximation_sweep(field: CoefficientField, eps_values, ladder_for, *,
                        effective, **kw) -> dict:
    """Decay of the local approximation discrepancy across scales: the
    reports, and with two or more of them the fitted log-log exponent."""
    reports = [approximate_by_homogenized(field, ladder_for(eps),
                                          effective=effective, **kw)
               for eps in eps_values]
    out = {"reports": reports}
    if len(reports) >= 2:
        eps_arr = np.array([rep["eps"] for rep in reports])
        vals = np.array([max(rep["discrepancy"], 1e-300) for rep in reports])
        out["exponent"] = _slope(np.log(eps_arr), np.log(vals))
    return out


# ---------------------------------------------------------------------------
# ball fits and excess functionals


def _exponents(d: int, p: float | None, theta: float = 1.0) -> tuple[float, float]:
    """The F-term exponent p (d + 1 by default) and the regularity exponent
    vartheta = min(theta, 1 - d/p), or theta when p <= d."""
    if p is None:
        p = d + 1.0
    return p, (min(theta, 1.0 - d / p) if p > d else theta)


def _ball_fit(u: GridFunction, center, r: float, oscillation=None):
    """The least-squares fit of c + xi . basis over the node ball
    |x - center| <= r + 1e-12, basis the offsets x - center plus the
    sampled oscillation profile when given (one column per slope
    component).  Returns (v0, g, |xi|): the centred ball data, the centred
    fitted part xi . basis and the slope magnitude.

    The constant drops out once data and basis are centred, so xi solves
    the 1x1 or 2x2 normal equations of the centred basis in closed form
    (no BLAS or LAPACK).  A centred Gram that is not positive definite
    to working precision (GRAM_FLOOR) raises ValueError."""
    window, delta = _ball_window(u.grid, center, r)
    mask = np.sqrt(np.sum(delta**2, axis=-1)) <= r + 1e-12
    vals = u.values[window][mask]
    if vals.size < 3 * u.grid.d:
        raise ValueError(f"ball of radius {r:g} holds only {vals.size} nodes")
    basis = delta[mask]
    if oscillation is not None:
        basis = basis + oscillation[window][mask]
    v0 = vals - vals.mean()
    centred = basis - basis.mean(axis=0)
    gram = np.einsum("ij,ik->jk", centred, centred)
    moment = np.einsum("ij,i->j", centred, v0)
    if u.grid.d == 1:
        det, adjugate = gram[0, 0], np.ones((1, 1))
    else:
        (a, b), (_, c) = gram
        det, adjugate = a * c - b * b, np.array([[c, -b], [-b, a]])
    if not det > GRAM_FLOOR * np.prod(np.diagonal(gram)):
        raise ValueError(f"ball of radius {r:g} at {tuple(map(float, center))}: the centred "
                         "basis is collinear, its Gram matrix not positive definite")
    xi = np.einsum("jk,k->j", adjugate, moment) / det
    return v0, np.einsum("ij,j->i", centred, xi), math.hypot(*xi)


def _shrunk_excess(v0, g, slope_norm: float, r: float,
                   vartheta: float) -> tuple[float, float]:
    """penalized_affine_excess of a _ball_fit, in closed form."""
    penalty = r ** (1.0 + vartheta) * slope_norm
    C = float(np.mean(g**2))
    E = float(np.mean((v0 - g) ** 2))
    t_star = 0.0
    if penalty**2 < C:
        t_star = max(0.0, 1.0 - penalty * math.sqrt(E / (C * (C - penalty**2))))
    rms = float(np.sqrt(np.mean((v0 - t_star * g) ** 2)))
    return (rms + t_star * penalty) / r, t_star * slope_norm


def penalized_affine_excess(u: GridFunction, center, r: float, *,
                            vartheta: float, oscillation=None) -> tuple[float, float]:
    """(1/r) inf_P [rms(u - P) + r^(1+vartheta) |grad P|], slope of the infimum.

    P ranges over affines c + xi . (x - center), optionally corrected by
    the sampled oscillation profile (one column per slope component).
    The slope is shrunk to t xi along the least-squares slope xi, with
    the constant re-optimized for every t.  The fit residual e = v0 - g
    (v0 and g the centred data and fitted part) is orthogonal to g, so
    the objective is sqrt(E + C (1-t)^2) + t P with E = mean(e^2),
    C = mean(g^2) and P = r^(1+vartheta) |xi|, convex on [0, 1] and
    minimized at t* = max(0, 1 - P sqrt(E / (C (C - P^2)))) when
    P^2 < C and at t* = 0 otherwise.
    """
    return _shrunk_excess(*_ball_fit(u, center, r, oscillation), r, vartheta)


def excess_rows(u: GridFunction, center, radii, *, theta: float = 1.0,
                p: float | None = None, forcing: GridFunction | None = None,
                oscillation=None) -> list[dict]:
    """Per-radius excess table: r, H, Phi, G, h.

    One plain affine fit per radius gives G, Phi and h: G its penalized
    excess, Phi the rms of the centred data (constants only) and h the
    least-squares slope magnitude.  H penalizes corrected affines, a
    second fit, when an oscillation profile is given and equals G
    otherwise.  Forcing adds r * (ball p-mean of |F|) to H, Phi, and G,
    with the regularity exponent capped at 1 - d/p.
    """
    p, vartheta = _exponents(u.grid.d, p, theta)
    rows = []
    for r in radii:
        force_term = 0.0
        if forcing is not None:
            force_term = r * ball_average(forcing, center, r, p=p)
        v0, g, slope_norm = _ball_fit(u, center, r)
        G, _ = _shrunk_excess(v0, g, slope_norm, r, vartheta)
        H = G
        if oscillation is not None:
            H, _ = penalized_affine_excess(u, center, r, vartheta=vartheta,
                                           oscillation=oscillation)
        rows.append({
            "r": float(r),
            "H": H + force_term,
            "Phi": float(np.sqrt(np.mean(v0**2))) / r + force_term,
            "G": G + force_term,
            "h": slope_norm,
        })
    return rows


# ---------------------------------------------------------------------------
# Lipschitz certificates


def _gradient_certificate(u: GridFunction, center, top_radius: float,
                          eps_floor: float, forcing: GridFunction | None,
                          face_term: float, p: float | None) -> dict:
    """Ball gradient rms over dyadic radii against its top-radius bound.

    The denominator is the top-radius level plus face_term plus the
    forcing p-mean at the top radius, scaled by it.
    """
    grid = u.grid
    p, _ = _exponents(grid.d, p)
    floor = max(eps_floor, 8.0 * max(grid.spacing))
    radii = dyadic_radii(top_radius, floor)
    grad = gradient(u)
    # slopes below the float noise of the data count as zero
    noise = 1e-12 * (ball_average(u, center, top_radius, p=2.0) / top_radius + 1.0)
    levels = {r: _denoise(ball_average(grad, center, r, p=2.0), noise)
              for r in radii}
    denom = levels[radii[0]] + face_term
    if forcing is not None:
        denom += top_radius * ball_average(forcing, center, top_radius, p=p)
    cert = max(_safe_ratio(levels[r], denom) for r in radii)
    return {"certificate": cert, "radii": radii, "levels": levels,
            "denominator": denom}


def lipschitz_certificate(u: GridFunction, center, top_radius: float, *,
                          eps_floor: float = 0.0,
                          forcing: GridFunction | None = None,
                          p: float | None = None) -> dict:
    """max over dyadic r of the gradient ball rms against its top-radius bound.

    The numerator is (ball rms of |grad u|) at radius r; the denominator
    adds the forcing p-mean at the top radius, scaled by it.  Radii run
    dyadically from top_radius down to max(eps_floor, 8h).  Affine data
    with no forcing certifies to 1; zero slope certifies to 0.
    """
    return _gradient_certificate(u, center, top_radius, eps_floor, forcing,
                                 0.0, p)


def boundary_lipschitz_flat(u: GridFunction, top_radius: float, *,
                            center=None, eps_floor: float = 0.0,
                            forcing: GridFunction | None = None,
                            face_data_norm: float = 0.0,
                            p: float | None = None) -> dict:
    """Half-ball gradient certificate at a point of the flat face x_d = lo.

    Z_r is the node ball around the face point clipped by the domain.
    The denominator carries the top-radius gradient average, the face
    data norm scaled by 1/R, and the forcing term; zero data on zero u
    certifies to 0 by convention.
    """
    grid = u.grid
    if center is None:
        mid = [(lo + hi) / 2 for lo, hi in zip(grid.lo, grid.hi)]
        mid[-1] = grid.lo[-1]
        center = tuple(mid)
    return _gradient_certificate(u, center, top_radius, eps_floor, forcing,
                                 face_data_norm / top_radius, p)


def face_data_norm_c1alpha(g, tangent_span, r: float, alpha: float) -> float:
    """sup |g| + r sup |g'| + r^(1+alpha) [g']_alpha on a flat face segment."""
    lo, hi = tangent_span
    t = np.linspace(lo, hi, FACE_SAMPLES)
    vals = np.asarray(g(t), dtype=float)
    step = t[1] - t[0]
    grad = np.gradient(vals, step)
    sup = float(np.max(np.abs(vals)))
    sup_grad = float(np.max(np.abs(grad)))
    seminorm = 0.0
    for lag in (1, 2, 4, 8, 16):
        diff = np.abs(grad[lag:] - grad[:-lag])
        seminorm = max(seminorm, float(np.max(diff)) / (lag * step) ** alpha)
    return sup + r * sup_grad + r ** (1.0 + alpha) * seminorm


# ---------------------------------------------------------------------------
# excess iteration and shrink-factor calibration


def calibrate_t(corpus, radii, *, theta: float = 1.0,
                p: float | None = None) -> dict:
    """Largest T_CANDIDATES shrink factor with G(t r) <= G(r)/2 on the corpus.

    The corpus holds homogenized solutions as (GridFunction, center)
    pairs; their excess carries no separation term, so the contraction
    must hold outright.  When no candidate contracts, ok is False and the
    worst ratio of the smallest testable candidate is reported.  A
    candidate whose shrunk ball falls under the grid resolution records
    a None ratio and cannot qualify.
    """
    report = {"ok": False, "t": None, "ratios": {}}
    excess = {}  # (corpus index, radius) -> G, or None if unresolvable

    def G(k: int, u: GridFunction, center, r: float, vartheta: float):
        if (k, r) not in excess:
            try:
                excess[k, r] = penalized_affine_excess(u, center, r,
                                                       vartheta=vartheta)[0]
            except ValueError:
                excess[k, r] = None
        return excess[k, r]

    for t in T_CANDIDATES:
        worst = 0.0
        for k, (u, center) in enumerate(corpus):
            _, vartheta = _exponents(u.grid.d, p, theta)
            for r in radii:
                g_r = G(k, u, center, r, vartheta)
                g_tr = None if g_r is None else G(k, u, center, t * r, vartheta)
                if g_tr is None:
                    worst = None
                    break
                worst = max(worst, _safe_ratio(g_tr, g_r))
            if worst is None:
                break
        report["ratios"][t] = worst
        if worst is not None and worst <= 0.5 and not report["ok"]:
            report.update(ok=True, t=t, worst_ratio=worst)
    if not report["ok"]:
        testable = {t: v for t, v in report["ratios"].items() if v is not None}
        report["worst_ratio"] = testable[min(testable)] if testable else None
    return report


def iteration_defects(u: GridFunction, center, radii, eps1: float, t: float, *,
                      theta: float = 1.0, p: float | None = None,
                      forcing: GridFunction | None = None,
                      oscillation=None) -> list[dict]:
    """Per-radius iteration defect [H(t r) - H(r)/2]_+ / Phi(2 r).

    The defect is what the separation term C (eps1/r)^rho must absorb; a
    zero driving excess with zero defect counts as 0.
    """
    rows = excess_rows(u, center,
                       list(radii) + [t * r for r in radii] + [2 * r for r in radii],
                       theta=theta, p=p, forcing=forcing, oscillation=oscillation)
    table = {row["r"]: row for row in rows}
    out = []
    for r in radii:
        lhs = table[float(t * r)]["H"]
        half = 0.5 * table[float(r)]["H"]
        phi = table[float(2 * r)]["Phi"]
        out.append({
            "r": float(r), "eps_over_r": eps1 / r, "H_tr": lhs, "H_r": 2 * half,
            "Phi_2r": phi, "defect": _safe_ratio(max(lhs - half, 0.0), phi),
        })
    return out


def fit_rho(defect_rows) -> float:
    """Exponent of the pooled defects against eps1/r; 0 when nothing drives."""
    pts = [(row["eps_over_r"], row["defect"]) for row in defect_rows
           if row["defect"] > 0.0]
    if len(pts) < 2:
        return 0.0
    return _slope(np.log([p[0] for p in pts]), np.log([p[1] for p in pts]))


def iteration_constant(defect_rows, rho: float) -> float:
    """Smallest C with defect <= C (eps1/r)^rho at every tested radius."""
    return max((_safe_ratio(row["defect"], row["eps_over_r"] ** rho)
                for row in defect_rows), default=0.0)
