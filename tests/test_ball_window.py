"""Ball probes on a window: bitwise equal to the full-grid scans they replace.

The oracles below are the full-grid implementations the probes used
before they learned to read only the window around their ball: each
builds grid.nodes() for the whole grid and masks it.  Every windowed
result must equal its oracle bit for bit, and every failure must carry
the same type and message.  The penalized excess oracle takes its shrink
factor in closed form; the golden-section search it replaced stays here
as a reference that the closed form must match.
"""

import numpy as np
import pytest

from reiterate import probes
from reiterate.errors import ResolutionError
from reiterate.grid import Grid, GridFunction, ball_average


# ---------------------------------------------------------------------------
# full-grid oracles


def full_ball_average(f, center, r, p=2.0):
    if p <= 0:
        raise ValueError("p must be positive")
    center = np.asarray(center, dtype=float)
    nodes = f.grid.nodes().reshape(-1, f.grid.d)
    inside = np.sum((nodes - center) ** 2, axis=1) <= r * r
    count = int(inside.sum())
    if count < 8:
        raise ResolutionError(
            f"ball of radius {r} holds {count} nodes (< 8); refine below h={max(f.grid.spacing)}"
        )
    mags = f.magnitude().reshape(-1)[inside]
    return float(np.mean(mags**p) ** (1.0 / p))


def full_ball_mask(grid, center, r):
    delta = grid.nodes() - np.asarray(center, dtype=float)
    return np.sqrt(np.sum(delta**2, axis=-1)) <= r + 1e-12


def full_affine_fit(u, center, r):
    # the former probes.affine_fit: excess_rows still reports its slope as h
    grid = u.grid
    mask = full_ball_mask(grid, center, r)
    count = int(mask.sum())
    if count < 3 * grid.d:
        raise ValueError(f"ball of radius {r:g} holds only {count} nodes")
    pts = grid.nodes()[mask] - np.asarray(center, dtype=float)
    vals = u.values[mask]
    design = np.concatenate([np.ones((count, 1)), pts], axis=1)
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    residual = vals - design @ coef
    return (float(coef[0]), coef[1:].copy(), float(np.sqrt(np.mean(residual**2))),
            count)


def _full_excess_parts(u, center, r, oscillation):
    """Centred ball data v0, centred fitted part g and the slope norm |xi|."""
    grid = u.grid
    mask = full_ball_mask(grid, center, r)
    pts = grid.nodes()[mask] - np.asarray(center, dtype=float)
    vals = u.values[mask]
    if vals.size < 3 * grid.d:
        raise ValueError(f"ball of radius {r:g} holds only {vals.size} nodes")
    basis = pts.copy()
    if oscillation is not None:
        basis = basis + oscillation[mask]
    design = np.concatenate([np.ones((vals.size, 1)), basis], axis=1)
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    xi = coef[1:]
    v0 = vals - vals.mean()
    g = basis @ xi
    return v0, g - g.mean(), float(np.linalg.norm(xi))


def full_penalized_affine_excess(u, center, r, *, vartheta, oscillation=None):
    v0, g, slope_norm = _full_excess_parts(u, center, r, oscillation)
    penalty = r ** (1.0 + vartheta) * slope_norm
    C = float(np.mean(g**2))
    E = float(np.mean((v0 - g) ** 2))
    t_star = 0.0
    if penalty**2 < C:
        t_star = max(0.0, 1.0 - penalty * np.sqrt(E / (C * (C - penalty**2))))
    rms = float(np.sqrt(np.mean((v0 - t_star * g) ** 2)))
    return (rms + t_star * penalty) / r, t_star * slope_norm


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_minimize(fn, lo, hi, iters=60):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def golden_penalized_affine_excess(u, center, r, *, vartheta, oscillation=None):
    """The shrink factor found by golden-section search instead of in closed form."""
    v0, g, slope_norm = _full_excess_parts(u, center, r, oscillation)
    penalty = r ** (1.0 + vartheta) * slope_norm

    def objective(t):
        return float(np.sqrt(np.mean((v0 - t * g) ** 2))) + t * penalty

    t_star = _golden_minimize(objective, 0.0, 1.0)
    if objective(0.0) <= objective(t_star):
        t_star = 0.0
    return objective(t_star) / r, t_star * slope_norm


def full_excess_rows(u, center, radii, *, theta=1.0, p=None, forcing=None,
                     oscillation=None):
    grid = u.grid
    d = grid.d
    if p is None:
        p = d + 1.0
    vartheta = min(theta, 1.0 - d / p) if p > d else theta
    rows = []
    for r in radii:
        force_term = 0.0
        if forcing is not None:
            force_term = r * full_ball_average(forcing, center, r, p=p)
        H, _ = full_penalized_affine_excess(u, center, r, vartheta=vartheta,
                                            oscillation=oscillation)
        if oscillation is None:
            G = H
        else:
            G, _ = full_penalized_affine_excess(u, center, r, vartheta=vartheta)
        _, slope, _, _ = full_affine_fit(u, center, r)
        mask = full_ball_mask(grid, center, r)
        flat = float(np.sqrt(np.mean((u.values[mask] - u.values[mask].mean()) ** 2)))
        rows.append({"r": float(r), "H": H + force_term, "Phi": flat / r + force_term,
                     "G": G + force_term, "h": float(np.linalg.norm(slope))})
    return rows


def old_calibrate_t(corpus, radii, *, candidates=probes.T_CANDIDATES, theta=1.0,
                    p=None):
    """calibrate_t as it was: G(r) evaluated again for every candidate."""
    report = {"ok": False, "t": None, "ratios": {}}
    for t in sorted(candidates, reverse=True):
        worst = 0.0
        for u, center in corpus:
            d = u.grid.d
            pp = p if p is not None else d + 1.0
            vartheta = min(theta, 1.0 - d / pp) if pp > d else theta
            for r in radii:
                try:
                    g_r, _ = probes.penalized_affine_excess(u, center, r,
                                                            vartheta=vartheta)
                    g_tr, _ = probes.penalized_affine_excess(u, center, t * r,
                                                             vartheta=vartheta)
                except ValueError:
                    worst = None
                    break
                worst = max(worst, probes._safe_ratio(g_tr, g_r))
            if worst is None:
                break
        report["ratios"][t] = worst
        if worst is not None and worst <= 0.5 and not report["ok"]:
            report.update(ok=True, t=t, worst_ratio=worst)
    if not report["ok"]:
        testable = {t: v for t, v in report["ratios"].items() if v is not None}
        report["worst_ratio"] = testable[min(testable)] if testable else None
    return report


# ---------------------------------------------------------------------------
# cases


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", fn(*args, **kwargs)
    except (ValueError, ResolutionError) as exc:
        return type(exc), str(exc)


def _same(a, b):
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


GRIDS = {
    "box1d": Grid.box(0.0, 1.0, 200),
    "box2d": Grid.box((-0.5, 0.25), (1.0, 1.5), (60, 44)),
    "torus2d": Grid.torus(2, 48),
}


def _centers(grid):
    h = grid.spacing
    lo, hi = grid.lo, grid.hi
    mid = [(a + b) / 2 for a, b in zip(lo, hi)]
    on_node = tuple(lo[a] + h[a] * (grid.node_shape[a] // 3) for a in range(grid.d))
    off_node = tuple(m + 0.37 * s for m, s in zip(mid, h))
    near_face = tuple([lo[0] + 0.6 * h[0]] + [m + 0.21 * s for m, s in zip(mid[1:], h[1:])])
    outside = tuple([hi[0] + 0.05] + mid[1:])
    return {"on_node": on_node, "off_node": off_node, "near_face": near_face,
            "outside": outside}


def _radii(grid):
    h = max(grid.spacing)
    # below h, at a node distance, a few cells, and larger than the domain
    return [0.4 * h, grid.spacing[0] * 3, 0.137, 0.31, 10.0]


def _fields(grid, seed=0):
    rng = np.random.default_rng(seed)
    d = grid.d
    x = grid.nodes()
    smooth = np.sin(3 * x[..., 0]) + (x[..., -1] ** 2 if d == 2 else 0.0)
    noise = rng.standard_normal(grid.node_shape)
    return {
        "scalar": GridFunction(grid, smooth + 0.1 * noise),
        "vector": GridFunction(grid, rng.standard_normal(grid.node_shape + (d,))),
        "matrix": GridFunction(grid, rng.standard_normal(grid.node_shape + (d, d))),
    }


CASES = [(g, c) for g in GRIDS for c in ("on_node", "off_node", "near_face", "outside")]


@pytest.mark.parametrize("grid_name,center_name", CASES)
def test_ball_average_equals_full_grid_scan(grid_name, center_name):
    grid = GRIDS[grid_name]
    center = _centers(grid)[center_name]
    for kind, f in _fields(grid).items():
        for r in _radii(grid):
            for p in (2.0, 3.0):
                got = _outcome(ball_average, f, center, r, p=p)
                want = _outcome(full_ball_average, f, center, r, p=p)
                assert _same(got, want), (kind, r, p, got, want)


@pytest.mark.parametrize("grid_name,center_name", CASES)
def test_affine_fits_and_excess_equal_full_grid_scan(grid_name, center_name):
    grid = GRIDS[grid_name]
    center = _centers(grid)[center_name]
    u = _fields(grid)["scalar"]
    ripple = 0.01 * np.sin(40 * grid.nodes())
    for r in _radii(grid):
        for oscillation in (None, ripple):
            assert _same(_outcome(probes._ball_fit, u, center, r, oscillation),
                         _outcome(_full_excess_parts, u, center, r, oscillation)), r
            got = _outcome(probes.penalized_affine_excess, u, center, r,
                           vartheta=0.5, oscillation=oscillation)
            want = _outcome(full_penalized_affine_excess, u, center, r,
                            vartheta=0.5, oscillation=oscillation)
            assert _same(got, want), (r, oscillation is None, got, want)


@pytest.mark.parametrize("grid_name,center_name", CASES)
def test_closed_form_excess_matches_golden_section_search(grid_name, center_name):
    grid = GRIDS[grid_name]
    center = _centers(grid)[center_name]
    u = _fields(grid)["scalar"]
    ripple = 0.01 * np.sin(40 * grid.nodes())
    for r in _radii(grid):
        for oscillation in (None, ripple):
            got = _outcome(full_penalized_affine_excess, u, center, r,
                           vartheta=0.5, oscillation=oscillation)
            ref = _outcome(golden_penalized_affine_excess, u, center, r,
                           vartheta=0.5, oscillation=oscillation)
            assert got[0] == ref[0], (r, got, ref)
            if got[0] == "ok":
                assert got[1][0] == pytest.approx(ref[1][0], rel=1e-14, abs=0.0)


@pytest.mark.parametrize("grid_name,center_name", CASES)
def test_excess_rows_equal_full_grid_scan(grid_name, center_name):
    grid = GRIDS[grid_name]
    center = _centers(grid)[center_name]
    fields = _fields(grid)
    u = fields["scalar"]
    forcing = fields["vector"]
    ripple = 0.01 * np.sin(40 * grid.nodes())
    radii = _radii(grid)[1:]
    for kwargs in ({}, {"forcing": forcing, "p": 3.0},
                   {"forcing": forcing, "oscillation": ripple, "theta": 0.5}):
        got = _outcome(probes.excess_rows, u, center, radii, **kwargs)
        want = _outcome(full_excess_rows, u, center, radii, **kwargs)
        assert _same(got, want), (kwargs.keys(), got, want)
    # a radius under the spacing fails with the full scan's message
    tiny = [0.4 * max(grid.spacing)]
    assert _same(_outcome(probes.excess_rows, u, center, tiny, forcing=forcing),
                 _outcome(full_excess_rows, u, center, tiny, forcing=forcing))


def test_probes_never_build_the_whole_node_array(monkeypatch):
    grid = GRIDS["box2d"]
    fields = _fields(grid)
    center = _centers(grid)["off_node"]

    def refuse(self):
        raise AssertionError("a ball probe built grid.nodes()")

    monkeypatch.setattr(Grid, "nodes", refuse)
    ball_average(fields["matrix"], center, 0.3)
    probes.penalized_affine_excess(fields["scalar"], center, 0.3, vartheta=0.5)
    probes.excess_rows(fields["scalar"], center, [0.2, 0.4], forcing=fields["vector"])
    probes.lipschitz_certificate(fields["scalar"], center, 0.4, forcing=fields["vector"])


# ---------------------------------------------------------------------------
# repeated evaluations


def _certify_corpus():
    # the certify layout: two homogenized-style entries at the box center,
    # radii top/2 and top with top = 64 h, so the 1/32 and 1/64 shrinks of
    # top/2 fall under the resolution and only 1/16 is testable
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 128)
    x = grid.nodes()
    u0 = GridFunction(grid, x[..., 0] * (1 - x[..., 0]) + 0.5 * x[..., 1] ** 2)
    lift = GridFunction(grid, x[..., 0] + 0.1 * np.sin(2 * x[..., 1]))
    return [(u0, (0.5, 0.5)), (lift, (0.5, 0.5))], [0.25, 0.5]


def _counting(monkeypatch):
    calls = []
    inner = probes.penalized_affine_excess

    def counted(u, center, r, **kw):
        calls.append(r)
        return inner(u, center, r, **kw)

    monkeypatch.setattr(probes, "penalized_affine_excess", counted)
    return calls


def test_calibrate_t_evaluates_each_radius_once(monkeypatch):
    corpus, radii = _certify_corpus()
    calls = _counting(monkeypatch)
    want = old_calibrate_t(corpus, radii)
    assert len(calls) == 12
    calls.clear()
    got = probes.calibrate_t(corpus, radii)
    assert len(calls) == 10
    assert got == want
    assert got["ratios"][1 / 32] is None and got["ratios"][1 / 64] is None


def test_calibrate_t_memo_keeps_failures_per_entry():
    # a coarse second entry fails where the fine first one resolves
    corpus, radii = _certify_corpus()
    coarse = Grid.box((0.0, 0.0), (1.0, 1.0), 32)
    x = coarse.nodes()
    corpus = corpus + [(GridFunction(coarse, x[..., 0] ** 2), (0.5, 0.5))]
    assert probes.calibrate_t(corpus, radii) == old_calibrate_t(corpus, radii)

