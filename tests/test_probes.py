import numpy as np
import pytest

from reiterate import probes
from reiterate.cascade import homogenize_all
from reiterate.coeff import CoefficientSpec, ScaleLadder, builtin_family
from reiterate.dirichlet import BVP, solve_multiscale
from reiterate.grid import Grid, GridFunction, solve_box_dirichlet

LAM1 = builtin_family(CoefficientSpec.parse("laminate1d(2+sin(2*pi*y1))"), 1)
PROD2 = builtin_family(
    CoefficientSpec.parse("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))"), 1)


def single_scale(eps: float) -> ScaleLadder:
    return ScaleLadder.power(eps, [1])


def two_scale(eps: float) -> ScaleLadder:
    return ScaleLadder.power(eps, [1, 2])


def oscillating_solution(eps: float, cells: int, boundary=lambda x: x[..., 0]):
    grid = Grid.box(0.0, 1.0, cells)
    bvp = BVP.on(grid, rhs=1.0, boundary=boundary)
    u = solve_multiscale(bvp, LAM1, single_scale(eps))
    forcing = GridFunction(grid, np.ones(grid.node_shape))
    return u, forcing


# ---------------------------------------------------------------------------
# rate sweeps


def test_separation_error_scale():
    assert probes.separation_error_scale(single_scale(1 / 8)) == 1 / 8
    # eps + eps^2/eps doubles the bare scale
    assert probes.separation_error_scale(two_scale(1 / 4)) == pytest.approx(1 / 2)


def test_dyadic_radii_run_down_to_the_floor():
    assert probes.dyadic_radii(0.5, 0.0625) == [0.5, 0.25, 0.125, 0.0625]
    assert probes.dyadic_radii(0.5, 0.7) == [0.5]


def test_rate_sweep_single_scale_is_first_order():
    sweep = probes.rate_sweep(LAM1, [2.0**-k for k in range(4, 8)], single_scale,
                              effective=homogenize_all(LAM1, tol=1e-11).effective)
    assert len(sweep.rows) == 4
    errs = np.array([row.l2_error for row in sweep.rows])
    assert np.all(np.diff(errs) < 0)
    assert 0.9 <= sweep.exponent <= 1.1
    assert sweep.rows[-1].slope_so_far == pytest.approx(1.0, abs=0.05)
    assert sweep.warnings == ()


def test_rate_sweep_two_scale_rate_expression_doubles_eps():
    sweep = probes.rate_sweep(PROD2, [1 / 4, 1 / 8], two_scale,
                              effective=homogenize_all(PROD2, tol=1e-11).effective)
    for row in sweep.rows:
        assert row.rate_expr == pytest.approx(2 * row.eps)
    assert sweep.rows[0].l2_error > sweep.rows[1].l2_error
    assert any("only 2 scales" in w for w in sweep.warnings)


def test_rate_sweep_drops_unresolvable_scales():
    # eps = 1/8192 needs 131,072 cells, over the 1D cap, and is dropped unsolved
    sweep = probes.rate_sweep(LAM1, [1 / 8, 1 / 8192], single_scale,
                              effective=homogenize_all(LAM1, tol=1e-11).effective)
    assert len(sweep.rows) == 1
    assert sweep.rows[0].eps == 1 / 8
    assert any("dropped" in w for w in sweep.warnings)
    assert sweep.exponent == 0.0


# ---------------------------------------------------------------------------
# local approximation probe


def test_local_approximation_decays_linearly():
    out = probes.approximation_sweep(
        LAM1, [2.0**-k for k in range(5, 8)], single_scale,
        effective=homogenize_all(LAM1, tol=1e-11).effective)
    vals = [rep["discrepancy"] for rep in out["reports"]]
    assert np.all(np.diff(vals) < 0)
    assert 0.8 <= out["exponent"] <= 1.2
    ratios = [rep["bound_ratio"] for rep in out["reports"]]
    assert all(0 < ratio < 1 for ratio in ratios)


def test_local_approximation_constant_coefficient_is_exact():
    const = builtin_family(CoefficientSpec.parse("constant(3)"), 1)
    rep = probes.approximate_by_homogenized(
        const, single_scale(1 / 32),
        effective=homogenize_all(const, tol=1e-11).effective)
    # the homogenized solve with the exact trace reproduces the solution
    assert rep["discrepancy"] <= 1e-12


def test_local_approximation_requires_coarse_scale_under_radius():
    with pytest.raises(ValueError, match="probe radius"):
        probes.approximate_by_homogenized(
            LAM1, single_scale(1 / 2), r=0.25,
            effective=homogenize_all(LAM1, tol=1e-11).effective)


# ---------------------------------------------------------------------------
# ball affine fits


def test_affine_fit_recovers_affine_exactly():
    # the one ball fit behind every excess column: an affine is its own fit
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 32)
    pts = grid.nodes()
    u = GridFunction(grid, 0.7 + 1.5 * pts[..., 0] - 2.5 * pts[..., 1])
    v0, g, slope_norm = probes._ball_fit(u, (0.5, 0.5), 0.3)
    assert slope_norm == pytest.approx(np.hypot(1.5, 2.5), abs=1e-11)
    assert np.sqrt(np.mean((v0 - g) ** 2)) <= 1e-11
    assert v0.size > 100
    assert probes.excess_rows(u, (0.5, 0.5), [0.3])[0]["h"] == slope_norm


def test_affine_fit_needs_enough_nodes():
    grid = Grid.box(0.0, 1.0, 16)
    u = GridFunction(grid, np.zeros(grid.node_shape))
    with pytest.raises(ValueError, match="nodes"):
        probes.penalized_affine_excess(u, (0.5,), 0.01, vartheta=0.5)
    with pytest.raises(ValueError, match="nodes"):
        probes.excess_rows(u, (0.5,), [0.01])


def test_penalized_excess_affine_oracle():
    # for an affine with slope 3, the infimum is the bare slope penalty:
    # H = r^vartheta * 3 once r^vartheta < rms(x)/r on the ball
    grid = Grid.box(0.0, 1.0, 1024)
    u = GridFunction(grid, 3.0 * grid.nodes()[..., 0])
    H, slope = probes.penalized_affine_excess(u, (0.5,), 0.125, vartheta=0.5)
    assert H == pytest.approx(np.sqrt(0.125) * 3.0, rel=1e-6)
    assert slope == pytest.approx(3.0, rel=1e-6)


def _affine_plus_bump(a):
    # u = 1 + 2 (x - 1/2) + a e on 256 cells, e = (x - 1/2)^2 made orthogonal
    # to {1, x - 1/2} on the nodes of the ball B(1/2, 1/8)
    grid = Grid.box(0.0, 1.0, 256)
    delta = grid.nodes()[..., 0] - 0.5
    ball = np.abs(delta) <= 0.125 + 1e-12
    design = np.stack([np.ones(int(ball.sum())), delta[ball]], axis=1)
    coef, *_ = np.linalg.lstsq(design, delta[ball] ** 2, rcond=None)
    e = delta**2 - coef[0] - coef[1] * delta
    return GridFunction(grid, 1.0 + 2.0 * delta + a * e), delta[ball], e[ball]


@pytest.mark.parametrize("a", [0.3, 3.0, 30.0])
def test_penalized_excess_closed_form_on_affine_plus_orthogonal_bump(a):
    r, vartheta = 0.125, 0.5
    u, delta, e = _affine_plus_bump(a)
    E = a**2 * np.mean(e**2)
    C = 4.0 * np.mean((delta - delta.mean()) ** 2)
    P = r ** (1.0 + vartheta) * 2.0
    t = 1.0 - P * np.sqrt(E / (C * (C - P**2)))
    assert 0.0 < t < 1.0
    H, slope = probes.penalized_affine_excess(u, (0.5,), r, vartheta=vartheta)
    assert H == pytest.approx((np.sqrt(E + C * (1 - t) ** 2) + t * P) / r,
                              rel=1e-12, abs=0.0)
    assert slope == pytest.approx(2.0 * t, rel=1e-12, abs=0.0)


def test_penalized_excess_keeps_constants_when_the_penalty_dominates():
    # P^2 >= C: every shrink of the slope costs more than it saves
    r = 0.125
    u, delta, _ = _affine_plus_bump(3.0)
    assert (r * 2.0) ** 2 >= 4.0 * np.mean(delta**2)
    vals = u.values[np.abs(u.grid.nodes()[..., 0] - 0.5) <= r + 1e-12]
    H, slope = probes.penalized_affine_excess(u, (0.5,), r, vartheta=0.0)
    assert slope == 0.0
    assert H == pytest.approx(np.sqrt(np.mean((vals - vals.mean()) ** 2)) / r,
                              rel=1e-14, abs=0.0)


def test_excess_rows_affine_slope_column():
    grid = Grid.box(0.0, 1.0, 512)
    u = GridFunction(grid, 1.0 - 2.0 * grid.nodes()[..., 0])
    rows = probes.excess_rows(u, (0.5,), [0.0625, 0.125, 0.25])
    for row in rows:
        assert row["h"] == pytest.approx(2.0, abs=1e-10)
        assert row["G"] == row["H"]
        assert row["H"] <= row["Phi"] + 1e-12


def test_excess_constants_dominate_affine_infimum():
    # property: H <= Phi at every radius, since constants are competitors
    u, _ = oscillating_solution(1 / 32, 2048)
    rows = probes.excess_rows(u, (0.5,), [1 / 16, 1 / 8, 1 / 4])
    for row in rows:
        assert row["H"] <= row["Phi"] + 1e-12


def test_excess_forcing_term_enters_all_columns():
    grid = Grid.box(0.0, 1.0, 512)
    u = GridFunction(grid, 2.0 * grid.nodes()[..., 0])
    f = GridFunction(grid, np.full(grid.node_shape, 3.0))
    plain = probes.excess_rows(u, (0.5,), [0.25])[0]
    forced = probes.excess_rows(u, (0.5,), [0.25], forcing=f)[0]
    for key in ("H", "Phi", "G"):
        assert forced[key] == pytest.approx(plain[key] + 0.25 * 3.0, rel=1e-9)
    assert forced["h"] == plain["h"]


def test_corrected_competitors_explain_corrected_affine():
    # u = x + eps*phi(x/eps): the corrected family fits it exactly, so the
    # excess collapses to the slope penalty; plain affines keep the ripple
    eps = 1 / 64
    grid = Grid.box(0.0, 1.0, 1024)
    x = grid.nodes()[..., 0]
    ripple = eps * np.sin(2 * np.pi * x / eps) / (2 * np.pi)
    u = GridFunction(grid, x + ripple)
    H_corr, _ = probes.penalized_affine_excess(u, (0.5,), 1 / 32, vartheta=0.5,
                                               oscillation=ripple[..., None])
    H_plain, _ = probes.penalized_affine_excess(u, (0.5,), 1 / 32, vartheta=0.5)
    assert H_corr == pytest.approx(np.sqrt(1 / 32), rel=1e-3)
    assert H_plain - H_corr > 0.03


# ---------------------------------------------------------------------------
# excess properties on an oscillating solve


def test_phi_dominated_by_excess_plus_slope():
    u, forcing = oscillating_solution(1 / 32, 2048)
    rows = probes.excess_rows(u, (0.5,), [1 / 16, 1 / 8, 1 / 4], forcing=forcing)
    for row in rows:
        poincare = probes._safe_ratio(max(row["Phi"] - row["H"], 0.0), row["h"])
        assert poincare <= 1.0


def test_slope_coherent_within_octave():
    u, _ = oscillating_solution(1 / 32, 2048)
    for base in (1 / 8, 1 / 4):
        rows = probes.excess_rows(u, (0.5,),
                                  [base, 1.25 * base, 1.5 * base, 2 * base])
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                gap = abs(rows[i]["h"] - rows[j]["h"])
                assert gap <= 0.1 * (rows[i]["H"] + rows[j]["H"])


def test_excess_and_slope_conclusion_bounded():
    eps = 1 / 32
    u, forcing = oscillating_solution(eps, 2048)
    radii = probes.dyadic_radii(0.5, eps)
    rows = probes.excess_rows(u, (0.5,), radii, forcing=forcing)
    top = rows[0]
    for row in rows:
        assert row["H"] + row["h"] <= 2.0 * (top["H"] + top["h"])


# ---------------------------------------------------------------------------
# interior certificate


def test_certificate_affine_is_one():
    grid = Grid.box(0.0, 1.0, 512)
    u = GridFunction(grid, 1.0 + 2.0 * grid.nodes()[..., 0])
    rep = probes.lipschitz_certificate(u, (0.5,), 0.5)
    assert rep["certificate"] == pytest.approx(1.0, abs=1e-12)
    assert rep["radii"][0] == 0.5


def test_certificate_flat_data_is_zero():
    grid = Grid.box(0.0, 1.0, 256)
    for level in (0.0, 4.2, 4200.0):
        u = GridFunction(grid, np.full(grid.node_shape, level))
        assert probes.lipschitz_certificate(u, (0.5,), 0.5)["certificate"] == 0.0


def test_certificate_forcing_scales_with_the_radius():
    # u = -|x - c|^2 / 4 solves -Lap u = 1 with its own boundary data; its
    # gradient rms over B(c, r) is r / (2 sqrt 2) and the forcing term at the
    # top radius R is R, so every R certifies to 1 / (1 + 2 sqrt 2).  A forcing
    # term of R^2 would read 1 / (1 + 2 sqrt 2 R): 0.59 at R = 1/4, 0.74 at 1/8
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 64)
    c = np.array([0.5, 0.5])
    exact = -np.sum((grid.nodes() - c) ** 2, axis=-1) / 4.0
    forcing = GridFunction.constant(grid, 1.0)
    u = solve_box_dirichlet(GridFunction.constant(grid, np.eye(2)), forcing,
                            GridFunction(grid, exact))
    assert np.max(np.abs(u.values - exact)) <= 1e-12
    for top in (1 / 4, 1 / 8):
        rep = probes.lipschitz_certificate(u, c, top, forcing=forcing)
        assert rep["certificate"] == pytest.approx(1 / (1 + 2 * np.sqrt(2)), rel=1e-2), top


def test_certificate_radii_respect_scale_floor():
    grid = Grid.box(0.0, 1.0, 4096)
    u = GridFunction(grid, grid.nodes()[..., 0])
    rep = probes.lipschitz_certificate(u, (0.5,), 0.5, eps_floor=1 / 16)
    assert min(rep["radii"]) >= 1 / 16
    rep = probes.lipschitz_certificate(u, (0.5,), 0.5)
    assert min(rep["radii"]) >= 8 / 4096


def test_certificate_stable_under_scale_halving():
    certs = []
    for eps in (2.0**-3, 2.0**-4):
        ladder = two_scale(eps)
        n = int(np.ceil(16 / ladder.finest))
        grid = Grid.box(0.0, 1.0, n)
        bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: x[..., 0])
        u = solve_multiscale(bvp, PROD2, ladder)
        forcing = GridFunction(grid, np.ones(grid.node_shape))
        rep = probes.lipschitz_certificate(u, (0.5,), 0.5,
                                           eps_floor=ladder.finest,
                                           forcing=forcing)
        certs.append(rep["certificate"])
    assert 0.5 <= certs[1] / certs[0] <= 2.0
    assert all(0.1 < c < 10 for c in certs)


def test_certificate_rescaling_covariance():
    # v(x) = u(x/2) on the doubled box with doubled radii reuses the exact
    # node geometry, so the certificate reproduces bitwise
    eps = 1 / 32
    u, _ = oscillating_solution(eps, 2048)
    doubled = Grid.box(0.0, 2.0, 2048)
    v = GridFunction(doubled, u.values)
    c_u = probes.lipschitz_certificate(u, (0.375,), 0.25,
                                       eps_floor=eps)["certificate"]
    c_v = probes.lipschitz_certificate(v, (0.75,), 0.5,
                                       eps_floor=2 * eps)["certificate"]
    assert c_v == pytest.approx(c_u, abs=1e-12)
    assert c_u > 0


# ---------------------------------------------------------------------------
# flat boundary certificate


def test_boundary_certificate_zero_data_is_zero():
    grid = Grid.box(0.0, 1.0, 256)
    u = GridFunction(grid, np.zeros(grid.node_shape))
    assert probes.boundary_lipschitz_flat(u, 0.25)["certificate"] == 0.0


def test_boundary_certificate_affine_within_quadrature_slack():
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 64)
    u = GridFunction(grid, 3.0 * grid.nodes()[..., 1])
    rep = probes.boundary_lipschitz_flat(u, 0.25, center=(0.5, 0.0))
    assert 0.9 <= rep["certificate"] <= 1.1
    # face data pushes the certificate strictly below one
    rep = probes.boundary_lipschitz_flat(u, 0.25, center=(0.5, 0.0),
                                         face_data_norm=0.2)
    assert rep["certificate"] < 1.0


def test_boundary_certificate_oscillating_2d():
    lam2 = builtin_family(CoefficientSpec.parse("laminate1d(2+sin(2*pi*y1))"), 2)
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 128)
    bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: np.sin(np.pi * x[..., 0]))
    u = solve_multiscale(bvp, lam2, single_scale(1 / 8), tol=1e-9)
    forcing = GridFunction(grid, np.ones(grid.node_shape))
    face = probes.face_data_norm_c1alpha(lambda t: np.sin(np.pi * t),
                                         (0.25, 0.75), 0.25, 0.5)
    rep = probes.boundary_lipschitz_flat(u, 0.25, center=(0.5, 0.0),
                                         eps_floor=1 / 8, forcing=forcing,
                                         face_data_norm=face)
    assert 0.05 <= rep["certificate"] <= 1.0


def test_face_norm_constants_and_oscillation():
    norm = probes.face_data_norm_c1alpha
    assert norm(lambda t: 0.0 * t, (0.0, 1.0), 0.25, 0.5) == 0.0
    assert norm(lambda t: 0.0 * t + 2.0, (0.0, 1.0), 0.25, 0.5) == pytest.approx(2.0)
    wavy = norm(lambda t: np.sin(2 * np.pi * t), (0.0, 1.0), 0.25, 0.5)
    assert wavy >= 1.0 + 0.25 * 2 * np.pi * 0.99


# ---------------------------------------------------------------------------
# shrink calibration and excess iteration


def test_calibrate_t_contracts_on_homogenized_corpus():
    grid = Grid.box(0.0, 1.0, 4096)
    x = grid.nodes()[..., 0]
    corpus = [
        (GridFunction(grid, 0.3 + 1.7 * x), (0.5,)),
        (GridFunction(grid, x - x**2), (0.5,)),
        (GridFunction(grid, np.exp(0.3 * x)), (0.5,)),
    ]
    report = probes.calibrate_t(corpus, [1 / 8, 1 / 4])
    assert report["ok"]
    # the largest candidate already contracts, and ratios shrink with t
    assert report["t"] == 1 / 16
    assert report["worst_ratio"] <= 0.5
    assert report["ratios"][1 / 64] < report["ratios"][1 / 16]


def test_calibrate_t_skips_unresolvable_candidates():
    # 128 cells: the 1/64 shrink of r=1/8 falls below the node resolution
    grid = Grid.box(0.0, 1.0, 128)
    x = grid.nodes()[..., 0]
    corpus = [(GridFunction(grid, 0.3 + 1.7 * x), (0.5,))]
    report = probes.calibrate_t(corpus, [1 / 8, 1 / 4])
    assert report["ok"] and report["t"] == 1 / 16
    assert report["ratios"][1 / 64] is None


def test_calibrate_t_reports_failure():
    # white-noise style data has scale-free excess: no candidate contracts
    grid = Grid.box(0.0, 1.0, 2048)
    rng = np.random.default_rng(7)
    u = GridFunction(grid, rng.normal(size=grid.node_shape))
    report = probes.calibrate_t([(u, (0.5,))], [1 / 4])
    assert not report["ok"]
    assert report["t"] is None
    assert report["worst_ratio"] > 0.5


def test_iteration_defect_zero_for_slack_inequality():
    # the solve itself contracts outright: H(tr) <= H(r)/2 with no help
    eps = 1 / 32
    grid = Grid.box(0.0, 1.0, 2048)
    bvp = BVP.on(grid, rhs=1.0)
    u = solve_multiscale(bvp, LAM1, single_scale(eps))
    forcing = GridFunction(grid, np.ones(grid.node_shape))
    rows = probes.iteration_defects(u, (0.5,), [1 / 16, 1 / 8, 1 / 4], eps, 1 / 16,
                                    forcing=forcing)
    assert all(row["defect"] == 0.0 for row in rows)
    assert probes.fit_rho(rows) == 0.0
    assert probes.iteration_constant(rows, 0.5) == 0.0


def test_iteration_constant_absorbs_pure_oscillation():
    # a mean-free ripple cannot contract by affine fitting alone, so the
    # defect is positive and the separation term must carry it
    eps = 1 / 32
    grid = Grid.box(0.0, 1.0, 4096)
    x = grid.nodes()[..., 0]
    u = GridFunction(grid, eps * np.sin(2 * np.pi * x / eps) / (2 * np.pi))
    rows = probes.iteration_defects(u, (0.5,), [1 / 16, 1 / 8, 1 / 4], eps, 1 / 16)
    assert all(row["defect"] > 1.0 for row in rows)
    rho = probes.fit_rho(rows)
    C = probes.iteration_constant(rows, rho)
    assert C > 0.0
    for row in rows:
        assert row["defect"] <= C * row["eps_over_r"] ** rho + 1e-9
