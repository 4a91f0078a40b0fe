"""Acceptance gate: eleven numbered criteria, one test per criterion.

Each test checks the substance first and its runtime budget last, then
prints a single `criterion NN PASS` line with the measured numbers
(visible under `pytest -s`; `pytest -v` shows one line per criterion
either way).  Expensive intermediates are stashed in a module-level dict
so later criteria can reuse them, but every test also works standalone.
"""

import json
import time

import numpy as np
import pytest

from reiterate import probes
from reiterate.cascade import homogenize_all
from reiterate.cell import (
    CellStack,
    effective_tensor,
    flux_correctors,
    flux_matrix,
    solve_corrector,
)
from reiterate.cli import main as cli_main
from reiterate.coeff import CoefficientSpec, ScaleLadder, builtin_family
from reiterate.dirichlet import (
    BVP,
    error_report,
    solve_homogenized,
    solve_multiscale,
    two_scale_expansion,
)
from reiterate.grid import Grid, GridFunction, mean
from reiterate.smoothing import commutator_ratios, l2_bound_ratios

LAM1 = builtin_family(CoefficientSpec.parse("laminate1d(2+sin(2*pi*y1))"), 1)
PROD2 = builtin_family(
    CoefficientSpec.parse("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))"), 1)

_shared: dict = {}


def _pass(num: int, detail: str) -> None:
    print(f"criterion {num:02d} PASS: {detail}")


def single_scale(eps: float) -> ScaleLadder:
    return ScaleLadder.power(eps, [1])


def two_scale(eps: float) -> ScaleLadder:
    return ScaleLadder.power(eps, [1, 2])


def _product_solutions() -> dict:
    """Two-scale solves of -div(a(x/e, x/e^2) grad u) = 1, u = x on the edges."""
    if "product_solutions" not in _shared:
        sols = {}
        for k in (3, 4, 5):
            eps = 2.0**-k
            ladder = two_scale(eps)
            n = int(round(16 / ladder.finest))
            grid = Grid.box(0.0, 1.0, n)
            bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: x[..., 0])
            u = solve_multiscale(bvp, PROD2, ladder, tol=1e-11)
            forcing = GridFunction(grid, np.ones(grid.node_shape))
            sols[eps] = (u, forcing, ladder, grid)
        _shared["product_solutions"] = sols
    return _shared["product_solutions"]


def _product_effective():
    if "product_effective" not in _shared:
        _shared["product_effective"] = homogenize_all(
            PROD2, resolution=128, tol=1e-10).effective
    return _shared["product_effective"]


def test_criterion_01_cascade_oracle_nested_harmonic_means():
    start = time.perf_counter()
    # independent oracle: nested harmonic means by midpoint quadrature,
    # closed forms sqrt(3)*(2+sin 2 pi y1) and 3
    m = 1 << 15
    ym = (np.arange(m) + 0.5) / m
    inv_inner = float(np.mean(1.0 / (2.0 + np.sin(2 * np.pi * ym))))

    def a1_oracle(s):
        return (2.0 + np.sin(2 * np.pi * s)) / inv_inner

    ahat_oracle = 1.0 / float(np.mean(1.0 / a1_oracle(ym)))
    assert ahat_oracle == pytest.approx(3.0, abs=1e-10)

    result = homogenize_all(PROD2, resolution=256, tol=1e-12,
                            slot_resolution=1024)
    a1 = result.levels[0].field
    # probe off the tabulation nodes so interpolation error is included
    s = ((np.arange(200) + 0.5) / 200).reshape(-1, 1)
    vals = a1(np.zeros_like(s), [s])[:, 0, 0]
    sup_dev = float(np.max(np.abs(vals - a1_oracle(s[:, 0]))))
    assert sup_dev <= 1e-4

    ahat = float(result.effective.tensor[0, 0])
    assert ahat == pytest.approx(3.0, abs=1e-4)
    assert ahat == pytest.approx(ahat_oracle, abs=1e-4)

    _shared["product_effective"] = result.effective
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(1, f"A1 sup deviation {sup_dev:.2e} <= 1e-4, "
             f"A_hat {ahat:.8f} = 3 +/- 1e-4 ({elapsed:.1f}s < 30s)")


def test_criterion_02_checkerboard_oracle_geometric_mean():
    start = time.perf_counter()
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    target = 2.0 * np.eye(2)  # phase-swap duality: sqrt(1*4) I
    coarse = homogenize_all(field, resolution=128, tol=1e-10).effective.tensor
    fine = homogenize_all(field, resolution=256, tol=1e-10).effective.tensor
    dev = float(np.max(np.abs(fine - target)))
    assert dev <= 0.04  # 2% of 2
    assert float(np.max(np.abs(coarse - target))) <= 0.04
    # mesh cross-check: halving the cell grid barely moves the tensor
    mesh_gap = float(np.max(np.abs(fine - coarse)))
    assert mesh_gap <= 0.02
    det_dev = abs(float(np.sqrt(np.linalg.det(fine))) - 2.0)
    assert det_dev <= 0.04
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(2, f"|A_hat - 2I| = {dev:.2e} <= 0.04 at 256^2, mesh gap "
             f"{mesh_gap:.2e}, sqrt(det) off by {det_dev:.2e} ({elapsed:.1f}s < 120s)")


def test_criterion_03_flux_corrector_identities():
    start = time.perf_counter()
    lam2 = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    cb2 = builtin_family("checkerboard2d(1, 4, 8)", 2)

    def cell_flux(field, d, n):
        stack = CellStack.from_sampler(
            lambda y: field(np.zeros_like(y), [y]), d=d, resolution=n, tol=1e-11)
        chi, _, _ = solve_corrector(stack)
        tensors, _ = effective_tensor(stack, chi)
        return flux_matrix(stack, chi, tensors)

    worst_mean = 0.0
    for field, d, n in ((LAM1, 1, 256), (lam2, 2, 64), (cb2, 2, 64)):
        B = cell_flux(field, d, n)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean(B)))))
        assert worst_mean <= 1e-8
        data = flux_correctors(B)
        for k in range(d):
            for i in range(d):
                assert np.array_equal(data.phi[k, i], -data.phi[i, k])
        assert data.residuals["skew_defect"] == 0.0

    # reconstruction residual drops by >= 3.5x per mesh doubling; the sharp
    # checkerboard needs one extra octave before the second-order regime
    decay = {}
    for name, field, meshes in (("laminate", lam2, (32, 64, 128)),
                                ("checkerboard", cb2, (64, 128, 256))):
        residuals = [
            flux_correctors(cell_flux(field, 2, n))
            .residuals["max_reconstruction_l2"]
            for n in meshes
        ]
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5
        decay[name] = (residuals[0] / residuals[1], residuals[1] / residuals[2])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(3, f"max |mean(B)| = {worst_mean:.2e} <= 1e-8, skew exact, "
             f"residual decay {decay} all >= 3.5 ({elapsed:.1f}s < 60s)")


def test_criterion_04_l2_rate_single_and_two_scale():
    start = time.perf_counter()
    sweep1 = probes.rate_sweep(LAM1, [2.0**-k for k in range(4, 9)], single_scale,
                               effective=homogenize_all(LAM1, tol=1e-11).effective)
    assert sweep1.warnings == ()
    assert len(sweep1.rows) == 5
    assert 0.9 <= sweep1.exponent <= 1.1

    sweep2 = probes.rate_sweep(PROD2, [2.0**-k for k in range(2, 6)], two_scale,
                               effective=homogenize_all(PROD2, tol=1e-11).effective)
    assert len(sweep2.rows) == 4
    for row in sweep2.rows:
        assert row.rate_expr == pytest.approx(2 * row.eps)
    assert 0.8 <= sweep2.exponent <= 1.2
    elapsed = time.perf_counter() - start
    _shared["c4_elapsed"] = elapsed
    assert elapsed < 180.0
    _pass(4, f"single-scale exponent {sweep1.exponent:.4f} in [0.9, 1.1], "
             f"two-scale exponent {sweep2.exponent:.4f} in [0.8, 1.2] "
             f"({elapsed:.1f}s < 180s)")


def test_criterion_05_h1_two_scale_bound():
    start = time.perf_counter()
    cascade = homogenize_all(LAM1, resolution=512, tol=1e-12,
                             retain_correctors=True)
    eps_values = [2.0**-k for k in range(4, 9)]
    h1 = []
    for eps in eps_values:
        ladder = single_scale(eps)
        grid = Grid.box(0.0, 1.0, int(round(16 / eps)))
        bvp = BVP.on(grid, rhs=1.0, boundary=0.0)
        u_eps = solve_multiscale(bvp, LAM1, ladder, tol=1e-12)
        u0 = solve_homogenized(bvp, cascade.effective, tol=1e-12)
        approx = two_scale_expansion(u0, cascade.corrector_table, ladder)
        h1.append(error_report(u_eps, approx)["h1"])
    slope = float(np.polyfit(np.log(eps_values), np.log(h1), 1)[0])
    assert slope >= 0.4
    elapsed = time.perf_counter() - start
    # shares the criterion-4 budget
    assert elapsed + _shared.get("c4_elapsed", 0.0) < 180.0
    _pass(5, f"H1 defect exponent {slope:.4f} >= 0.4 over eps "
             f"2^-4..2^-8 ({elapsed:.1f}s, within the criterion-4 budget)")


def test_criterion_06_smoothing_bounds():
    start = time.perf_counter()
    grid = Grid.torus(1, 4096)
    slow = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x[..., 0])
    fast = lambda y: 2.0 + np.sin(2 * np.pi * y[..., 0])
    eps_values = [1 / 8, 1 / 16, 1 / 32, 1 / 64]

    s1 = l2_bound_ratios(grid, slow, fast, eps_values)
    assert min(s1) > 0
    assert all(r <= 2.0 * s1[0] for r in s1)

    multiplier = lambda x: np.sin(2 * np.pi * x[..., 0])
    ripple = lambda y: np.cos(2 * np.pi * y[..., 0])
    s2 = commutator_ratios(grid, multiplier, ripple, eps_values)
    assert all(r <= 2.0 * s2[0] for r in s2)

    ones = lambda y: np.ones(y.shape[:-1])
    unit = l2_bound_ratios(grid, slow, ones, eps_values)
    assert all(r <= 1.0 for r in unit)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _pass(6, f"stability ratios max/first {max(s1) / s1[0]:.3f} and "
             f"{max(s2) / s2[0]:.3f} <= 2, unit fast factor max "
             f"{max(unit):.6f} <= 1 ({elapsed:.1f}s < 30s)")


def test_criterion_07_local_approximation_probe():
    start = time.perf_counter()
    out = probes.approximation_sweep(
        LAM1, [2.0**-k for k in range(5, 9)], single_scale,
        effective=homogenize_all(LAM1, tol=1e-11).effective)
    vals = [rep["discrepancy"] for rep in out["reports"]]
    assert all(rep["r"] == 0.25 for rep in out["reports"])
    assert np.all(np.diff(vals) < 0)
    assert out["exponent"] >= 0.5

    const = builtin_family("constant(3)", 1)
    rep = probes.approximate_by_homogenized(
        const, single_scale(1 / 32), tol=1e-10,
        effective=homogenize_all(const, tol=1e-11).effective)
    assert rep["discrepancy"] <= 2e-10  # twice the solver tolerance
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _pass(7, f"ball discrepancy exponent {out['exponent']:.4f} >= 0.5, "
             f"constant-coefficient control {rep['discrepancy']:.2e} <= 2e-10 "
             f"({elapsed:.1f}s < 60s)")


def test_criterion_08_interior_lipschitz_certificate():
    start = time.perf_counter()
    certs = []
    for eps in sorted(_product_solutions(), reverse=True):
        u, forcing, ladder, _ = _product_solutions()[eps]
        rep = probes.lipschitz_certificate(u, (0.5,), 0.5,
                                           eps_floor=ladder.finest,
                                           forcing=forcing)
        assert max(rep["radii"]) == 0.5
        assert min(rep["radii"]) >= ladder.finest
        certs.append(rep["certificate"])
    ratios = [b / a for a, b in zip(certs, certs[1:])]
    assert all(0.5 <= r <= 2.0 for r in ratios)

    grid = Grid.box(0.0, 1.0, 1024)
    affine = GridFunction(grid, 0.25 + 1.5 * grid.nodes()[..., 0])
    control = probes.lipschitz_certificate(affine, (0.5,), 0.5)["certificate"]
    assert control == pytest.approx(1.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _pass(8, f"certificates {[f'{c:.4f}' for c in certs]} with halving ratios "
             f"{[f'{r:.3f}' for r in ratios]} in [0.5, 2], affine control "
             f"{control:.12f} ({elapsed:.1f}s < 180s)")


def test_criterion_09_excess_iteration_inequality():
    start = time.perf_counter()
    # calibrate the shrink factor on homogenized solves
    effective = _product_effective()
    grid = Grid.box(0.0, 1.0, 4096)
    lift = lambda x: x[..., 0]
    u0 = solve_homogenized(BVP.on(grid, rhs=1.0, boundary=lift), effective,
                           tol=1e-12)
    u0_lift = solve_homogenized(BVP.on(grid, rhs=0.0, boundary=lift),
                                effective, tol=1e-12)
    cal = probes.calibrate_t([(u0, (0.5,)), (u0_lift, (0.5,))], [1 / 8, 1 / 4])
    assert cal["ok"]
    t = cal["t"]
    assert t in (1 / 16, 1 / 32, 1 / 64)

    pooled = []
    per_eps = {}
    for eps in sorted(_product_solutions(), reverse=True):
        u, forcing, ladder, grid_e = _product_solutions()[eps]
        floor = max(ladder.scales[0], 8 * grid_e.spacing[0] / t)
        radii = probes.dyadic_radii(0.25, floor)
        rows = probes.iteration_defects(u, (0.5,), radii, ladder.scales[0], t,
                                        forcing=forcing)
        per_eps[eps] = rows
        pooled.extend(rows)
    rho = probes.fit_rho(pooled)
    constants = []
    for eps, rows in per_eps.items():
        c = probes.iteration_constant(rows, rho)
        assert np.isfinite(c) and c >= 0.0
        for row in rows:
            bound = 0.5 * row["H_r"] + c * row["eps_over_r"] ** rho * row["Phi_2r"]
            assert row["H_tr"] <= bound + 1e-12
        constants.append(c)
    assert max(constants) <= 2.0 * min(constants) + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _pass(9, f"t = {t}, rho = {rho:.3f}, constants {[f'{c:.3f}' for c in constants]} "
             f"stable within 2x, contraction holds at every dyadic radius "
             f"({elapsed:.1f}s < 120s)")


def test_criterion_10_flat_boundary_certificate():
    start = time.perf_counter()
    # zero data
    grid1 = Grid.box(0.0, 1.0, 256)
    zero = GridFunction(grid1, np.zeros(grid1.node_shape))
    zero_cert = probes.boundary_lipschitz_flat(zero, 0.25)["certificate"]
    assert zero_cert == 0.0

    # affine data with a constant coefficient, solved not constructed
    grid2 = Grid.box((0.0, 0.0), (1.0, 1.0), 128)
    bvp = BVP.on(grid2, rhs=0.0, boundary=lambda x: 3.0 * x[..., 1])
    u_aff = solve_homogenized(bvp, np.eye(2), tol=1e-12)
    aff_cert = probes.boundary_lipschitz_flat(
        u_aff, 0.25, center=(0.5, 0.0))["certificate"]
    assert aff_cert <= 1.1

    # oscillating 2D sweep across one halving
    lam2 = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    face = probes.face_data_norm_c1alpha(lambda s: np.sin(np.pi * s),
                                         (0.25, 0.75), 0.25, 0.5)
    certs = []
    for eps, n in ((1 / 8, 128), (1 / 16, 256)):
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), n)
        bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: np.sin(np.pi * x[..., 0]))
        u = solve_multiscale(bvp, lam2, single_scale(eps), tol=1e-9)
        rep = probes.boundary_lipschitz_flat(
            u, 0.25, center=(0.5, 0.0), eps_floor=eps,
            forcing=GridFunction(grid, np.ones(grid.node_shape)),
            face_data_norm=face)
        certs.append(rep["certificate"])
    ratio = certs[1] / certs[0]
    assert 0.5 <= ratio <= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _pass(10, f"zero data -> {zero_cert}, affine control {aff_cert:.4f} <= 1.1, "
              f"sweep certificates {certs[0]:.4f}/{certs[1]:.4f} ratio "
              f"{ratio:.3f} in [0.5, 2] ({elapsed:.1f}s < 180s)")


def test_criterion_11_determinism_and_cache(tmp_path, capsys):
    start = time.perf_counter()
    text = (
        "field = laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))\n"
        "dim = 1\n"
        "eps = 1/4, 1/8, 1/16\n"
        "cell.resolution = 64\n"
        f"out = {tmp_path / 'out1'}\n"
        f"cache = {tmp_path / 'cache'}\n"
    )
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)

    assert cli_main(["rate", "--config", str(cfg)]) == 0
    first = (tmp_path / "out1" / "rate.csv").read_bytes()
    assert cli_main(["rate", "--config", str(cfg),
                     "--out", str(tmp_path / "out2")]) == 0
    second = (tmp_path / "out2" / "rate.csv").read_bytes()
    assert second == first

    assert cli_main(["cascade", "--config", str(cfg)]) == 0
    assert cli_main(["cascade", "--config", str(cfg)]) == 0
    summary = json.loads((tmp_path / "out1" / "cascade.json").read_text())
    hit_rate = summary["cache_hit_rate"]
    assert hit_rate >= 0.9
    capsys.readouterr()
    elapsed = time.perf_counter() - start
    _pass(11, f"rate.csv reproduced byte for byte ({len(first)} bytes), "
              f"second cascade cache hit rate {hit_rate:.2f} >= 0.9 "
              f"({elapsed:.1f}s)")
