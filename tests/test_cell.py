"""Cell problems: corrector oracles, effective tensors, flux identities.

Oracles are computed by independent routes, frozen as constants:
  - 1D effective coefficient of 2+sin(2 pi y) is the harmonic mean
    (integral of 1/(2+sin)) = 1/sqrt(3), hence sqrt(3);
  - the 1D corrector derivative is a_eff/a - 1, integrated by cumulative
    quadrature (trapezoid on a fine grid, an independent path from CG);
  - the 2D two-phase field with the phase-swap symmetry has effective
    tensor sqrt(a1 a2) I;
  - manufactured flux-corrector potentials from stream functions.
"""

import numpy as np
import pytest

from reiterate.cell import (
    CellProblem,
    CellStack,
    effective_stack,
    effective_tensor,
    flux_correctors,
    flux_matrix,
    row_divergence_residual,
    solve_corrector,
    solve_stack,
)
from reiterate.cache import load_correctors, save_slab
from reiterate.cascade import tabulate_cells
from reiterate.coeff import builtin_family
from reiterate.errors import CompatibilityError, SolverFailure
from reiterate.grid import FluxStencil, Grid, GridFunction, mean, pcg

SQRT3 = np.sqrt(3.0)


def laminate_problem(n=256, tol=1e-11):
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    return CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=1,
                                    resolution=n, tol=tol)


def oracle_corrector_1d(a_fn, n=200_000):
    """Quadrature route: chi' = a_eff/a - 1 integrated by cumulative trapezoid."""
    y = np.linspace(0.0, 1.0, n + 1)
    a = a_fn(y)
    a_eff = 1.0 / np.trapezoid(1.0 / a, y)
    slope = a_eff / a - 1.0
    chi = np.concatenate([[0.0], np.cumsum((slope[1:] + slope[:-1]) / 2 * np.diff(y))])
    chi -= np.trapezoid(chi, y)
    return y, chi, a_eff


def test_effective_coefficient_is_harmonic_mean_1d():
    problem = laminate_problem()
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors, mu=1 / 3)
    assert eff.tensor[0, 0] == pytest.approx(SQRT3, abs=1e-9)


def test_harmonic_mean_exact_at_any_resolution():
    # the discrete mean flux equals the node harmonic mean at every n
    for n in (32, 64, 128):
        problem = laminate_problem(n=n)
        correctors = solve_corrector(problem)
        eff = effective_tensor(problem, correctors)
        a = problem.coefficient.values[:, 0, 0]
        assert eff.tensor[0, 0] == pytest.approx(1.0 / np.mean(1.0 / a), abs=1e-9)


def test_corrector_matches_quadrature_oracle_1d():
    # sup error is bounded by the stencil truncation, so it must quarter
    # under refinement; the absolute gate is 2x the measured n=256 value
    y_ref, chi_ref, _ = oracle_corrector_1d(lambda y: 2 + np.sin(2 * np.pi * y))
    errs = []
    for n in (128, 256):
        problem = laminate_problem(n=n)
        correctors = solve_corrector(problem)
        chi_interp = np.interp(problem.grid.axis_coords(0), y_ref, chi_ref)
        errs.append(np.max(np.abs(correctors.component(0) - chi_interp)))
        assert abs(correctors.component(0).mean()) < 1e-12
    assert errs[1] < 1.2e-5
    assert errs[0] / errs[1] > 3.5


def test_corrector_energy_recorded_and_bounded():
    correctors = solve_corrector(laminate_problem())
    assert 0 < correctors.energy < 10.0  # C(d, mu) witness for this field


def test_closed_form_corrector_solves_the_flux_form_operator():
    # a product of two laminate factors at incommensurate frequencies
    field = builtin_family("laminate1d(2+sin(2*pi*y1), exp(sin(2*pi*y2)))", 1)
    for n in (64, 256):
        problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y, 3 * y]),
                                           d=1, resolution=n)
        correctors = solve_corrector(problem)
        assert correctors.iterations == (0,)
        chi = correctors.component(0)
        stencil = FluxStencil(problem.coefficient)
        rhs = stencil.affine_rhs(0)
        assert np.linalg.norm(stencil.apply(chi) - rhs) <= 1e-12 * np.linalg.norm(rhs)
        diag = stencil.diagonal()
        ref, _ = pcg(stencil.apply, rhs, lambda r: r / diag, tol=1e-13,
                     project=lambda v: v.__isub__(v.mean()))
        ref -= ref.mean()
        assert np.max(np.abs(chi - ref)) <= 1e-12 * np.max(np.abs(chi))


def test_stacked_2d_solve_matches_each_sample_alone():
    # samples of increasing contrast need different iteration counts
    field = builtin_family("expr(exp(4*x1*sin(2*pi*y1)*sin(2*pi*y2)))", 2)
    grid = Grid.torus(2, 12)
    y = grid.nodes()
    frozen = tuple((x1, 0.0) for x1 in np.linspace(0.0, 1.0, 7))
    values = np.stack([field(np.broadcast_to(f, y.shape), [y]) for f in frozen])
    stack = CellStack(grid, values, frozen, tol=1e-11)
    solved = solve_stack(stack)
    tensors, _ = effective_stack(stack, solved.chi, mu=field.mu)
    assert len(set(solved.iterations[:, 0])) > 2
    for s in range(len(frozen)):
        problem = stack.problem(s)
        alone = solve_corrector(problem)
        assert tuple(solved.iterations[s]) == alone.iterations
        eff = effective_tensor(problem, alone, mu=field.mu)
        scale = np.max(np.abs(eff.tensor))
        assert np.max(np.abs(tensors[s] - eff.tensor)) <= 1e-13 * scale
    assert np.all(solved.residuals <= 1e-11)


def test_effective_stack_equals_each_sample_alone_bitwise():
    field = builtin_family(
        "slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1, k2=1)", 2)
    grid = Grid.torus(2, 8)
    frozen = np.array([(x1, x2) for x1 in (0.0, 0.3, 0.7) for x2 in (0.1, 0.55)])
    stack = CellStack(grid, tabulate_cells(field, frozen, grid), frozen, tol=1e-11)
    solved = solve_stack(stack)
    tensors, spectra = effective_stack(stack, solved.chi, mu=field.mu)
    assert tensors.shape == (6, 2, 2) and spectra.shape == (6, 2)
    for s in range(len(frozen)):
        problem = stack.problem(s)
        alone = effective_tensor(problem, solved.corrector_set(s, problem), mu=field.mu)
        assert np.array_equal(tensors[s], alone.tensor)
        assert np.array_equal(spectra[s], alone.spectrum)


def test_effective_stack_rejects_the_first_spectrum_outside_the_window():
    # constant cells c*I have zero correctors and tensor c*I exactly
    grid = Grid.torus(2, 8)
    levels = (1.0, 3.0, 4.0)
    stack = CellStack(grid, np.stack([c * np.broadcast_to(np.eye(2), grid.node_shape + (2, 2))
                                      for c in levels]), np.zeros((3, 2)), tol=1e-10)
    chi = np.zeros((3,) + grid.node_shape + (2,))
    with pytest.raises(SolverFailure) as err:
        effective_stack(stack, chi, mu=0.5)
    assert str(err.value) == ("effective spectrum (3.0, 3.0) escapes [0.5, 2]; "
                              "discretization failure")
    _, spectra = effective_stack(stack, chi, mu=0.25)
    assert spectra.tolist() == [[c, c] for c in levels]


def test_effective_stack_rejects_the_first_asymmetric_tensor():
    # zero correctors give a checkerboard a diagonal mean flux; noisy ones do not
    grid = Grid.torus(2, 8)
    board = builtin_family("checkerboard2d(1, 4, 8)", 2)(
        np.zeros(grid.node_shape + (2,)), [grid.nodes()])
    stack = CellStack(grid, np.stack([board, 1.5 * board]), np.zeros((2, 2)), tol=1e-10)
    chi = 0.3 * np.random.default_rng(5).normal(size=(2,) + grid.node_shape + (2,))
    chi[0] = 0.0
    stencil = FluxStencil(stack)
    tensor = np.stack([stencil.mean_flux(chi[..., j], affine_axis=j) for j in range(2)],
                      axis=-1)
    asym = np.max(np.abs(tensor[1] - tensor[1].T))
    assert np.array_equal(tensor[0], tensor[0].T) and asym > 1e-3
    with pytest.raises(SolverFailure) as err:
        effective_stack(stack, chi)
    assert str(err.value) == f"effective tensor asymmetric by {asym:g}; refine the cell grid"


def test_dimensional_reduction_2d_laminate():
    # A(y) = diag(a(y1), a(y1)): chi_1 is the 1D corrector, chi_2 = 0,
    # effective tensor diag(harmonic mean, arithmetic mean)
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                       resolution=64, tol=1e-11)
    correctors = solve_corrector(problem)
    assert np.max(np.abs(correctors.component(1))) < 1e-9
    y_ref, chi_ref, _ = oracle_corrector_1d(lambda y: 2 + np.sin(2 * np.pi * y))
    chi1 = correctors.component(0)[:, 0]
    chi_interp = np.interp(problem.grid.axis_coords(0), y_ref, chi_ref)
    assert np.max(np.abs(chi1 - chi_interp)) < 1e-4
    eff = effective_tensor(problem, correctors, mu=1 / 3)
    assert eff.tensor[0, 0] == pytest.approx(SQRT3, abs=1e-8)
    assert eff.tensor[1, 1] == pytest.approx(2.0, abs=1e-8)  # arithmetic mean
    assert abs(eff.tensor[0, 1]) < 1e-9


def test_checkerboard_duality_modest_resolution():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                       resolution=64, tol=1e-10)
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors, mu=1 / 4)
    assert np.allclose(eff.tensor, 2.0 * np.eye(2), rtol=0.05)


def test_effective_tensor_symmetric_and_inside_spectrum_bounds():
    field = builtin_family("matrix2d(2+sin(2*pi*y1), 0.3*sin(2*pi*y1)*sin(2*pi*y2), 2+cos(2*pi*y2))", 2)
    problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                       resolution=48, tol=1e-10)
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors, mu=field.mu)
    assert abs(eff.tensor[0, 1] - eff.tensor[1, 0]) < 1e-9
    assert field.mu <= eff.spectrum[0] <= eff.spectrum[1] <= 1 / field.mu


# ---------------------------------------------------------------------------
# flux matrix and flux correctors


@pytest.fixture(scope="module")
def checkerboard_flux():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                       resolution=64, tol=1e-11)
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors)
    B = flux_matrix(problem, correctors, eff)
    return problem, B


def test_flux_matrix_mean_free_to_machine_precision(checkerboard_flux):
    _, B = checkerboard_flux
    assert np.max(np.abs(mean(B))) < 1e-10


def test_flux_rows_exactly_divergence_free_for_laminate():
    # laminate in d=2: the flux of each corrector is constant along the
    # lamination axis, so every row of B has identically zero divergence
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                       resolution=64, tol=1e-12)
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors)
    assert row_divergence_residual(flux_matrix(problem, correctors, eff)) < 1e-9


def test_flux_row_divergence_decays_with_resolution():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    res = []
    for n in (64, 128):
        problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                           resolution=n, tol=1e-11)
        correctors = solve_corrector(problem)
        eff = effective_tensor(problem, correctors)
        res.append(row_divergence_residual(flux_matrix(problem, correctors, eff)))
    assert res[1] < 0.06  # steep internal layers carry a large constant
    assert res[0] / res[1] > 3.0


def test_flux_corrector_skew_symmetry_exact(checkerboard_flux):
    _, B = checkerboard_flux
    data = flux_correctors(B, tol=1e-10)
    assert np.array_equal(data.phi[0, 1], -data.phi[1, 0])
    assert np.array_equal(data.phi[0, 0], np.zeros_like(data.phi[0, 0]))


def test_flux_corrector_zero_mean(checkerboard_flux):
    _, B = checkerboard_flux
    data = flux_correctors(B, tol=1e-10)
    assert np.max(np.abs(data.phi.mean(axis=(-1, -2)))) < 1e-11


def test_flux_correctors_match_manufactured_potentials():
    # stream-function columns keep sum_k d_k f_kj = 0, so the reconstruction
    # identity is exact in the continuum; compare against analytic phi
    n = 128
    grid = Grid.torus(2, n)
    nodes = grid.nodes()
    y1, y2 = nodes[..., 0], nodes[..., 1]
    two_pi = 2 * np.pi

    psi = [np.sin(two_pi * y1) * np.sin(two_pi * y2),
           np.cos(two_pi * y1) * np.sin(two_pi * y2)]
    dpsi = [
        (two_pi * np.cos(two_pi * y1) * np.sin(two_pi * y2),
         two_pi * np.sin(two_pi * y1) * np.cos(two_pi * y2)),
        (-two_pi * np.sin(two_pi * y1) * np.sin(two_pi * y2),
         two_pi * np.cos(two_pi * y1) * np.cos(two_pi * y2)),
    ]
    # f_1j = d2 psi_j, f_2j = -d1 psi_j; b_ij = lap f_ij = -8 pi^2 f_ij for these modes
    f = np.empty((2, 2) + grid.node_shape)
    for j in range(2):
        f[0, j] = dpsi[j][1]
        f[1, j] = -dpsi[j][0]
    b_vals = np.empty(grid.node_shape + (2, 2))
    for i in range(2):
        for j in range(2):
            b_vals[..., i, j] = -2 * two_pi**2 * f[i, j]
    data = flux_correctors(GridFunction(grid, b_vals), tol=1e-12)

    # potentials recoverable up to the O(h^2) Poisson discretization error
    assert np.max(np.abs(data.potentials - f)) < 5e-3
    recon = data.residuals["max_reconstruction_l2"]
    assert recon < 1.0  # sanity; the decay rate is the sharp check below


def test_reconstruction_residual_decays_at_second_order():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    residuals = []
    for n in (32, 64, 128):
        problem = CellProblem.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                           resolution=n, tol=1e-12)
        correctors = solve_corrector(problem)
        eff = effective_tensor(problem, correctors)
        B = flux_matrix(problem, correctors, eff)
        residuals.append(flux_correctors(B, tol=1e-10).residuals["max_reconstruction_l2"])
    assert residuals[0] / residuals[1] >= 3.5
    assert residuals[1] / residuals[2] >= 3.5


def test_flux_correctors_reject_nonzero_mean_input():
    grid = Grid.torus(2, 16)
    bad = GridFunction(grid, np.ones(grid.node_shape + (2, 2)))
    with pytest.raises(CompatibilityError):
        flux_correctors(bad)


def test_flux_correctors_trivial_in_1d():
    problem = laminate_problem(n=64)
    correctors = solve_corrector(problem)
    eff = effective_tensor(problem, correctors)
    B = flux_matrix(problem, correctors, eff)
    # 1D flux a(1 + chi') is constant, so B vanishes identically
    assert np.max(np.abs(B.values)) < 1e-9
    data = flux_correctors(B)
    assert np.max(np.abs(data.phi)) < 1e-9


def test_corrector_persistence_roundtrip(tmp_path):
    problem = laminate_problem(n=64)
    stack = CellStack.of(problem)
    solved = solve_stack(stack)
    tensors, spectra = effective_stack(stack, solved.chi)
    stem = tmp_path / "cell"
    save_slab(stem, stack, solved, tensors, spectra)
    chi, sidecar = load_correctors(stem)
    assert np.array_equal(chi, solved.chi)
    assert np.array_equal(chi[0], solve_corrector(problem).chi.values)
    assert np.array_equal(sidecar["tensor"], tensors)
    assert np.array_equal(sidecar["spectrum"], spectra)
    assert sidecar["resolution"] == [64] and sidecar["shape"] == [1, 64, 1]
