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
    CellStack,
    check_tensors,
    effective_tensor,
    flux_correctors,
    flux_matrix,
    solve_corrector,
)
from reiterate.cache import load_correctors, save_slab
from reiterate.cascade import tabulate_cells
from reiterate.coeff import builtin_family, spectrum
from reiterate.errors import CompatibilityError, SolverFailure
from reiterate.grid import FluxStencil, Grid, GridFunction, _axis_derivative, mean, pcg

SQRT3 = np.sqrt(3.0)


def one_cell(field, d, n, tol=1e-10):
    """The stack of one cell of a field with one fast slot, x frozen at 0."""
    return CellStack.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=d,
                                  resolution=n, tol=tol)


def laminate_stack(n=256, tol=1e-11):
    return one_cell(builtin_family("laminate1d(2+sin(2*pi*y1))", 1), 1, n, tol)


def cell_flux(stack):
    """The flux matrix B of a stack of one."""
    chi, _, _ = solve_corrector(stack)
    tensors, _ = effective_tensor(stack, chi)
    return flux_matrix(stack, chi, tensors)


def row_divergence_residual(B):
    """l2 size of sum_i d_i b_ij with the centered nodal divergence (order h^2)."""
    grid = B.grid
    worst = 0.0
    for j in range(grid.d):
        s = np.zeros(grid.node_shape)
        for i in range(grid.d):
            s += _axis_derivative(grid, B.values[..., i, j], i)
        worst = max(worst, float(np.sqrt(np.mean(s**2))))
    return worst


def corrector_energy(grid, chi):
    """max_j mean(|D+ chi_j|^2 + chi_j^2) of one cell's correctors (*nodes, d),
    which the energy estimate bounds by C(d, mu)."""
    grad_sq = sum(((np.roll(chi, -1, axis=k) - chi) / grid.spacing[k]) ** 2
                  for k in range(grid.d))
    return float(np.mean(grad_sq + chi**2, axis=tuple(range(grid.d))).max())


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
    stack = laminate_stack()
    chi, _, _ = solve_corrector(stack)
    tensors, _ = effective_tensor(stack, chi, mu=1 / 3)
    assert tensors[0, 0, 0] == pytest.approx(SQRT3, abs=1e-9)


def test_cell_stack_rejects_a_box_grid_and_a_wrong_component_shape():
    torus = Grid.torus(2, 8)
    eye = np.broadcast_to(np.eye(2), (1,) + torus.node_shape + (2, 2))
    frozen = np.zeros((1, 2))
    assert CellStack(torus, eye, frozen, tol=1e-10).values.shape == (1, 8, 8, 2, 2)
    box = Grid.box((0.0, 0.0), (1.0, 1.0), 8)
    with pytest.raises(ValueError, match="periodic grids"):
        CellStack(box, np.broadcast_to(np.eye(2), (1, 9, 9, 2, 2)), frozen, tol=1e-10)
    for values in (eye[..., 0], eye[0], np.ones((1,) + torus.node_shape + (1, 1))):
        with pytest.raises(ValueError, match=r"\(samples, \*nodes, d, d\)"):
            CellStack(torus, values, frozen, tol=1e-10)


def test_harmonic_mean_exact_at_any_resolution():
    # the discrete mean flux equals the node harmonic mean at every n
    for n in (32, 64, 128):
        stack = laminate_stack(n=n)
        tensors, _ = effective_tensor(stack, solve_corrector(stack)[0])
        a = stack.values[0, :, 0, 0]
        assert tensors[0, 0, 0] == pytest.approx(1.0 / np.mean(1.0 / a), abs=1e-9)


def test_corrector_matches_quadrature_oracle_1d():
    # sup error is bounded by the stencil truncation, so it must quarter
    # under refinement; the absolute gate is 2x the measured n=256 value
    y_ref, chi_ref, _ = oracle_corrector_1d(lambda y: 2 + np.sin(2 * np.pi * y))
    errs = []
    for n in (128, 256):
        stack = laminate_stack(n=n)
        chi = solve_corrector(stack)[0][0, :, 0]
        chi_interp = np.interp(stack.grid.axis_coords(0), y_ref, chi_ref)
        errs.append(np.max(np.abs(chi - chi_interp)))
        assert abs(chi.mean()) < 1e-12
    assert errs[1] < 1.2e-5
    assert errs[0] / errs[1] > 3.5


def test_corrector_energy_recorded_and_bounded():
    stack = laminate_stack()
    chi, _, _ = solve_corrector(stack)
    assert 0 < corrector_energy(stack.grid, chi[0]) < 10.0  # C(d, mu) witness for this field


def test_closed_form_corrector_solves_the_flux_form_operator():
    # a product of two laminate factors at incommensurate frequencies
    field = builtin_family("laminate1d(2+sin(2*pi*y1), exp(sin(2*pi*y2)))", 1)
    for n in (64, 256):
        stack = CellStack.from_sampler(lambda y: field(np.zeros_like(y), [y, 3 * y]),
                                       d=1, resolution=n)
        chi, iterations, _ = solve_corrector(stack)
        assert iterations.tolist() == [[0]]
        chi = chi[0, :, 0]
        stencil = FluxStencil(GridFunction(stack.grid, stack.values[0]))
        rhs = stencil.affine_rhs(0)
        assert np.linalg.norm(stencil.apply(chi) - rhs) <= 1e-12 * np.linalg.norm(rhs)
        diag = stencil.diagonal()
        ref, _ = pcg(stencil.apply, rhs, lambda r: r / diag, tol=1e-13,
                     project=lambda v: v.__isub__(v.mean()))
        ref -= ref.mean()
        assert np.max(np.abs(chi - ref)) <= 1e-12 * np.max(np.abs(chi))


@pytest.mark.parametrize("text, most", [("checkerboard2d(1, 4, 8)", 25),
                                        ("expr(2+sin(2*pi*y1)*sin(2*pi*y2))", 20)])
def test_2d_cell_iterations_stay_flat_under_refinement(text, most):
    # Jacobi's counts double with each refinement (212 at 128^2 on the
    # checkerboard); the line inverse's do not grow
    field = builtin_family(text, 2)
    counts = [solve_corrector(one_cell(field, 2, n))[1].max() for n in (32, 64, 128, 256)]
    assert max(counts) <= most and max(counts) - min(counts) <= 2


@pytest.mark.parametrize("text, axis", [("laminate1d(2+sin(2*pi*y1))", 0),
                                        ("expr(2+sin(2*pi*y2))", 1)])
def test_2d_laminate_cell_takes_one_iteration_in_either_axis(text, axis):
    # the direction along the layers has a zero right-hand side: 0 iterations
    stack = one_cell(builtin_family(text, 2), 2, 128)
    _, iterations, residuals = solve_corrector(stack)
    assert iterations[0, axis] == 1 and iterations[0, 1 - axis] == 0
    assert residuals[0] <= 1e-10


@pytest.mark.parametrize("text, n", [
    ("checkerboard2d(1, 4, 8)", 32),
    ("expr(2+sin(2*pi*y1)*sin(2*pi*y2))", 32),
    ("matrix2d((6+sin(2*pi*(y1+y2)))/2, (sin(2*pi*(y1+y2))-2)/2, (6+sin(2*pi*(y1+y2)))/2)", 24),
    ("expr(2+sin(2*pi*y2))", 16),
])
def test_2d_tensors_match_the_jacobi_reference(text, n):
    stack = one_cell(builtin_family(text, 2), 2, n, tol=1e-13)
    chi, _, _ = solve_corrector(stack)
    tensor = effective_tensor(stack, chi)[0][0]
    stencil = FluxStencil(stack)
    diag = stencil.diagonal()
    reference = np.empty_like(chi)
    for j in range(2):
        reference[..., j], _ = pcg(stencil.apply, stencil.affine_rhs(j), lambda r: r / diag,
                                   tol=1e-13, project=lambda v: v.__isub__(v.mean()))
    want = effective_tensor(stack, reference)[0][0]
    assert np.max(np.abs(tensor - want)) <= 1e-12 * np.max(np.abs(want))


def test_stacked_2d_solve_matches_each_sample_alone():
    # samples of increasing contrast need different iteration counts
    field = builtin_family("expr(exp(4*x1*sin(2*pi*y1)*sin(2*pi*y2)))", 2)
    grid = Grid.torus(2, 12)
    y = grid.nodes()
    frozen = tuple((x1, 0.0) for x1 in np.linspace(0.0, 1.0, 7))
    values = np.stack([field(np.broadcast_to(f, y.shape), [y]) for f in frozen])
    stack = CellStack(grid, values, frozen, tol=1e-11)
    chi, iterations, residuals = solve_corrector(stack)
    tensors, _ = effective_tensor(stack, chi, mu=field.mu)
    assert len(set(iterations[:, 0])) > 2
    for s in range(len(frozen)):
        alone = CellStack(grid, values[s:s + 1], frozen[s:s + 1], tol=1e-11)
        chi_alone, iterations_alone, _ = solve_corrector(alone)
        assert np.array_equal(iterations[s], iterations_alone[0])
        tensor, _ = effective_tensor(alone, chi_alone, mu=field.mu)
        scale = np.max(np.abs(tensor))
        assert np.max(np.abs(tensors[s] - tensor[0])) <= 1e-13 * scale
    assert np.all(residuals <= 1e-11)


def test_effective_stack_equals_each_sample_alone_bitwise():
    field = builtin_family(
        "slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1, k2=1)", 2)
    grid = Grid.torus(2, 8)
    frozen = np.array([(x1, x2) for x1 in (0.0, 0.3, 0.7) for x2 in (0.1, 0.55)])
    stack = CellStack(grid, tabulate_cells(field, frozen, grid), frozen, tol=1e-11)
    chi, _, _ = solve_corrector(stack)
    tensors, spectra = effective_tensor(stack, chi, mu=field.mu)
    assert tensors.shape == (6, 2, 2) and spectra.shape == (6, 2)
    for s in range(len(frozen)):
        alone = CellStack(grid, stack.values[s:s + 1], frozen[s:s + 1], tol=1e-11)
        tensor, spectrum = effective_tensor(alone, chi[s:s + 1], mu=field.mu)
        assert np.array_equal(tensors[s], tensor[0])
        assert np.array_equal(spectra[s], spectrum[0])


def test_effective_stack_rejects_the_first_spectrum_outside_the_window():
    # constant cells c*I have zero correctors and tensor c*I exactly
    grid = Grid.torus(2, 8)
    levels = (1.0, 3.0, 4.0)
    stack = CellStack(grid, np.stack([c * np.broadcast_to(np.eye(2), grid.node_shape + (2, 2))
                                      for c in levels]), np.zeros((3, 2)), tol=1e-10)
    chi = np.zeros((3,) + grid.node_shape + (2,))
    with pytest.raises(SolverFailure) as err:
        effective_tensor(stack, chi, mu=0.5)
    assert str(err.value) == ("effective spectrum (3.0, 3.0) escapes [0.5, 2]; "
                              "discretization failure")
    _, spectra = effective_tensor(stack, chi, mu=0.25)
    assert spectra.tolist() == [[c, c] for c in levels]


def test_a_nan_spectrum_escapes_the_window():
    # spectrum() carries nan through; the window check must not let it slip
    # past its comparisons
    tensors = np.array([np.eye(2), np.full((2, 2), np.nan)])
    with pytest.raises(SolverFailure, match=r"effective spectrum \(nan, nan\) escapes"):
        check_tensors(tensors, spectrum(tensors), mu=0.5)


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
        effective_tensor(stack, chi)
    assert str(err.value) == f"effective tensor asymmetric by {asym:g}; refine the cell grid"


def test_dimensional_reduction_2d_laminate():
    # A(y) = diag(a(y1), a(y1)): chi_1 is the 1D corrector, chi_2 = 0,
    # effective tensor diag(harmonic mean, arithmetic mean)
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    stack = one_cell(field, 2, 64, tol=1e-11)
    chi, _, _ = solve_corrector(stack)
    assert np.max(np.abs(chi[..., 1])) < 1e-9
    y_ref, chi_ref, _ = oracle_corrector_1d(lambda y: 2 + np.sin(2 * np.pi * y))
    chi1 = chi[0, :, 0, 0]
    chi_interp = np.interp(stack.grid.axis_coords(0), y_ref, chi_ref)
    assert np.max(np.abs(chi1 - chi_interp)) < 1e-4
    tensor = effective_tensor(stack, chi, mu=1 / 3)[0][0]
    assert tensor[0, 0] == pytest.approx(SQRT3, abs=1e-8)
    assert tensor[1, 1] == pytest.approx(2.0, abs=1e-8)  # arithmetic mean
    assert abs(tensor[0, 1]) < 1e-9


def test_checkerboard_duality_modest_resolution():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    stack = one_cell(field, 2, 64)
    tensors, _ = effective_tensor(stack, solve_corrector(stack)[0], mu=1 / 4)
    assert np.allclose(tensors[0], 2.0 * np.eye(2), rtol=0.05)


def test_effective_tensor_symmetric_and_inside_spectrum_bounds():
    field = builtin_family("matrix2d(2+sin(2*pi*y1), 0.3*sin(2*pi*y1)*sin(2*pi*y2), 2+cos(2*pi*y2))", 2)
    stack = one_cell(field, 2, 48)
    tensors, spectra = effective_tensor(stack, solve_corrector(stack)[0], mu=field.mu)
    assert abs(tensors[0, 0, 1] - tensors[0, 1, 0]) < 1e-9
    assert field.mu <= spectra[0, 0] <= spectra[0, 1] <= 1 / field.mu


# ---------------------------------------------------------------------------
# flux matrix and flux correctors


@pytest.fixture(scope="module")
def checkerboard_flux():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    return cell_flux(one_cell(field, 2, 64, tol=1e-11))


def test_flux_matrix_mean_free_to_machine_precision(checkerboard_flux):
    B = checkerboard_flux
    assert np.max(np.abs(mean(B))) < 1e-10


def test_flux_rows_exactly_divergence_free_for_laminate():
    # laminate in d=2: the flux of each corrector is constant along the
    # lamination axis, so every row of B has identically zero divergence
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    assert row_divergence_residual(cell_flux(one_cell(field, 2, 64, tol=1e-12))) < 1e-9


def test_flux_row_divergence_decays_with_resolution():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    res = []
    for n in (64, 128):
        res.append(row_divergence_residual(cell_flux(one_cell(field, 2, n, tol=1e-11))))
    assert res[1] < 0.06  # steep internal layers carry a large constant
    assert res[0] / res[1] > 3.0


def test_flux_corrector_skew_symmetry_exact(checkerboard_flux):
    B = checkerboard_flux
    data = flux_correctors(B)
    assert np.array_equal(data.phi[0, 1], -data.phi[1, 0])
    assert np.array_equal(data.phi[0, 0], np.zeros_like(data.phi[0, 0]))


def test_flux_corrector_zero_mean(checkerboard_flux):
    B = checkerboard_flux
    data = flux_correctors(B)
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
    data = flux_correctors(GridFunction(grid, b_vals))

    # potentials recoverable up to the O(h^2) Poisson discretization error
    assert np.max(np.abs(data.potentials - f)) < 5e-3
    recon = data.residuals["max_reconstruction_l2"]
    assert recon < 1.0  # sanity; the decay rate is the sharp check below


def test_reconstruction_residual_decays_at_second_order():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    residuals = []
    for n in (32, 64, 128):
        B = cell_flux(one_cell(field, 2, n, tol=1e-12))
        residuals.append(flux_correctors(B).residuals["max_reconstruction_l2"])
    assert residuals[0] / residuals[1] >= 3.5
    assert residuals[1] / residuals[2] >= 3.5


def fft_poisson(b, grid):
    """Mean-free f with lap f = b for the discrete torus Laplacian, which the
    discrete Fourier transform diagonalizes: an independent route."""
    axes = tuple(range(grid.d))
    symbol = np.zeros(grid.node_shape)
    for k, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        shape = [1] * grid.d
        shape[k] = n
        symbol = symbol + ((2 - 2 * np.cos(2 * np.pi * np.fft.fftfreq(n))) / h**2).reshape(shape)
    symbol.flat[0] = np.inf  # mode 0 of a mean-free b
    return np.fft.ifftn(-np.fft.fftn(b, axes=axes) / symbol, axes=axes).real


@pytest.mark.parametrize("d", [1, 2])
def test_flux_potentials_equal_the_fft_poisson_solution(d):
    # the potentials the torus PCG reached to rounding: lap f_ij = b_ij, mean-free
    if d == 1:
        # a 1D cell's flux matrix vanishes, so take any mean-free matrix field
        grid = Grid.torus(1, 64)
        y = grid.axis_coords(0)
        B = GridFunction(grid, (np.sin(2 * np.pi * y) + 0.3 * np.cos(6 * np.pi * y))[:, None, None])
    else:
        B = cell_flux(one_cell(builtin_family("expr(2+sin(2*pi*y1)*sin(2*pi*y2))", 2), 2, 64,
                               tol=1e-11))
    data = flux_correctors(B)
    for i in range(d):
        for j in range(d):
            b = B.values[..., i, j]
            want = fft_poisson(b - b.mean(), B.grid)
            assert np.max(np.abs(data.potentials[i, j] - want)) <= 1e-12 * np.max(np.abs(want))


def test_flux_correctors_reject_nonzero_mean_input():
    grid = Grid.torus(2, 16)
    bad = GridFunction(grid, np.ones(grid.node_shape + (2, 2)))
    with pytest.raises(CompatibilityError):
        flux_correctors(bad)


def test_flux_correctors_trivial_in_1d():
    B = cell_flux(laminate_stack(n=64))
    # 1D flux a(1 + chi') is constant, so B vanishes identically
    assert np.max(np.abs(B.values)) < 1e-9
    data = flux_correctors(B)
    assert np.max(np.abs(data.phi)) < 1e-9


def test_corrector_persistence_roundtrip(tmp_path):
    stack = laminate_stack(n=64)
    solved, iterations, _ = solve_corrector(stack)
    tensors, spectra = effective_tensor(stack, solved)
    stem = tmp_path / "cell"
    save_slab(stem, stack, solved, iterations, tensors, spectra)
    chi, sidecar = load_correctors(stem)
    assert np.array_equal(chi, solved)
    assert sidecar["iterations"] == [[0]] and sidecar["frozen"] == [[]]
    assert np.array_equal(sidecar["tensor"], tensors)
    assert np.array_equal(sidecar["spectrum"], spectra)
    assert sidecar["resolution"] == [64] and sidecar["shape"] == [1, 64, 1]
