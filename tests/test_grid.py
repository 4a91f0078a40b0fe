"""Grid, discrete calculus, solver, and serialization contracts.

Expected values come from independent routes: analytic derivatives,
closed-form solutions, and quadrature identities, frozen here.
"""

import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reiterate.grid as grid_module
from reiterate.cell import CellStack, solve_corrector
from reiterate.coeff import ScaleLadder, builtin_family
from reiterate.dirichlet import (BVP, multiscale_coefficient, solve_homogenized,
                                 solve_multiscale)
from reiterate.errors import ResolutionError, SolverFailure
from reiterate.grid import (
    FluxStencil,
    Grid,
    GridFunction,
    ball_average,
    divergence,
    gradient,
    l2_norm,
    line_inverse,
    load_gridfunction,
    mean,
    pcg,
    save_gridfunction,
    solve_box_dirichlet,
    torus_line_inverse,
)


def torus_scalar(n, fn, d=1):
    g = Grid.torus(d, n)
    return GridFunction.from_callable(g, lambda x: fn(*(x[:, i] for i in range(d))))


# ---------------------------------------------------------------------------
# geometry


def test_spacing_times_cells_is_extent():
    for g in (Grid.torus(1, 64), Grid.torus(2, 32), Grid.box(0.0, 1.0, 64),
              Grid.box((0.0, -1.0), (2.0, 1.0), (32, 64))):
        for h, n, e in zip(g.spacing, g.shape, g.extent):
            assert h * n == pytest.approx(e, rel=1e-15)


def test_periodic_grid_stores_no_duplicate_layer():
    g = Grid.torus(1, 16)
    assert g.node_shape == (16,)
    assert g.axis_coords(0)[-1] == pytest.approx(1.0 - 1.0 / 16)


def test_box_grid_stores_both_boundary_layers():
    g = Grid.box(0.0, 1.0, 16)
    coords = g.axis_coords(0)
    assert coords[0] == 0.0 and coords[-1] == 1.0 and len(coords) == 17


def test_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        Grid(shape=(8, 8, 8), periodic=True, lo=(0,) * 3, hi=(1,) * 3)


# ---------------------------------------------------------------------------
# tabulation: GridFunction.from_callable


def _bits(values):
    return np.ascontiguousarray(values).tobytes()


@pytest.mark.parametrize("value", [1.0, -0.0, 3, np.float64(0.1),
                                   np.array([[2.0, 0.1], [0.1, 1.0 / 3.0]])],
                         ids=["one", "minus-zero", "int", "float64", "tensor"])
def test_from_callable_keeps_a_constant_one_broadcast_value(monkeypatch, value):
    g = Grid.box((0.0, 0.0), (1.0, 2.0), (6, 9))

    def refuse(self):
        raise AssertionError("a constant must not build node coordinates")

    monkeypatch.setattr(Grid, "nodes", refuse)
    f = GridFunction.from_callable(g, value)
    assert f.values.strides[:2] == (0, 0) and not f.values.flags.writeable
    assert _bits(f.values) == _bits(GridFunction.constant(g, value).values)


def test_from_callable_broadcasts_a_0d_value_of_a_function():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), 8)
    seen = []

    def fn(x):
        seen.append(x.shape)
        return np.asarray(-0.0)

    f = GridFunction.from_callable(g, fn)
    assert seen == [(81, 2)]
    assert f.values.strides == (0, 0) and not f.values.flags.writeable
    assert _bits(f.values) == _bits(GridFunction.constant(g, -0.0).values)


@pytest.mark.parametrize("d", [1, 2])
def test_from_callable_tabulates_node_values(d):
    g = Grid.box((0.5,) * d, (2.0,) * d, 12)

    def fn(x):
        return np.sin(3.0 * x[:, 0]) * np.exp(x[:, -1])

    f = GridFunction.from_callable(g, fn)
    assert f.values.flags.c_contiguous
    assert _bits(f.values) == _bits(fn(g.nodes().reshape(-1, d)).reshape(g.node_shape))


# ---------------------------------------------------------------------------
# discrete calculus


def test_gradient_matches_analytic_derivative_second_order():
    errs = []
    for n in (64, 128, 256):
        f = torus_scalar(n, lambda y: np.sin(2 * np.pi * y))
        grad = gradient(f).values[:, 0]
        exact = 2 * np.pi * np.cos(2 * np.pi * f.grid.axis_coords(0))
        errs.append(np.max(np.abs(grad - exact)))
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_gradient_exact_on_affine_box_including_boundary():
    g = Grid.box((0.0, 0.0), (1.0, 2.0), (16, 16))
    f = GridFunction.from_callable(g, lambda x: 2.0 * x[:, 0] - 3.0 * x[:, 1] + 1.0)
    grad = gradient(f).values
    assert np.allclose(grad[..., 0], 2.0, atol=1e-13)
    assert np.allclose(grad[..., 1], -3.0, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=8, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
def test_divergence_is_negative_adjoint_of_gradient_on_torus(n, seed):
    rng = np.random.default_rng(seed)
    g = Grid.torus(2, n)
    u = GridFunction(g, rng.standard_normal(g.node_shape))
    v = GridFunction(g, rng.standard_normal(g.node_shape + (2,)))
    lhs = np.sum(divergence(v).values * u.values)
    rhs = -np.sum(v.values * gradient(u).values)
    scale = max(1.0, abs(lhs))
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_mean_is_node_average():
    f = torus_scalar(128, lambda y: 2.0 + np.sin(2 * np.pi * y))
    assert mean(f) == pytest.approx(2.0, abs=1e-13)


def test_ball_average_second_moment_oracle():
    # (mean of x1^2 over the ball)^(1/2) -> r/sqrt(d+2) for balls away from edges
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (256, 256))
    f = GridFunction.from_callable(g, lambda x: x[:, 0] - 0.5)
    r = 0.25
    got = ball_average(f, (0.5, 0.5), r, p=2)
    assert got == pytest.approx(r / 2.0, rel=0.05)  # sqrt(d+2) = 2 in d=2


def test_ball_average_full_domain_is_l2_mean():
    rng = np.random.default_rng(3)
    g = Grid.box(0.0, 1.0, 64)
    f = GridFunction(g, rng.standard_normal(g.node_shape))
    got = ball_average(f, (0.5,), 10.0, p=2)
    assert got == pytest.approx(np.sqrt(np.mean(f.values**2)), rel=1e-12)


def test_ball_average_rejects_tiny_balls():
    g = Grid.box(0.0, 1.0, 32)
    f = GridFunction(g, np.ones(g.node_shape))
    with pytest.raises(ResolutionError):
        ball_average(f, (0.5,), 0.01)


# ---------------------------------------------------------------------------
# periodic operator and its exact inverses


def test_periodic_solve_constant_coefficient_manufactured():
    # -u'' = (2 pi)^2 sin(2 pi y) has u = sin(2 pi y), mean zero; for the
    # identity the torus inverse is exact (cell.flux_correctors applies it),
    # so only the O(h^2) stencil error stays
    g = Grid.torus(1, 128)
    inverse = torus_line_inverse(FluxStencil(GridFunction.from_callable(g, np.eye(1))))
    rhs = torus_scalar(128, lambda y: (2 * np.pi) ** 2 * np.sin(2 * np.pi * y))
    u = inverse(rhs.values)
    exact = np.sin(2 * np.pi * g.axis_coords(0))
    assert np.max(np.abs(u - exact)) < 2e-3
    assert abs(u.mean()) < 1e-12


def test_periodic_solve_variable_coefficient_convergence_order():
    # second-order consistency in 1D: the stencil applied to u = sin(2 pi y)
    # against -(a u')' = -a' u' - a u'' for a = 2 + sin(2 pi y)
    errs = []
    for n in (64, 128, 256):
        g = Grid.torus(1, n)
        y = g.axis_coords(0)
        a = GridFunction(g, (2 + np.sin(2 * np.pi * y))[:, None, None])
        exact = -(2 * np.pi) ** 2 * (
            np.cos(2 * np.pi * y) ** 2 - (2 + np.sin(2 * np.pi * y)) * np.sin(2 * np.pi * y)
        )
        got = FluxStencil(a).apply(np.sin(2 * np.pi * y))
        errs.append(np.max(np.abs(got - exact)))
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_periodic_solve_2d_manufactured_convergence():
    # second-order consistency in 2D: u = sin(2 pi y1) cos(2 pi y2) and
    # a = (2 + sin(2 pi y1)) I, so -div(a grad u) = -da/dy1 du/dy1 - a lap(u)
    errs = []
    for n in (16, 32, 64):
        g = Grid.torus(2, n)
        nodes = g.nodes()
        y1, y2 = nodes[..., 0], nodes[..., 1]
        u = np.sin(2 * np.pi * y1) * np.cos(2 * np.pi * y2)
        a_scalar = 2 + np.sin(2 * np.pi * y1)
        a_vals = np.zeros(g.node_shape + (2, 2))
        a_vals[..., 0, 0] = a_scalar
        a_vals[..., 1, 1] = a_scalar
        du1 = 2 * np.pi * np.cos(2 * np.pi * y1) * np.cos(2 * np.pi * y2)
        da1 = 2 * np.pi * np.cos(2 * np.pi * y1)
        exact = -da1 * du1 + a_scalar * 2 * (2 * np.pi) ** 2 * u
        got = FluxStencil(GridFunction(g, a_vals)).apply(u)
        errs.append(np.max(np.abs(got - exact)))
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


def test_periodic_solver_records_residual_history():
    # the stacked torus PCG of the 2D cell correctors reports each sample's
    # iterations and its final relative residual under the tolerance
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    stack = CellStack.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                   resolution=32, tol=1e-10)
    _, iterations, residuals = solve_corrector(stack)
    assert iterations.shape == (1, 2) and np.all(iterations >= 1)
    assert 0.0 < residuals[0] <= 1e-10


def test_discrete_operator_is_self_adjoint():
    from reiterate.grid import FluxStencil

    rng = np.random.default_rng(7)
    g = Grid.torus(2, 24)
    nodes = g.nodes()
    a_vals = np.zeros(g.node_shape + (2, 2))
    a_vals[..., 0, 0] = 2 + np.sin(2 * np.pi * nodes[..., 0])
    a_vals[..., 1, 1] = 2 + np.cos(2 * np.pi * nodes[..., 1])
    a_vals[..., 0, 1] = 0.3 * np.sin(2 * np.pi * nodes[..., 0]) * np.sin(2 * np.pi * nodes[..., 1])
    a_vals[..., 1, 0] = a_vals[..., 0, 1]
    st_ = FluxStencil(GridFunction(g, a_vals))
    u = rng.standard_normal(g.node_shape)
    v = rng.standard_normal(g.node_shape)
    lhs = np.sum(st_.apply(u) * v)
    rhs = np.sum(u * st_.apply(v))
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


def test_energy_stability_periodic():
    # mu |grad u|^2 <= <A u, u> for the isotropic flux form, smooth and rough u
    g = Grid.torus(1, 128)
    y = g.axis_coords(0)
    stencil = FluxStencil(GridFunction(g, (2 + np.sin(2 * np.pi * y))[:, None, None]))
    mu = 1.0  # min coefficient value
    rng = np.random.default_rng(3)
    for u in (np.sin(4 * np.pi * y), rng.standard_normal(y.shape)):
        du = (np.roll(u, -1) - u) / g.spacing[0]
        energy = mu * np.mean(du**2)
        pairing = np.mean(stencil.apply(u) * u)
        assert energy <= pairing * (1 + 1e-8) + 1e-14


# ---------------------------------------------------------------------------
# box solver


def test_box_solve_closed_form_poisson():
    # -u'' = 1, u(0)=u(1)=0 has u = x(1-x)/2; frozen closed form
    g = Grid.box(0.0, 1.0, 64)
    a = GridFunction.constant(g, np.eye(1))
    rhs = GridFunction(g, np.ones(g.node_shape))
    u = solve_box_dirichlet(a, rhs, 0.0, tol=1e-12)
    x = g.axis_coords(0)
    assert np.max(np.abs(u.values - x * (1 - x) / 2)) < 1e-10  # scheme is exact here


def test_box_solve_affine_exactness():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (16, 16))
    a = GridFunction.constant(g, np.eye(2))
    rhs = GridFunction(g, np.zeros(g.node_shape))
    u = solve_box_dirichlet(a, rhs, g.boundary_nodes()[:, 0], tol=1e-13)
    assert np.max(np.abs(u.values - g.nodes()[..., 0])) < 1e-11


@pytest.mark.parametrize("grid", [Grid.box(0.0, 2.0, 9),
                                  Grid.box((-0.5, 0.25), (1.0, 1.5), (7, 5))])
def test_boundary_nodes_are_the_masked_node_rows(grid):
    assert np.array_equal(grid.boundary_nodes(), grid.nodes()[grid.boundary_mask()])


def test_box_solve_takes_boundary_data_on_the_ring_only():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), 8)
    with pytest.raises(ValueError, match="the 32 values at grid.boundary_nodes"):
        solve_box_dirichlet(GridFunction.constant(g, np.eye(2)),
                            GridFunction.constant(g, 0.0), np.zeros(g.node_shape))


def test_box_solve_boundary_values_exact():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (12, 12))
    a = GridFunction.constant(g, np.eye(2))
    rhs = GridFunction(g, np.zeros(g.node_shape))
    bv = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x[:, 0]) * (1 - x[:, 1]))
    u = solve_box_dirichlet(a, rhs, bv.values[g.boundary_mask()], tol=1e-11)
    m = g.boundary_mask()
    assert np.array_equal(u.values[m], bv.values[m])


def test_box_solve_discrete_maximum_principle():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), (20, 20))
    a = GridFunction.constant(g, np.eye(2))
    rhs = GridFunction(g, np.zeros(g.node_shape))
    rng = np.random.default_rng(11)
    bv_vals = np.zeros(g.node_shape)
    m = g.boundary_mask()
    bv_vals[m] = rng.uniform(-1.0, 2.0, size=int(m.sum()))
    u = solve_box_dirichlet(a, rhs, bv_vals[m], tol=1e-12)
    assert u.values.max() <= bv_vals[m].max() + 1e-9
    assert u.values.min() >= bv_vals[m].min() - 1e-9


def test_box_solve_variable_coefficient_convergence_order():
    # manufactured on (0,1): u = sin(pi x), a = 2 + x^2 (via expression values)
    errs = []
    for n in (32, 64, 128):
        g = Grid.box(0.0, 1.0, n)
        x = g.axis_coords(0)
        a = GridFunction(g, (2 + x * x)[:, None, None])
        u_exact = np.sin(np.pi * x)
        rhs_vals = -(2 * x * np.pi * np.cos(np.pi * x) - (2 + x * x) * np.pi**2 * np.sin(np.pi * x))
        u = solve_box_dirichlet(a, GridFunction(g, rhs_vals), 0.0, tol=1e-13)
        errs.append(np.sqrt(np.mean((u.values - u_exact) ** 2)))
    assert errs[0] / errs[1] > 3.5 and errs[1] / errs[2] > 3.5


@pytest.mark.parametrize("n", [101, 128])
def test_1d_closed_form_matches_dense_solve(n):
    # contrast 7 coefficient on [0, 2], u(0) = 0.2 and u(2) = 1.6
    g = Grid.box(0.0, 2.0, n)
    x = g.axis_coords(0)
    a = GridFunction(g, (2.0 + 1.5 * np.sin(14 * np.pi * x))[:, None, None])
    rhs = GridFunction(g, 1.0 + np.cos(3 * x))
    bv = GridFunction(g, 0.2 + 0.7 * x)
    u = solve_box_dirichlet(a, rhs, bv.values[g.boundary_mask()])
    assert u.meta["preconditioner"] == "closed-form" and u.meta["iterations"] == 0

    # the dense interior matrix, assembled column by column from the stencil
    stencil = FluxStencil(a)
    columns = [stencil.apply(e)[1:-1] for e in np.eye(n + 1)[1:-1]]
    lift = np.where(g.boundary_mask(), bv.values, 0.0)
    b = rhs.values[1:-1] - stencil.apply(lift)[1:-1]
    reference = lift.copy()
    reference[1:-1] = np.linalg.solve(np.stack(columns, axis=1), b)
    assert np.max(np.abs(u.values - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_1d_closed_form_residual_stays_small_on_fine_grids():
    g = Grid.box(0.0, 1.0, 65536)
    x = g.axis_coords(0)
    a = GridFunction(g, (2.0 + np.sin(74 * np.pi * x))[:, None, None])
    u = solve_box_dirichlet(a, GridFunction(g, 1.0 + np.cos(3 * x)),
                            (0.2 + 0.7 * x)[g.boundary_mask()])
    assert u.meta["tol"] == 0.0
    assert u.meta["residuals"][-1] <= 1e-10


# ---------------------------------------------------------------------------
# box preconditioner


def laminate_box(n, contrast=3.0, mixed=0.0):
    """Coefficient (1 + (contrast - 1)(1 + sin 16 pi x1)/2) I on the unit box,
    plus an optional smooth off-diagonal entry."""
    g = Grid.box((0.0, 0.0), (1.0, 1.0), n)
    x = g.nodes()
    s = 1.0 + (contrast - 1.0) * 0.5 * (1.0 + np.sin(16 * np.pi * x[..., 0]))
    a = np.zeros(g.node_shape + (2, 2))
    a[..., 0, 0] = a[..., 1, 1] = s
    a[..., 0, 1] = a[..., 1, 0] = mixed * np.sin(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])
    return GridFunction(g, a)


def box_diagonal(stencil):
    """Interior diagonal of the box operator, probed with nine colours.

    Every node couples only to nodes at most one step away per axis, so
    applying the operator to the indicator of one colour class (i mod 3,
    j mod 3) reads each member's diagonal entry undisturbed.
    """
    shape = stencil.grid.node_shape
    i, j = np.indices(shape)
    diag = np.zeros(shape)
    for ci in range(3):
        for cj in range(3):
            colour = ((i % 3 == ci) & (j % 3 == cj)).astype(float)
            diag += colour * stencil.apply(colour)
    diag[stencil.grid.boundary_mask()] = 1.0
    return diag


def x1_profile(x):
    return 2.0 + 1.5 * np.sin(5 * np.pi * x[..., 0])


@pytest.mark.parametrize("tensor, lo, hi, shape, profile", [
    pytest.param(np.eye(2) * 1.7, 0.0, 1.0, (24, 24), None, id="isotropic"),
    pytest.param(np.diag([np.sqrt(3.0), 2.0]), 0.0, 1.0, (24, 16), None, id="anisotropic"),
    pytest.param(np.diag([np.sqrt(3.0), 2.0]), 0.0, 2.0, (20, 28), None, id="box-0-2"),
    pytest.param(np.eye(2), 0.0, 2.0, (20, 28), x1_profile, id="x1-isotropic"),
    pytest.param(np.diag([np.sqrt(3.0), 2.0]), 0.0, 2.0, (20, 28), x1_profile,
                 id="x1-anisotropic"),
])
def test_line_inverse_inverts_box_operator_constant_along_x2(tensor, lo, hi, shape, profile):
    g = Grid.box((lo, lo), (hi, hi), shape)
    if profile is None:
        stencil = FluxStencil(GridFunction.constant(g, tensor))
    else:
        stencil = FluxStencil(GridFunction(g, profile(g.nodes())[..., None, None] * tensor))
    precondition = line_inverse(stencil)
    rng = np.random.default_rng(3)
    interior = ~g.boundary_mask()
    v = np.where(interior, rng.standard_normal(g.node_shape), 0.0)
    back = precondition(stencil.apply(v))
    assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))
    assert not np.any(precondition(rng.standard_normal(g.node_shape))[~interior])


def test_line_inverse_is_symmetric_and_positive_on_a_field_varying_along_x2():
    g = Grid.box((0.0, 0.0), (1.0, 1.5), (24, 20))
    rng = np.random.default_rng(5)
    a = np.zeros(g.node_shape + (2, 2))
    a[..., 0, 0] = rng.uniform(1.0, 9.0, g.node_shape)
    a[..., 1, 1] = rng.uniform(1.0, 9.0, g.node_shape)
    precondition = line_inverse(FluxStencil(GridFunction(g, a)))
    interior = ~g.boundary_mask()
    r, s = (np.where(interior, rng.standard_normal(g.node_shape), 0.0) for _ in range(2))
    pr, ps = precondition(r), precondition(s)
    scale = np.sqrt(np.sum(pr * pr) * np.sum(s * s))
    assert abs(np.sum(pr * s) - np.sum(r * ps)) <= 1e-12 * scale
    assert np.sum(pr * r) > 0 and np.sum(ps * s) > 0


def test_constant_tensor_homogenized_solve_takes_two_iterations_at_most():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), 64)
    bvp = BVP.on(g, rhs=lambda x: np.exp(x[..., 0]) * x[..., 1],
                 boundary=lambda x: np.sin(np.pi * x[..., 0]) + x[..., 1])
    u = solve_homogenized(bvp, np.diag([np.sqrt(3.0), 2.0]))
    assert u.meta["preconditioner"] == "line-dst1"
    assert 1 <= u.meta["iterations"] <= 2
    assert u.meta["residuals"][-1] <= 1e-10


def test_box_iterations_do_not_grow_with_the_mesh():
    # a checkerboard-like field: it varies along x2 as much as along x1,
    # so line_inverse does not invert it and PCG really iterates
    counts = []
    for n in (64, 128, 256):
        g = Grid.box((0.0, 0.0), (1.0, 1.0), n)
        x = g.nodes()
        wave = np.sin(16 * np.pi * x[..., 0]) * np.sin(16 * np.pi * x[..., 1])
        a = np.zeros(g.node_shape + (2, 2))
        a[..., 0, 0] = a[..., 1, 1] = 2.0 * np.exp(np.log(2.0) * np.tanh(8.0 * wave))
        a = GridFunction(g, a)
        rhs = GridFunction(g, np.ones(g.node_shape))
        bv = GridFunction.from_callable(g, lambda x: np.sin(np.pi * x[:, 0]))
        counts.append(solve_box_dirichlet(a, rhs, bv.values[g.boundary_mask()])
                      .meta["iterations"])
    assert max(counts) <= 30
    assert max(counts) - min(counts) <= 3


@pytest.mark.parametrize("n", [64, 128, 256])
def test_box_solve_of_an_x1_field_takes_one_iteration(n):
    # iteration counts are deterministic: a weaker box preconditioner fails here
    g = Grid.box((-1.0, 0.5), (2.0, 2.5), n)
    x = g.nodes()
    a = np.zeros(g.node_shape + (2, 2))
    a[..., 0, 0] = 2.0 + np.sin(16 * np.pi * x[..., 0])
    a[..., 1, 1] = 5.0 + 4.0 * np.cos(6 * np.pi * x[..., 0])
    rhs = GridFunction.from_callable(g, lambda p: 1.0 + p[:, 0] * p[:, 1])
    bv = GridFunction.from_callable(g, lambda p: np.sin(np.pi * p[:, 0]) + p[:, 1])
    u = solve_box_dirichlet(GridFunction(g, a), rhs, bv.values[g.boundary_mask()])
    assert u.meta["preconditioner"] == "line-dst1"
    assert u.meta["iterations"] == 1
    assert u.meta["residuals"][-1] <= 1e-10


@pytest.mark.parametrize("field, scales, most", [
    pytest.param("checkerboard2d(1, 4, 8)", (1 / 16,), 21, id="checkerboard"),
    pytest.param("matrix2d((6+sin(2*pi*(y1+y2)))/2, (sin(2*pi*(y1+y2))-2)/2, "
                 "(6+sin(2*pi*(y1+y2)))/2)", (1 / 16,), 19, id="rotated-laminate"),
    pytest.param("expr(3+sin(2*pi*y1)*cos(2*pi*y3)+cos(2*pi*y2)*sin(2*pi*y4)"
                 "+0.5*sin(2*pi*(y3+y4)))", (1 / 4, 1 / 32), 27, id="generic-two-slot"),
    pytest.param("expr(2+sin(2*pi*y2))", (1 / 16,), 17, id="x2-laminate"),
])
def test_box_iterations_on_fields_varying_along_x2(field, scales, most):
    # at most one more than the mean-coefficient Laplacian inverse takes
    g = Grid.box((0.0, 0.0), (1.0, 1.0), 256)
    a = multiscale_coefficient(builtin_family(field, 2), ScaleLadder(scales), g)
    bv = GridFunction.from_callable(g, lambda p: np.sin(np.pi * p[:, 0]))
    u = solve_box_dirichlet(a, GridFunction.constant(g, 1.0), bv.values[g.boundary_mask()])
    assert u.meta["iterations"] <= most
    assert u.meta["residuals"][-1] <= 1e-10


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("field", ["expr(2+sin(2*pi*y1))", "expr(2+sin(2*pi*y2))"])
def test_box_solve_of_a_laminate_in_either_axis_takes_one_iteration(field, n):
    # line_inverse averages along the axis whose faces do not vary
    g = Grid.box((0.0, 0.0), (1.0, 1.0), n)
    a = multiscale_coefficient(builtin_family(field, 2), ScaleLadder((1 / 8,)), g)
    bv = GridFunction.from_callable(g, lambda p: np.sin(np.pi * p[:, 0]) + p[:, 1])
    u = solve_box_dirichlet(a, GridFunction.constant(g, 1.0), bv.values[g.boundary_mask()])
    assert u.meta["iterations"] == 1
    assert u.meta["residuals"][-1] <= 1e-10


def _stacked_laminates(shape, rng):
    """A stack of three diagonal fields on one torus: of x1 alone, of x2
    alone, and constant, each entry drawn from [1, 3]."""
    n1, n2 = shape
    values = np.zeros((3,) + shape + (2, 2))
    for k in range(2):
        values[0, ..., k, k] = rng.uniform(1.0, 3.0, (n1, 1))
        values[1, ..., k, k] = rng.uniform(1.0, 3.0, (1, n2))
        values[2, ..., k, k] = rng.uniform(1.0, 3.0)
    return values


@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (6, 4), (7, 9)])
def test_torus_line_inverse_inverts_stacked_one_coordinate_fields(shape):
    # each sample averages along its own axis, the cyclic systems close
    # through the Sherman-Morrison corner, and 2-node lines fold both
    # couplings into one entry
    rng = np.random.default_rng(11)
    g = Grid(shape=shape, periodic=True, lo=(0.0, 0.0), hi=(1.0, 1.7))
    stack = CellStack(g, _stacked_laminates(shape, rng), ((),) * 3, 1e-10)
    stencil = FluxStencil(stack)
    precondition = torus_line_inverse(stencil)
    v = rng.standard_normal((3,) + shape)
    v -= v.mean(axis=(1, 2), keepdims=True)
    back = precondition(stencil.apply(v))
    back -= back.mean(axis=(1, 2), keepdims=True)
    assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))
    for s in range(3):
        alone = FluxStencil(GridFunction(g, stack.values[s]))
        assert np.array_equal(torus_line_inverse(alone)(stencil.apply(v)[s]),
                              precondition(stencil.apply(v))[s])


def test_torus_line_inverse_is_symmetric_and_positive_on_mean_free_fields():
    g = Grid(shape=(12, 10), periodic=True, lo=(0.0, 0.0), hi=(1.0, 1.0))
    rng = np.random.default_rng(5)
    a = np.zeros(g.node_shape + (2, 2))
    a[..., 0, 0] = rng.uniform(1.0, 9.0, g.node_shape)
    a[..., 1, 1] = rng.uniform(1.0, 9.0, g.node_shape)
    a[..., 0, 1] = a[..., 1, 0] = 0.3
    precondition = torus_line_inverse(FluxStencil(GridFunction(g, a)))
    r, s = (w - w.mean() for w in rng.standard_normal((2,) + g.node_shape))
    pr, ps = precondition(r), precondition(s)
    scale = np.sqrt(np.sum(pr * pr) * np.sum(s * s))
    assert abs(np.sum(pr * s) - np.sum(r * ps)) <= 1e-12 * scale
    assert np.sum(pr * r) > 0 and np.sum(ps * s) > 0


def test_periodic_solve_1d_takes_one_iteration():
    # the 1D line inverse is the operator's own closed-form inverse, so a
    # PCG preconditioned by it stops after one step
    g = Grid.torus(1, 256)
    y = g.axis_coords(0)
    stencil = FluxStencil(GridFunction(g, (2 + np.sin(2 * np.pi * y))[:, None, None]))
    precondition = torus_line_inverse(stencil)
    rough = np.random.default_rng(5).standard_normal(y.shape)
    for r in (np.cos(6 * np.pi * y), rough - rough.mean()):
        z = precondition(r)
        assert np.max(np.abs(stencil.apply(z) - r)) <= 1e-12 * np.max(np.abs(r))
        assert abs(z.mean()) <= 1e-15


def test_constant_coefficient_stays_one_broadcast_tensor_and_is_checked():
    g = Grid.box((0.0, 0.0), (1.0, 1.0), 16)
    tensor = np.array([[2.0, 0.5], [0.5, 1.0]])
    a = GridFunction(g, np.broadcast_to(tensor, g.node_shape + (2, 2)))
    assert 0 in a.values.strides and not a.values.flags.writeable
    FluxStencil(a)
    for bad, match in ((np.diag([1.0, -1e-3]), "min eigenvalue -0.001"),
                       (np.array([[1.0, 2.0], [2.0, 1.0]]), "not positive definite"),
                       (np.array([[1.0, 0.2], [0.1, 1.0]]), "symmetric"),
                       (np.diag([1.0, np.inf]), "not finite")):
        with pytest.raises(ValueError, match=match):
            FluxStencil(GridFunction(g, np.broadcast_to(bad, g.node_shape + (2, 2))))
        with pytest.raises(ValueError, match=match):
            FluxStencil(GridFunction.constant(g, bad))


@pytest.mark.filterwarnings("error")
def test_spd_check_takes_lambda_min_without_cancellation():
    # eigenvalues 1e8 and 2.0e-9: tr/2 - sqrt((tr/2)^2 - det) cancels to 0,
    # det / lambda_max does not
    g = Grid.torus(2, 4)
    stiff = np.array([[1e8, 9999.99999], [9999.99999, 1.0]])
    FluxStencil(GridFunction(g, np.broadcast_to(stiff, g.node_shape + (2, 2))))
    FluxStencil(GridFunction.constant(g, stiff))
    for bad in (np.array([[1.0, 2.0], [2.0, 4.0]]),  # singular
                np.array([[1.0, 2.0], [2.0, 1.0]]),  # indefinite
                np.array([[0.0, 1e-200], [1e-200, 0.0]])):  # lambda_max reads 0
        with pytest.raises(ValueError, match="not positive definite"):
            FluxStencil(GridFunction.constant(g, bad))


def test_box_solve_matches_jacobi_reference():
    a = laminate_box(64, mixed=0.4)
    g = a.grid
    stencil = FluxStencil(a)
    assert stencil.mixed is not None
    mask = g.boundary_mask()
    rhs = GridFunction.from_callable(g, lambda x: 1.0 + x[:, 0] * x[:, 1])
    bv = GridFunction.from_callable(g, lambda x: np.cos(np.pi * x[:, 1]) + x[:, 0])
    u = solve_box_dirichlet(a, rhs, bv.values[mask], tol=1e-10)

    lift = np.where(mask, bv.values, 0.0)
    b = np.where(mask, 0.0, rhs.values - stencil.apply(lift))
    diag = box_diagonal(stencil)

    def apply_interior(v):
        out = stencil.apply(v)
        out[mask] = 0.0
        return out

    v, info = pcg(apply_interior, b, lambda r: r / diag, tol=1e-10)
    reference = v + lift
    assert info["iterations"] > 4 * u.meta["iterations"]
    assert np.max(np.abs(u.values - reference)) <= 1e-8 * np.max(np.abs(reference))


def test_box_solve_loads_no_scipy_and_cli_import_no_fft():
    # scipy.fft and an eager numpy.fft would cost resident memory and start-up
    script = (
        "import sys, numpy as np\n"
        "import reiterate.cli\n"
        "assert 'numpy.fft' not in sys.modules, 'numpy.fft loaded at import'\n"
        "from reiterate.grid import Grid, GridFunction, solve_box_dirichlet\n"
        "g = Grid.box((0.0, 0.0), (1.0, 1.0), 32)\n"
        "u = solve_box_dirichlet(GridFunction.constant(g, np.eye(2)),\n"
        "                        GridFunction.constant(g, 1.0), 0.0)\n"
        "assert u.meta['preconditioner'] == 'line-dst1'\n"
        "g = Grid.box(0.0, 1.0, 64)\n"
        "u = solve_box_dirichlet(GridFunction.constant(g, np.eye(1)),\n"
        "                        GridFunction.constant(g, 1.0), 0.0)\n"
        "assert u.meta['preconditioner'] == 'closed-form'\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# serialization


@settings(max_examples=10, deadline=None)
@given(shape_case=st.sampled_from([(1, ()), (1, ("v",)), (2, ()), (2, ("v",)), (2, ("m",))]),
       periodic=st.booleans(), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_binary_roundtrip_bit_exact(shape_case, periodic, seed, tmp_path_factory):
    d, comp = shape_case
    rng = np.random.default_rng(seed)
    lo = tuple(rng.uniform(-2.0, 1.0, d))
    hi = tuple(a + w for a, w in zip(lo, rng.uniform(0.25, 3.0, d)))
    g = Grid(shape=(8,) * d, periodic=periodic, lo=lo, hi=hi)
    comp_shape = {(): (), ("v",): (d,), ("m",): (d, d)}[comp]
    f = GridFunction(g, rng.standard_normal(g.node_shape + comp_shape))
    path = tmp_path_factory.mktemp("io") / "field.bin"
    save_gridfunction(f, path)
    back = load_gridfunction(path, g)
    assert np.array_equal(back.values, f.values)
    auto = load_gridfunction(path)
    assert np.array_equal(auto.values, f.values)
    assert auto.grid == g
    shifted = Grid(shape=g.shape, periodic=periodic, lo=tuple(v + 1 for v in lo),
                   hi=tuple(v + 1 for v in hi))
    with pytest.raises(ValueError, match="does not match"):
        load_gridfunction(path, shifted)


def test_version_1_file_is_rejected(tmp_path):
    # v1 layout: header, node counts, values; no corners, so no domain
    values = np.arange(5.0)
    p = tmp_path / "v1.bin"
    p.write_bytes(b"RHGF" + struct.pack("<HBBB7x", 1, 1, 0, 1)
                  + struct.pack("<I", 5) + values.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported format version 1"):
        load_gridfunction(p)
    with pytest.raises(ValueError, match="unsupported format version 1"):
        load_gridfunction(p, Grid.box(0.0, 1.0, 4))


def test_load_rejects_corrupt_header(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\0" * 20)
    with pytest.raises(ValueError):
        load_gridfunction(p)


def test_load_rejects_truncated_payload(tmp_path):
    g = Grid.torus(1, 16)
    f = GridFunction(g, np.arange(16.0))
    p = tmp_path / "trunc.bin"
    save_gridfunction(f, p)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        load_gridfunction(p)


def test_l2_norm_quadrature_weight():
    g = Grid.box(0.0, 2.0, 64)
    f = GridFunction(g, np.ones(g.node_shape))
    # sqrt(h * count) = sqrt(extent + h) for the node-inclusive box
    assert l2_norm(f) == pytest.approx(np.sqrt(2.0 + g.spacing[0]), rel=1e-12)


def test_stacked_pcg_keeps_per_system_counts_and_flags_the_stagnating_one():
    # three diagonal systems: one converges at once, one needs every
    # eigenvalue (n steps), and one has a zero right-hand side
    n = 6
    diag = np.stack([np.full(n, 2.0), np.arange(1.0, n + 1), np.ones(n)])
    b = np.stack([np.ones(n), np.ones(n), np.zeros(n)])
    x, info = pcg(lambda v: diag * v, b, lambda r: r.copy(), tol=1e-12, stacked=True)
    assert np.allclose(x[:2], b[:2] / diag[:2], rtol=1e-12) and not x[2].any()
    assert info["sample_iterations"] == [1, n, 0]
    assert info["iterations"] == n + 1
    assert [len(h) for h in info["sample_residuals"]] == [1, n, 0]
    assert info["residuals"][-1] == max(h[-1] for h in info["sample_residuals"] if h)

    with pytest.raises(SolverFailure) as caught:
        pcg(lambda v: diag * v, b, lambda r: r.copy(), tol=1e-12, maxiter=3,
            stacked=True)
    # the history is the stagnating system's own, one entry per step
    assert len(caught.value.residuals) == 3
    assert caught.value.residuals[-1] > 1e-12


def test_gridfunction_aliases_the_callers_array_without_freezing_it():
    v = np.zeros(4)
    gf = GridFunction(Grid.torus(1, 4), v)
    v[0] = 1.0
    assert gf.values[0] == 1.0
    assert not gf.values.flags.writeable
    with pytest.raises(ValueError):
        gf.values[1] = 1.0


@pytest.mark.parametrize("m", [1, 15, 127])
def test_blocked_dst1_equals_one_block_bitwise(m, monkeypatch):
    block = max(1, grid_module._DST_BLOCK_NODES // (2 * m + 2))
    rng = np.random.default_rng(m)
    for rows in sorted({1, max(block - 1, 1), block, 2 * block + 1}):
        x = rng.standard_normal((rows, m))
        blocked = grid_module._dst1(x)
        with monkeypatch.context() as patch:
            patch.setattr(grid_module, "_DST_BLOCK_NODES", rows * (2 * m + 2))
            whole = grid_module._dst1(x)
        assert np.array_equal(blocked, whole)
        ring = np.zeros((rows + 2, m + 2))
        assert grid_module._dst1(x, out=ring[1:-1, 1:-1]).base is ring
        assert np.array_equal(ring[1:-1, 1:-1], blocked) and not ring[[0, -1]].any()
    j = np.arange(1, m + 1)
    reference = np.einsum("rj,jk->rk", x, np.sin(np.pi * np.outer(j, j) / (m + 1)))
    assert np.allclose(blocked, reference, rtol=0, atol=1e-12 * m)


_BOX_2D = Grid.box((0.0, -1.0), (1.3, 1.0), (12, 9))
_TORUS_2D = Grid(shape=(12, 9), periodic=True, lo=(0.0, 0.0), hi=(1.0, 1.7))


@pytest.mark.parametrize("grid, off", [
    (Grid.box(0.0, 1.3, 12), 0.0), (_BOX_2D, 0.0), (_BOX_2D, 0.4),
    (Grid.torus(1, 12), 0.0), (_TORUS_2D, 0.0), (_TORUS_2D, 0.4),
], ids=["box-1d", "box-2d", "box-2d-mixed", "torus-1d", "torus-2d", "torus-2d-mixed"])
def test_broadcast_tensor_stencil_matches_the_materialized_one_bitwise(grid, off):
    d = grid.d
    # 2 a a / (a + a) differs from a by an ulp for 1.9 and 2.9
    tensor = np.array([[1.9, off], [off, 2.9]])[:d, :d]
    broadcast = FluxStencil(GridFunction(grid, np.broadcast_to(tensor, grid.node_shape + (d, d))))
    materialized = GridFunction.constant(grid, tensor)
    dense = FluxStencil(materialized)
    for fb, fd in zip(broadcast.faces, dense.faces):
        assert fb.shape == fd.shape and not any(fb.strides)
        assert np.array_equal(fb, fd)
    assert broadcast.faces[0].flat[0] != tensor[0, 0]
    if off:
        assert not any(broadcast.mixed.strides)
        # a copy: the stencil does not keep the N x 2 x 2 tensor alive
        assert dense.mixed.flags.c_contiguous
        assert not np.shares_memory(dense.mixed, materialized.values)
        assert np.array_equal(broadcast.mixed, dense.mixed)
    u = np.random.default_rng(3).standard_normal(grid.node_shape)
    assert np.array_equal(broadcast.apply(u), dense.apply(u))
    if grid.periodic:
        u -= u.mean()
        assert np.array_equal(torus_line_inverse(broadcast)(u), torus_line_inverse(dense)(u))
    elif d == 2:
        assert np.array_equal(line_inverse(broadcast)(u), line_inverse(dense)(u))


def test_solves_leave_every_input_array_unchanged():
    rng = np.random.default_rng(8)
    diag = rng.uniform(1.0, 3.0, (3, 7))
    b = rng.standard_normal((3, 7))
    before = b.copy()
    pcg(lambda v: diag[0] * v, b[0], lambda r: r / diag[0], tol=1e-12)
    pcg(lambda v: diag * v, b, lambda r: r.copy(), tol=1e-12, stacked=True)
    assert np.array_equal(b, before)

    g = Grid.box((0.0, 0.0), (1.0, 1.0), 32)
    tensor = rng.uniform(0.1, 0.2, g.node_shape + (2, 2))
    tensor[..., 1, 0] = tensor[..., 0, 1]
    tensor[..., 0, 0] += 2.0
    tensor[..., 1, 1] += 3.0
    rhs = rng.standard_normal(g.node_shape)
    bv = rng.standard_normal(int(g.boundary_mask().sum()))  # values on the ring
    effective = np.array([[2.0, 0.3], [0.3, 1.5]])
    arrays = (tensor, rhs, bv, effective)
    copies = [x.copy() for x in arrays]
    u = solve_box_dirichlet(GridFunction(g, tensor), GridFunction(g, rhs), bv)
    assert u.meta["iterations"] > 1
    bvp = BVP(grid=g, rhs=GridFunction(g, rhs), boundary=bv)
    solve_multiscale(bvp, builtin_family("checkerboard2d(1, 4, 8)", 2), ScaleLadder((1 / 4,)))
    solve_homogenized(bvp, effective)
    solve_homogenized(bvp, builtin_family("expr(2+x1*x2)", 2))
    for x, copy in zip(arrays, copies):
        assert x.flags.writeable and np.array_equal(x, copy)
