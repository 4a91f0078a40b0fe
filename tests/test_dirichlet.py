"""Box solves against the exact 1D two-point quadrature solution.

-(a u')' = f with u(0) = alpha, u(1) = beta integrates in closed form:
a u' = C - F with F the antiderivative of f, so u follows from two
cumulative quadratures and one constant fixed by the right endpoint.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from reiterate.cascade import CorrectorTable, homogenize_all, point_axis
from reiterate.cell import CellStack, EffectiveTensor, solve_corrector
from reiterate.coeff import ScaleLadder, builtin_family
from reiterate.config import ARRAYS_PER_NODE
from reiterate.dirichlet import (BVP, boundary_layer_mask, cutoff, error_report,
                                 multiscale_coefficient, require_resolved,
                                 smoothstep5, solve_homogenized, solve_multiscale,
                                 two_scale_expansion)
from reiterate.errors import ResolutionError
from reiterate.grid import Grid, gradient


def exact_two_point(a_fn, f_fn, alpha, beta, n=40_001):
    x = np.linspace(0.0, 1.0, n)
    F = cumulative_trapezoid(f_fn(x), x, initial=0.0)
    inv_a = 1.0 / a_fn(x)
    I1 = cumulative_trapezoid(inv_a, x, initial=0.0)
    IF = cumulative_trapezoid(F * inv_a, x, initial=0.0)
    C = (beta - alpha + IF[-1]) / I1[-1]
    return x, alpha + C * I1 - IF


def oscillating(eps):
    return lambda x: 2.0 + np.sin(2.0 * np.pi * x / eps)


# ---------------------------------------------------------------------------
# plumbing


def test_bvp_broadcasts_constants():
    grid = Grid.box(0.0, 1.0, 16)
    bvp = BVP.on(grid, rhs=1.0, boundary=0.25)
    assert np.all(bvp.rhs.values == 1.0)
    assert bvp.boundary.shape == () and bvp.boundary == 0.25


def test_resolution_floor_is_eps_over_eight():
    ladder = ScaleLadder((1.0 / 64,))
    require_resolved(Grid.box(0.0, 1.0, 512), ladder)  # h = eps/8 exactly
    with pytest.raises(ResolutionError):
        require_resolved(Grid.box(0.0, 1.0, 511), ladder)


def test_multiscale_coefficient_tabulates_along_the_ladder():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    ladder = ScaleLadder((1.0 / 8,))
    grid = Grid.box(0.0, 1.0, 128)
    a = multiscale_coefficient(field, ladder, grid)
    x = grid.axis_coords(0)
    assert np.allclose(a.values[:, 0, 0], 2 + np.sin(2 * np.pi * 8 * x), atol=1e-13)


# ---------------------------------------------------------------------------
# solves


def test_constant_tensor_reproduces_parabola_exactly():
    grid = Grid.box(0.0, 1.0, 32)
    eff = EffectiveTensor(tensor=np.array([[2.0]]), mu=0.5, spectrum=(2.0, 2.0))
    u = solve_homogenized(BVP.on(grid, rhs=1.0), eff)
    x = grid.axis_coords(0)
    assert np.max(np.abs(u.values - x * (1 - x) / 4)) < 1e-13


def test_multiscale_solve_matches_quadrature_oracle():
    eps = 1.0 / 16
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    ladder = ScaleLadder((eps,))
    x_ref, u_ref = exact_two_point(oscillating(eps), lambda x: np.ones_like(x),
                                   0.0, 0.3)
    errs = []
    for n in (512, 1024):
        grid = Grid.box(0.0, 1.0, n)
        bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: 0.3 * x[..., 0])
        u = solve_multiscale(bvp, field, ladder)
        errs.append(np.max(np.abs(u.values - np.interp(grid.axis_coords(0),
                                                       x_ref, u_ref))))
    assert errs[0] < 2e-4
    assert errs[0] / errs[1] > 3.5


def test_underresolved_multiscale_solve_is_refused():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    with pytest.raises(ResolutionError):
        solve_multiscale(BVP.on(Grid.box(0.0, 1.0, 64), rhs=1.0), field,
                         ScaleLadder((1.0 / 16,)))


def test_homogenized_slow_field_solve():
    # effective coefficient sqrt(3)*(2+sin(2 pi x)) tabulated as a slow field
    from reiterate.cascade import homogenize_all

    field = builtin_family(
        "slow_modulated(laminate1d(2+sin(2*pi*y1)), offset=2, amplitude=1, k1=1)", 1)
    result = homogenize_all(field, ScaleLadder((1.0 / 32,)), resolution=256,
                            tol=1e-12, x_resolution=512)
    grid = Grid.box(0.0, 1.0, 512)
    u = solve_homogenized(BVP.on(grid, rhs=1.0), result.effective_field)
    aeff = lambda x: np.sqrt(3.0) * (2 + np.sin(2 * np.pi * x))
    x_ref, u_ref = exact_two_point(aeff, lambda x: np.ones_like(x), 0.0, 0.0)
    err = np.max(np.abs(u.values - np.interp(grid.axis_coords(0), x_ref, u_ref)))
    assert err < 5e-6


def test_2d_multiscale_solve_is_positive_inside():
    field = builtin_family("checkerboard2d(1, 4, 4)", 2)
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 64)
    u = solve_multiscale(BVP.on(grid, rhs=1.0), field, ScaleLadder((1.0 / 8,)),
                         tol=1e-9)
    interior = ~grid.boundary_mask()
    assert np.all(u.values[interior] > 0)
    assert u.meta["iterations"] > 0


# ---------------------------------------------------------------------------
# cutoff and layers


def test_smoothstep_endpoints_and_slope():
    s = np.linspace(0, 1, 1001)
    v = smoothstep5(s)
    assert v[0] == 0.0 and v[-1] == 1.0
    assert np.all(np.diff(v) >= 0)
    slope = np.max(np.diff(v)) / (s[1] - s[0])
    assert slope <= 15 / 8 + 1e-3


def test_cutoff_support_and_gradient_bound():
    grid = Grid.box(0.0, 1.0, 256)
    eps = 1.0 / 32
    eta = cutoff(grid, eps)
    gradient_bound = 15.0 / (8.0 * eps)
    dist = grid.distance_to_boundary(grid.nodes())
    assert np.all(eta.values[dist <= 3 * eps] == 0.0)
    assert np.all(eta.values[dist >= 4 * eps] == 1.0)
    observed = np.max(np.abs(gradient(eta).values))
    assert observed <= gradient_bound * (1 + 1e-2)
    assert gradient_bound < 2.0 / eps


def test_boundary_layer_masks_nest():
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 32)
    thin = boundary_layer_mask(grid, 0.05)
    thick = boundary_layer_mask(grid, 0.2)
    assert thin.sum() < thick.sum()
    assert np.all(thick[thin])


# ---------------------------------------------------------------------------
# two-scale rebuild


def expansion_case(eps, cells_per_eps=32):
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    ladder = ScaleLadder((eps,))
    n = int(round(cells_per_eps / eps))
    grid = Grid.box(0.0, 1.0, n)
    bvp = BVP.on(grid, rhs=1.0)
    u_eps = solve_multiscale(bvp, field, ladder)
    stack = CellStack.from_sampler(
        lambda y: field(np.zeros_like(y), [y]), d=1, resolution=256, tol=1e-12)
    # the n = 1 table: one cell's correctors, no slower arguments
    table = CorrectorTable(d=1, level=1, slower_axes=(point_axis(),), cell_grid=stack.grid,
                           values=solve_corrector(stack)[0])
    u0 = solve_homogenized(bvp, np.array([[np.sqrt(3.0)]]))
    u1 = two_scale_expansion(u0, table, ladder)
    return u_eps, u0, u1


def test_expansion_beats_plain_homogenized_limit_in_h1():
    # eps must be small enough that the 4 eps collar leaves interior to correct
    u_eps, u0, u1 = expansion_case(1.0 / 64)
    plain = error_report(u_eps, u0)
    corrected = error_report(u_eps, u1)
    assert corrected["h1"] < 0.7 * plain["h1"]
    assert corrected["l2"] < plain["l2"]


def test_expansion_meta_records_the_cutoff_gradient_bound():
    eps = 1.0 / 16
    *_, u1 = expansion_case(eps)
    assert u1.meta == {"eps": eps, "cutoff_gradient_bound": 15.0 / (8.0 * eps)}


def test_expansion_rejects_a_table_deeper_than_level_one():
    # a level-2 table holds chi^2 only; the rebuild would drop eps_1 chi^1
    field = builtin_family("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))", 1)
    ladder = ScaleLadder((1.0 / 4, 1.0 / 16))
    table = homogenize_all(field, ladder, resolution=32,
                           retain_correctors=True).corrector_table
    assert table.level == 2
    grid = Grid.box(0.0, 1.0, 256)
    u0 = solve_homogenized(BVP.on(grid, rhs=1.0), np.array([[3.0]]))
    with pytest.raises(ValueError, match="level-2 table"):
        two_scale_expansion(u0, table, ladder)


def test_expansion_h1_error_decays_like_sqrt_eps():
    eps_values = [2.0**-k for k in range(4, 9)]
    errors = []
    for eps in eps_values:
        u_eps, _, u1 = expansion_case(eps)
        errors.append(error_report(u_eps, u1)["h1_rel"])
    fit = np.polyfit(np.log(eps_values), np.log(errors), 1)[0]
    assert 0.4 <= fit <= 0.8


def test_error_report_layer_norms():
    u_eps, _, u1 = expansion_case(1.0 / 16)
    report = error_report(u_eps, u1, layer_widths=(0.1, 0.25))
    assert 0 < report["layers"][0.1] <= report["layers"][0.25] <= report["l2"] + 1e-15
    assert report["h1"] >= report["l2"]


@pytest.mark.parametrize("spec, d, n, scales", [
    ("expr(2+sin(2*pi*y1)*sin(2*pi*y2))", 2, 256, (1 / 16,)),
    ("matrix2d((6+sin(2*pi*(y1+y2)))/2, (sin(2*pi*(y1+y2))-2)/2, "
     "(6+sin(2*pi*(y1+y2)))/2)", 2, 256, (1 / 16,)),
    ("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))", 1, 4096, (1 / 4, 1 / 16)),
], ids=["generic-2d", "rotated-laminate-2d", "laminate-1d"])
def test_box_solve_peak_memory_fits_the_config_guard(spec, d, n, scales):
    assert _traced_arrays_per_node(spec, d, n, scales) <= ARRAYS_PER_NODE


def test_box_solve_peaks_at_11_arrays_per_node():
    # tighter than the config guard: neither the boundary lift nor the
    # assembled right-hand side may live through PCG beside pcg's own copy,
    # and pcg updates x and r through A p, with no work array of its own
    spec = "expr(2+sin(2*pi*y1)*sin(2*pi*y2))"
    assert _traced_arrays_per_node(spec, 2, 256, (1 / 16,)) <= 11


def test_bvp_on_numbers_traces_no_node_array():
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bvp = BVP.on(grid, 1.0, 0.0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 257**2 * 8
    assert bvp.rhs.values.strides == (0, 0) and bvp.rhs.values[0, 0] == 1.0
    assert bvp.boundary.shape == () and bvp.boundary == 0.0


def test_bvp_on_tabulates_boundary_data_on_the_ring_only():
    grid = Grid.box((0.0, 0.0), (1.0, 1.0), 256)

    def data(x):
        return np.sin(np.pi * x[..., 0]) + x[..., 1]

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        bvp = BVP.on(grid, 1.0, data)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    # the boolean mask is an eighth of a node array; the ring is 1,024 values
    assert peak < 257**2 * 8
    assert kept < 257**2
    ring = data(grid.nodes())[grid.boundary_mask()]
    assert bvp.boundary.shape == ring.shape and np.array_equal(bvp.boundary, ring)


def _traced_arrays_per_node(spec, d, n, scales):
    """Peak traced bytes of one box solve over the bytes of a node array:
    traced, not RSS, so the count is deterministic."""
    grid = Grid.box((0.0,) * d, (1.0,) * d, n)
    bvp = BVP.on(grid, rhs=1.0, boundary=lambda x: np.sin(np.pi * x[..., 0]))
    field = builtin_family(spec, d)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        u = solve_multiscale(bvp, field, ScaleLadder(scales))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.isfinite(u.values).all()
    return peak / (n + 1) ** d / 8
