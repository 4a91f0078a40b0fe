"""Dirichlet problems on a box: oscillating solves and two-scale rebuilds.

solve_multiscale discretizes -div(A(x, x/eps_1, ..., x/eps_n) grad u) = f
with the same flux stencil the cell problems use, refusing grids whose
spacing exceeds an eighth of the finest scale.  solve_homogenized handles
the limit problem for a constant tensor or a tabulated slow field.  The
expansion helpers rebuild the oscillating solution from the homogenized
one: a quintic cutoff vanishing near the boundary, kernel smoothing at
the finest scale, and the corrector sampled along x/eps.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .cascade import CorrectorTable
from .coeff import CoefficientField, ScaleLadder, evaluate_multiscale
from .errors import ResolutionError
from .grid import Grid, GridFunction, gradient, l2_norm, solve_box_dirichlet
from .smoothing import smooth


class BVP(NamedTuple):
    """Box grid, right-hand side, and Dirichlet boundary data: a number or
    the values at grid.boundary_nodes(), which is all solve_box_dirichlet
    reads of them."""

    grid: Grid
    rhs: GridFunction
    boundary: np.ndarray

    @classmethod
    def on(cls, grid: Grid, rhs=0.0, boundary=0.0) -> "BVP":
        """Tabulate rhs and boundary, each a function of points or a
        number: rhs through GridFunction.from_callable, boundary at the
        boundary nodes only."""
        if callable(boundary):
            boundary = boundary(grid.boundary_nodes())
        return cls(grid=grid, rhs=GridFunction.from_callable(grid, rhs),
                   boundary=np.asarray(boundary, dtype=float))


def cells_per_axis(width: float, cells_per_scale: int, finest: float) -> int:
    """The grid-size law: cells_per_scale cells across the finest scale."""
    return int(np.ceil(width * cells_per_scale / finest))


def require_resolved(grid: Grid, ladder: ScaleLadder) -> None:
    """Spacing must not exceed an eighth of the finest scale."""
    h = max(grid.spacing)
    finest = ladder.finest
    if h > finest / 8 * (1 + 1e-12):
        needed = cells_per_axis(grid.hi[0] - grid.lo[0], 8, finest)
        raise ResolutionError(
            f"grid spacing {h:g} exceeds eps_n/8 = {finest / 8:g}; "
            f"need at least {needed} cells per axis")


def multiscale_coefficient(field: CoefficientField, ladder: ScaleLadder,
                           grid: Grid) -> GridFunction:
    """A(x, x/eps_1, ..., x/eps_n) tabulated at the grid nodes."""
    return GridFunction.from_callable(grid, lambda x: evaluate_multiscale(field, ladder, x))


def solve_multiscale(bvp: BVP, field: CoefficientField, ladder: ScaleLadder,
                     tol: float = 1e-10) -> GridFunction:
    require_resolved(bvp.grid, ladder)
    # passed on without a name here, so the solve can free the tensor
    return solve_box_dirichlet(multiscale_coefficient(field, ladder, bvp.grid),
                               bvp.rhs, bvp.boundary, tol=tol)


def _limit_coefficient(effective, grid: Grid) -> GridFunction:
    """The homogenized tensor at the grid nodes: a slow field tabulated, a
    constant tensor broadcast to every node."""
    if isinstance(effective, CoefficientField):
        if effective.n_scales:
            raise ValueError("homogenized coefficient must not keep fast slots")
        return GridFunction.from_callable(grid, lambda x: effective(x, []))
    return GridFunction.from_callable(grid, getattr(effective, "tensor", effective))


def solve_homogenized(bvp: BVP, effective, tol: float = 1e-10) -> GridFunction:
    """Limit solve; effective is a tensor, an EffectiveTensor, or a slow field."""
    # passed on without a name here, so the solve can free the tensor
    return solve_box_dirichlet(_limit_coefficient(effective, bvp.grid), bvp.rhs,
                               bvp.boundary, tol=tol)


# ---------------------------------------------------------------------------
# boundary cutoff and layers


def smoothstep5(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def cutoff(grid: Grid, eps: float) -> GridFunction:
    """Quintic ramp in the boundary distance: 0 inside 3*eps, 1 beyond 4*eps.

    The ramp slope never exceeds 15/(8*eps), safely below 2/eps.
    """
    dist = grid.distance_to_boundary(grid.nodes())
    return GridFunction(grid, smoothstep5((dist - 3.0 * eps) / eps))


def boundary_layer_mask(grid: Grid, width: float) -> np.ndarray:
    """Nodes within the given distance of a face."""
    return grid.distance_to_boundary(grid.nodes()) <= width + 1e-12


# ---------------------------------------------------------------------------
# two-scale rebuild


def two_scale_expansion(u0: GridFunction, table: CorrectorTable,
                        ladder: ScaleLadder) -> GridFunction:
    """u0 + eps_n * chi_j(x, x/eps) S(eta dx_j u0), smoothed at eps_n.

    Smoothing touches only the slow factor eta grad u0; running it over
    the assembled product would erase the corrector oscillation, whose
    gradient is exactly what cancels the defect of the plain limit.
    The cutoff zeroes the slow factor within 3 eps of the boundary, and
    the kernel reaches eps/2 further, so the rebuild keeps the boundary
    data of u0 untouched.

    Only a level-1 table is accepted: a deeper one would need every
    slower level's corrector term too, which this rebuild does not add.
    """
    if table.level > 1:
        raise ValueError(f"two_scale_expansion adds only eps_n chi^n; a level-{table.level} "
                         "table needs every slower level's corrector too")
    grid = u0.grid
    eps = ladder.finest
    x = grid.nodes().reshape(-1, grid.d)
    chi = table.sample(x, ladder).reshape(grid.node_shape + (grid.d,))
    grad0 = gradient(u0).values
    eta = cutoff(grid, eps).values
    slow = np.stack([smooth(GridFunction(grid, eta * grad0[..., j]), eps).values
                     for j in range(grid.d)], axis=-1)
    corrector_term = np.einsum("...j,...j->...", chi, slow)
    return GridFunction(grid, u0.values + eps * corrector_term,
                        meta={"eps": eps, "cutoff_gradient_bound": 15.0 / (8.0 * eps)})


def error_report(u_eps: GridFunction, approx: GridFunction,
                 layer_widths=()) -> dict:
    """L2/H1 norms of the defect, absolute and relative, plus layer norms."""
    grid = u_eps.grid
    w = GridFunction(grid, u_eps.values - approx.values)
    grad_w = gradient(w)
    grad_u = gradient(u_eps)
    l2 = l2_norm(w)
    h1 = float(np.sqrt(l2**2 + l2_norm(grad_w)**2))
    u_l2 = l2_norm(u_eps)
    u_h1 = float(np.sqrt(u_l2**2 + l2_norm(grad_u)**2))
    report = {
        "l2": l2, "h1": h1,
        "l2_rel": l2 / u_l2 if u_l2 else 0.0,
        "h1_rel": h1 / u_h1 if u_h1 else 0.0,
        "layers": {},
    }
    for width in layer_widths:
        mask = boundary_layer_mask(grid, width)
        report["layers"][width] = l2_norm(w, mask)
    return report
