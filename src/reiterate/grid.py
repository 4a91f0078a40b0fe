"""Uniform grids, nodal fields, discrete calculus, and elliptic solves.

Grids are uniform tensor-product grids in d in {1, 2}, either periodic
(the unit torus per axis, node 0 identified with node N, no duplicate
layer stored) or boxes with both boundary layers stored.  ``shape``
counts cells per axis, so spacing * shape = extent on every axis for
both topologies.

Discrete calculus pairs centered-difference gradient and divergence so
that <div v, u> = -<v, grad u> holds to machine precision on periodic
grids.  The elliptic solves use the flux form with face-harmonic
averaging of diagonal coefficient entries (exact harmonic means for 1D
laminates) and a matrix-free preconditioned conjugate gradient with one
of two preconditioners:

* Jacobi (the stencil diagonal) on periodic 2D cells, in the stacked
  corrector solve of ``cell`` (cell.solve_corrector), and in
  solve_periodic_elliptic.  Cells are small, so a cheap apply wins.
* The exact inverse of the box operator with its faces averaged along
  x2, applied by a DST-I along x2 and one tridiagonal sweep along x1 per
  mode (line_inverse), on 2D boxes in solve_box_dirichlet.  A diagonal
  coefficient whose faces do not vary along x2 takes one iteration;
  otherwise the count depends on the contrast and not on the mesh.

The periodic stencils and pcg accept a leading sample axis, so a stack
of cells is solved by one loop with a per-sample convergence test; a
single system is the same loop on a stack of one.  In 1D nothing
iterates: box solves integrate the flux twice in closed form, and so do
the cell correctors (see ``cell``).  The module needs numpy alone.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CompatibilityError, ResolutionError, SolverFailure

MAGIC = b"RHGF"
FORMAT_VERSION = 2
_SHAPE_CODES = {0: (), 1: ("d",), 2: ("d", "d")}


@dataclass(frozen=True)
class Grid:
    """Uniform grid on a torus or a box.  ``shape`` counts cells per axis."""

    shape: tuple[int, ...]
    periodic: bool
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.shape) not in (1, 2):
            raise ValueError("only d=1 and d=2 grids are supported")
        if len(self.lo) != len(self.shape) or len(self.hi) != len(self.shape):
            raise ValueError("corner tuples must match dimension")
        if any(n < 2 for n in self.shape):
            raise ValueError("need at least 2 cells per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box corners out of order")

    @classmethod
    def torus(cls, d: int, n: int) -> "Grid":
        return cls(shape=(n,) * d, periodic=True, lo=(0.0,) * d, hi=(1.0,) * d)

    @classmethod
    def box(cls, lo, hi, n) -> "Grid":
        lo = tuple(float(v) for v in np.atleast_1d(lo))
        hi = tuple(float(v) for v in np.atleast_1d(hi))
        shape = (n,) * len(lo) if np.isscalar(n) else tuple(int(v) for v in n)
        return cls(shape=shape, periodic=False, lo=lo, hi=hi)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extent, self.shape))

    @property
    def node_shape(self) -> tuple[int, ...]:
        if self.periodic:
            return self.shape
        return tuple(n + 1 for n in self.shape)

    def axis_coords(self, axis: int) -> np.ndarray:
        n = self.node_shape[axis]
        return self.lo[axis] + self.spacing[axis] * np.arange(n)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (*node_shape, d)."""
        axes = [self.axis_coords(i) for i in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def boundary_mask(self) -> np.ndarray:
        if self.periodic:
            return np.zeros(self.node_shape, dtype=bool)
        mask = np.zeros(self.node_shape, dtype=bool)
        for axis in range(self.d):
            index = [slice(None)] * self.d
            index[axis] = 0
            mask[tuple(index)] = True
            index[axis] = -1
            mask[tuple(index)] = True
        return mask

    def distance_to_boundary(self, points: np.ndarray) -> np.ndarray:
        """Exact distance to the box boundary (min over faces)."""
        if self.periodic:
            raise ValueError("periodic grids have no boundary")
        points = np.asarray(points, dtype=float)
        dist = np.full(points.shape[:-1], np.inf)
        for axis in range(self.d):
            dist = np.minimum(dist, points[..., axis] - self.lo[axis])
            dist = np.minimum(dist, self.hi[axis] - points[..., axis])
        return dist


@dataclass(frozen=True)
class GridFunction:
    """Nodal field on a grid: scalar, d-vector, or d x d matrix values."""

    grid: Grid
    values: np.ndarray
    meta: dict = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=float)
        node_shape = self.grid.node_shape
        comp = values.shape[len(node_shape):]
        if values.shape[: len(node_shape)] != node_shape:
            raise ValueError(f"values shape {values.shape} does not start with node shape {node_shape}")
        d = self.grid.d
        if comp not in ((), (d,), (d, d)):
            raise ValueError(f"component shape {comp} is not scalar, vector, or matrix for d={d}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: Grid, fn, meta=None) -> "GridFunction":
        nodes = grid.nodes().reshape(-1, grid.d)
        vals = np.asarray(fn(nodes), dtype=float)
        return cls(grid, vals.reshape(grid.node_shape + vals.shape[1:]), meta=meta)

    @classmethod
    def constant(cls, grid: Grid, value) -> "GridFunction":
        value = np.asarray(value, dtype=float)
        vals = np.broadcast_to(value, grid.node_shape + value.shape).copy()
        return cls(grid, vals)

    @property
    def component_shape(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.d:]

    @property
    def is_scalar(self) -> bool:
        return self.component_shape == ()

    def magnitude(self) -> np.ndarray:
        """Pointwise Euclidean (Frobenius) magnitude, shape node_shape."""
        return _magnitude(self.values, self.grid.d)


# ---------------------------------------------------------------------------
# discrete calculus


def _axis_derivative(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    h = grid.spacing[axis]
    if grid.periodic:
        return (np.roll(values, -1, axis=axis) - np.roll(values, 1, axis=axis)) / (2.0 * h)
    out = np.empty_like(values)
    inner = [slice(None)] * values.ndim

    def sl(s):
        idx = list(inner)
        idx[axis] = s
        return tuple(idx)

    out[sl(slice(1, -1))] = (values[sl(slice(2, None))] - values[sl(slice(None, -2))]) / (2.0 * h)
    # second-order one-sided closures at the two box faces
    out[sl(0)] = (-3.0 * values[sl(0)] + 4.0 * values[sl(1)] - values[sl(2)]) / (2.0 * h)
    out[sl(-1)] = (3.0 * values[sl(-1)] - 4.0 * values[sl(-2)] + values[sl(-3)]) / (2.0 * h)
    return out


def gradient(f: GridFunction) -> GridFunction:
    """Second-order gradient; centered inside, one-sided at box faces."""
    grid = f.grid
    parts = [_axis_derivative(grid, f.values, axis) for axis in range(grid.d)]
    return GridFunction(grid, np.stack(parts, axis=-1))


def divergence(v: GridFunction) -> GridFunction:
    """Adjoint-consistent divergence of a vector field (same stencils as gradient)."""
    grid = v.grid
    if v.component_shape != (grid.d,):
        raise ValueError("divergence expects a vector field")
    out = np.zeros(grid.node_shape)
    for axis in range(grid.d):
        out += _axis_derivative(grid, v.values[..., axis], axis)
    return GridFunction(grid, out)


def mean(f: GridFunction):
    """Arithmetic node average per component (uniform quadrature on the torus)."""
    axes = tuple(range(f.grid.d))
    return f.values.mean(axis=axes)


def l2_norm(f: GridFunction, mask: np.ndarray | None = None) -> float:
    """L2 norm with uniform quadrature weight (cell volume per node)."""
    mags = f.magnitude()
    if mask is not None:
        mags = mags[mask]
    return float(np.sqrt(f.grid.cell_volume() * np.sum(mags**2)))


def _magnitude(values: np.ndarray, d: int) -> np.ndarray:
    if values.ndim == d:
        return np.abs(values)
    return np.sqrt(np.sum(values**2, axis=tuple(range(d, values.ndim))))


def _ball_window(grid: Grid, center, r: float):
    """Node slices covering B(center, r), and x - center on them.

    Each axis keeps the nodes within r of the center coordinate, widened
    by one node per side so rounding never drops a node, and clipped to
    the grid.  The offsets are built from axis_coords exactly as nodes()
    builds its coordinates, so a ball mask taken on them equals the same
    mask taken on the whole grid, restricted to the window.
    """
    center = np.asarray(center, dtype=float)
    window = []
    for axis in range(grid.d):
        h, n = grid.spacing[axis], grid.node_shape[axis]
        start = np.floor((center[axis] - r - grid.lo[axis]) / h) - 1
        stop = np.ceil((center[axis] + r - grid.lo[axis]) / h) + 2
        window.append(slice(int(np.clip(start, 0, n)), int(np.clip(stop, 0, n))))
    window = tuple(window)
    axes = [grid.axis_coords(axis)[window[axis]] for axis in range(grid.d)]
    delta = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1) - center
    return window, delta


def ball_average(f: GridFunction, center, r: float, p: float = 2.0) -> float:
    """Node p-mean of |f| over the ball B(center, r) intersected with the grid.

    Returns (sum |f|^p / count)^(1/p); fails if fewer than 8 nodes fall inside.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    window, delta = _ball_window(f.grid, center, r)
    inside = np.sum(delta**2, axis=-1) <= r * r
    count = int(inside.sum())
    if count < 8:
        raise ResolutionError(
            f"ball of radius {r} holds {count} nodes (< 8); refine below h={max(f.grid.spacing)}"
        )
    mags = _magnitude(f.values[window], f.grid.d)[inside]
    return float(np.mean(mags**p) ** (1.0 / p))


# ---------------------------------------------------------------------------
# flux-form stencils


def _harmonic_faces(a: np.ndarray, axis: int, periodic: bool) -> np.ndarray:
    """Harmonic mean of nodal values across each axis face."""
    if periodic:
        b = np.roll(a, -1, axis=axis)
        return 2.0 * a * b / (a + b)
    lo = [slice(None)] * a.ndim
    hi = [slice(None)] * a.ndim
    lo[axis] = slice(None, -1)
    hi[axis] = slice(1, None)
    x, y = a[tuple(lo)], a[tuple(hi)]
    return 2.0 * x * y / (x + y)


def _check_spd(a) -> None:
    vals = a.values
    d = a.grid.d
    if vals.shape[vals.ndim - d - 2:] != a.grid.node_shape + (d, d):
        raise ValueError("coefficient must be a matrix GridFunction")
    if not np.isfinite(vals).all():
        raise ValueError("coefficient is not finite at every node")
    if d == 2 and np.max(np.abs(vals[..., 0, 1] - vals[..., 1, 0])) > 1e-12 * np.max(np.abs(vals)):
        raise ValueError("coefficient matrix must be symmetric")
    if d == 1:
        lam_min = vals[..., 0, 0].min()
    else:
        tr = vals[..., 0, 0] + vals[..., 1, 1]
        det = vals[..., 0, 0] * vals[..., 1, 1] - vals[..., 0, 1] * vals[..., 1, 0]
        disc = np.sqrt(np.maximum((tr / 2.0) ** 2 - det, 0.0))
        lam_min = (tr / 2.0 - disc).min()
    if not lam_min > 0:
        raise ValueError(f"coefficient not positive definite (min eigenvalue {lam_min:g})")


class FluxStencil:
    """Matrix-free application of the flux-form operator -div(a grad u).

    ``a`` is a matrix GridFunction, or a stack of coefficients on one grid:
    any object with ``grid`` and ``values`` whose values carry a leading
    sample axis before the nodes.  Every method acts on the trailing grid
    axes, so a stacked stencil applies each sample's operator to the
    matching slice of a stacked field.
    """

    def __init__(self, a):
        grid = a.grid
        _check_spd(a)
        self.grid = grid
        self.d = grid.d
        vals = a.values
        self.faces = [
            _harmonic_faces(vals[..., k, k], k - grid.d, grid.periodic)
            for k in range(grid.d)
        ]
        if grid.d == 2:
            off = vals[..., 0, 1]
            self.mixed = off if np.any(off) else None
        else:
            self.mixed = None

    def apply(self, u: np.ndarray) -> np.ndarray:
        g = self.grid
        h = g.spacing
        if g.periodic:
            if g.d == 1:
                return kernels.matvec_periodic_1d(self.faces[0], u, h[0])
            return kernels.matvec_periodic_2d(self.faces[0], self.faces[1], self.mixed, u, h[0], h[1])
        if g.d == 1:
            return kernels.matvec_box_1d(self.faces[0], u, h[0])
        return kernels.matvec_box_2d(self.faces[0], self.faces[1], self.mixed, u, h[0], h[1])

    def diagonal(self) -> np.ndarray:
        """Diagonal of the periodic operator (mixed terms contribute nothing)."""
        g = self.grid
        if not g.periodic:
            raise ValueError("the Jacobi diagonal is periodic-only; boxes use "
                             "line_inverse")
        h = g.spacing
        diag = 0.0
        for axis in range(g.d):
            f = self.faces[axis]
            diag = diag + (f + np.roll(f, 1, axis=axis - g.d)) / h[axis] ** 2
        return diag

    def affine_rhs(self, j: int) -> np.ndarray:
        """Right-hand side div(a e_j) of the corrector problem, stencil-consistent."""
        g = self.grid
        if not g.periodic:
            raise ValueError("corrector right-hand sides are periodic-only")
        h = g.spacing
        fj = self.faces[j]
        rhs = (fj - np.roll(fj, 1, axis=j - g.d)) / h[j]
        if self.mixed is not None:
            k = 1 - j
            rhs += (np.roll(self.mixed, -1, axis=k - g.d)
                    - np.roll(self.mixed, 1, axis=k - g.d)) / (2.0 * h[k])
        return rhs

    def flux(self, u: np.ndarray, affine_axis: int | None = None) -> list[np.ndarray]:
        """Nodal flux components of a( grad u + e_j ), faces averaged back to nodes.

        Component i is the average of the two adjacent axis-i face fluxes plus the
        centered mixed contribution, so its node mean equals the face-mean exactly.
        """
        g = self.grid
        if not g.periodic:
            raise ValueError("nodal flux assembly is periodic-only")
        h = g.spacing
        out = []
        for i in range(g.d):
            du = (np.roll(u, -1, axis=i - g.d) - u) / h[i]
            if affine_axis is not None and affine_axis == i:
                du = du + 1.0
            face_flux = self.faces[i] * du
            comp = 0.5 * (face_flux + np.roll(face_flux, 1, axis=i - g.d))
            if self.mixed is not None:
                l = 1 - i
                dl = (np.roll(u, -1, axis=l - g.d) - np.roll(u, 1, axis=l - g.d)) / (2.0 * h[l])
                if affine_axis is not None and affine_axis == l:
                    dl = dl + 1.0
                comp = comp + self.mixed * dl
            out.append(comp)
        return out

    def mean_flux(self, u: np.ndarray, affine_axis: int) -> np.ndarray:
        """Column of the effective tensor: mean flux of y_j + u with j = affine_axis.

        The column index is last: shape (d,), or (samples, d) for a stack.
        """
        nodes = tuple(range(-self.d, 0))
        return np.stack([c.mean(axis=nodes) for c in self.flux(u, affine_axis)], axis=-1)


# ---------------------------------------------------------------------------
# preconditioned conjugate gradient


def pcg(apply_op, b, precondition, tol=1e-10, maxiter=100_000, project=None,
        stacked=False):
    """Matrix-free preconditioned conjugate gradient.

    ``precondition(r)`` returns the preconditioned residual as a new array
    and must be symmetric positive definite.  Periodic cells pass Jacobi,
    ``r / stencil.diagonal()``; 2D boxes pass ``line_inverse(stencil)``.
    ``project`` removes a known null-space component (used to pin the mean of
    periodic solutions); it is applied to the initial data and every residual.

    With ``stacked`` the leading axis of ``b`` indexes independent systems
    that ``apply_op``, ``precondition`` and ``project`` treat sample by
    sample.  Each system keeps its own inner products, step lengths,
    iteration count and residual history, and stops updating once it
    converges; a single system runs the same loop as a stack of one.

    Returns (x, info).  info["iterations"] sums the iterations over the
    systems and info["residuals"] is the largest relative residual after
    each iteration, so its last entry is the worst final residual;
    "sample_iterations" and "sample_residuals" hold them per system.
    Raises SolverFailure on stagnation or a non-positive curvature
    direction, carrying the residual history of the offending system.
    """
    b = b.copy()
    if project is not None:
        project(b)
    lead = b.shape[:1] if stacked else ()
    column = lead + (1,) * (b.ndim - len(lead))

    def dot(u, v):
        flat = lead + (-1,)
        return np.einsum("...i,...i->...", u.reshape(flat), v.reshape(flat)).reshape(column)

    norm_b = np.sqrt(dot(b, b))
    x = np.zeros_like(b)
    active = norm_b > 0.0
    counts = np.zeros(column, dtype=int)
    rel = np.zeros(column)
    history = []  # relative residual of every system after each iteration

    def info():
        steps = counts.reshape(-1)
        table = np.reshape(history, (len(history), steps.size))
        per_sample = [table[:n, s].tolist() for s, n in enumerate(steps)]
        return {"iterations": int(steps.sum()),
                "residuals": table.max(axis=1).tolist(), "tol": tol,
                "sample_iterations": steps.tolist(),
                "sample_residuals": per_sample}

    def failure(message, which):
        # report the history of the worst system among the offending ones
        s = int(np.argmax(np.where(which, rel, -np.inf)))
        return SolverFailure(message, residuals=info()["sample_residuals"][s])

    if not active.any():
        return x, info()
    r = b.copy()
    z = precondition(r)
    if project is not None:
        project(z)
    p = z.copy()
    rz = dot(r, z)
    for _ in range(int(maxiter)):
        ap = apply_op(p)
        pap = dot(p, ap)
        bent = active & (pap <= 0.0)
        if bent.any():
            worst = float(pap[bent].min())
            raise failure(f"operator not positive definite along search direction "
                          f"(p.Ap={worst:g})", bent)
        alpha = np.where(active, rz / np.where(active, pap, 1.0), 0.0)
        x += alpha * p
        r -= alpha * ap
        if project is not None:
            project(r)
        res = np.sqrt(dot(r, r))
        rel = np.where(active, res / np.where(active, norm_b, 1.0), rel)
        counts += active
        history.append(rel)
        active = active & (res > tol * norm_b)
        if not active.any():
            return x, info()
        z = precondition(r)
        if project is not None:
            project(z)
        rz_new = dot(r, z)
        beta = np.where(active, rz_new / np.where(active, rz, 1.0), 0.0)
        p = z + beta * p
        rz = np.where(active, rz_new, rz)
    worst = float(rel[active].max())
    raise failure(f"PCG stagnated after {maxiter} iterations (relative residual "
                  f"{worst:.3e})", active)


def _dst1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I along the last axis, from the FFT of the odd extension.

    Entry k is sum_j x_j sin(pi j k / (m + 1)) for j, k = 1..m; applying it
    twice multiplies by (m + 1) / 2.
    """
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    ext[..., 1:m + 1] = x
    ext[..., m + 2:] = -x[..., ::-1]
    return -0.5 * np.fft.rfft(ext, axis=-1)[..., 1:m + 1].imag


def line_inverse(stencil: FluxStencil):
    """Preconditioner for 2D box solves: the exact inverse of the interior
    Dirichlet operator whose faces are averaged along x2.

    Each x1-face row is averaged over the interior columns and each x2-face
    row over its columns.  A DST-I along x2 diagonalizes the averaged
    operator, with eigenvalues (2 - 2 cos(pi k / n2)) / h2^2, and leaves one
    symmetric, diagonally dominant tridiagonal system along x1 per mode k
    (Buzbee, Golub & Nielson 1970; Concus & Golub 1973).  Those are factored
    once without pivoting: only the elimination multipliers and reciprocal
    pivots live on.  The preconditioner zeroes the boundary ring and ignores
    mixed terms, so it inverts the box operator exactly when no face varies
    along x2: a constant diagonal tensor, or a diagonal field of x1 alone.
    """
    g = stencil.grid
    if g.periodic or g.d != 2:
        raise ValueError("line_inverse expects a 2D box grid")
    (n1, n2), (h1, h2) = g.shape, g.spacing
    ax = stencil.faces[0][:, 1:-1].mean(axis=1) / h1 ** 2
    ay = stencil.faces[1][1:-1].mean(axis=1) / h2 ** 2
    wave = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n2) / n2)
    pivot = (ax[:-1] + ax[1:])[:, None] + np.outer(ay, wave)
    mult = np.zeros_like(pivot)
    for i in range(1, n1 - 1):
        mult[i] = -ax[i] / pivot[i - 1]
        pivot[i] += mult[i] * ax[i]
    # the forward and inverse transforms are the same DST-I up to 2 / n2
    rpivot = np.divide(2.0 / n2, pivot, out=pivot)

    def precondition(r: np.ndarray) -> np.ndarray:
        z = _dst1(r[1:-1, 1:-1])
        for i in range(1, n1 - 1):
            z[i] -= mult[i] * z[i - 1]
        z[-1] *= rpivot[-1]
        for i in range(n1 - 3, -1, -1):
            z[i] = z[i] * rpivot[i] - mult[i + 1] * z[i + 1]
        # the zero ring is laid on after the transform, which peaks in memory
        return np.pad(_dst1(z), 1)

    return precondition


def _project_mean(values: np.ndarray):
    values -= values.mean()


def solve_periodic_elliptic(a: GridFunction, rhs: GridFunction,
                            tol: float = 1e-10) -> GridFunction:
    """Solve -div(a grad u) = rhs on the torus with mean(u) = 0."""
    grid = a.grid
    if not grid.periodic:
        raise ValueError("solve_periodic_elliptic expects a periodic grid")
    if rhs.grid != grid or not rhs.is_scalar:
        raise ValueError("rhs must be a scalar field on the same grid")
    b = rhs.values.copy()
    rms = np.sqrt(np.mean(b**2))
    if abs(b.mean()) > max(tol, tol * rms):
        raise CompatibilityError(
            f"periodic rhs must have zero mean (got {b.mean():.3e})"
        )
    stencil = FluxStencil(a)
    diag = stencil.diagonal()
    u, info = pcg(stencil.apply, b, lambda r: r / diag, tol=tol, project=_project_mean)
    info["preconditioner"] = "jacobi"
    u -= u.mean()
    return GridFunction(grid, u, meta=info)


def solve_box_dirichlet(a: GridFunction, rhs: GridFunction, boundary_values,
                        tol: float = 1e-10) -> GridFunction:
    """Solve -div(a grad u) = rhs on a box with u = boundary_values on the faces.

    1D boxes are solved exactly in closed form (0 iterations, tolerance 0);
    2D boxes use PCG preconditioned by line_inverse.  ``meta`` names
    the method under "preconditioner".
    """
    grid = a.grid
    if grid.periodic:
        raise ValueError("solve_box_dirichlet expects a box grid")
    if rhs.grid != grid or not rhs.is_scalar:
        raise ValueError("rhs must be a scalar field on the same grid")
    if isinstance(boundary_values, GridFunction):
        bv = boundary_values.values
    else:
        bv = np.asarray(boundary_values, dtype=float)
        bv = np.broadcast_to(bv, grid.node_shape)
    mask = grid.boundary_mask()
    lift = np.zeros(grid.node_shape)
    lift[mask] = bv[mask]

    stencil = FluxStencil(a)
    interior = ~mask
    b = np.zeros(grid.node_shape)
    b[interior] = rhs.values[interior]
    b -= stencil.apply(lift)
    b[mask] = 0.0
    if not np.isfinite(b).all():
        raise ValueError("right-hand side or boundary values are not finite at every node")

    if grid.d == 1:
        v, info = _tridiagonal_box_solve(stencil.faces[0], b, grid.spacing[0])
    else:
        def apply_interior(u):
            out = stencil.apply(u)
            out[mask] = 0.0
            return out

        v, info = pcg(apply_interior, b, line_inverse(stencil), tol=tol)
        info["preconditioner"] = "line-dst1"
    u = v + lift
    u[mask] = bv[mask]
    return GridFunction(grid, u, meta=info)


def _tridiagonal_box_solve(faces: np.ndarray, b: np.ndarray, h: float):
    """Exact O(n) solve of the 1D interior system with v = 0 at both ends.

    The face flux F = faces diff(v) / h drops by h b_i across interior node
    i, so F = c - h cumsum(b) and v = cumsum(h F / faces), with c chosen so
    that v vanishes at the right end.  perfbench/tracer.py binds this name.
    """
    flux = np.concatenate(([0.0], -h * np.cumsum(b[1:-1])))
    step = h / faces
    # plain numpy reductions, not BLAS: the digits must not depend on its pool
    flux -= np.sum(step * flux) / np.sum(step)
    v = np.zeros_like(b)
    v[1:-1] = np.cumsum(step[:-1] * flux[:-1])
    # the recorded residual comes from one application of the interior operator
    resid = -np.diff(faces * np.diff(v) / h) / h - b[1:-1]
    norm_b = float(np.sqrt(np.sum(b[1:-1] ** 2))) or 1.0
    info = {"iterations": 0, "residuals": [float(np.sqrt(np.sum(resid ** 2))) / norm_b],
            "tol": 0.0, "preconditioner": "closed-form"}
    return v, info


# ---------------------------------------------------------------------------
# binary serialization


def atomic_bytes(path, payload: bytes) -> None:
    """Write payload to a temporary sibling, then rename it over path."""
    # os.path, not pathlib: pathlib interns every file name it parses
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".tmp-{os.getpid()}-{threading.get_ident()}-{name}")
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def save_gridfunction(f: GridFunction, path):
    """Write the binary node-field format, version 2, atomically.

    Layout: 16-byte header (magic, version, d, component code, topology),
    node counts per axis (u32), the lo and hi corners (f64), f64 values.
    """
    g = f.grid
    header = MAGIC + struct.pack("<HBBB7x", FORMAT_VERSION, g.d,
                                 len(f.component_shape), 0 if g.periodic else 1)
    box = struct.pack(f"<{g.d}I{2 * g.d}d", *g.node_shape, *g.lo, *g.hi)
    payload = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    atomic_bytes(path, header + box + payload)


def load_gridfunction(path, grid: Grid | None = None) -> GridFunction:
    """Read the binary node-field format; the stored grid must match a supplied one."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a grid-function file")
    version, d, code, topo = struct.unpack_from("<HBBB7x", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if d not in (1, 2) or code not in _SHAPE_CODES:
        raise ValueError(f"{path}: corrupt header")
    offset = 16 + 20 * d
    if len(raw) < offset:
        raise ValueError(f"{path}: truncated header")
    counts = struct.unpack_from(f"<{d}I", raw, 16)
    corners = struct.unpack_from(f"<{2 * d}d", raw, 16 + 4 * d)
    comp = (d,) * code
    expected = int(np.prod(counts)) * int(np.prod(comp, dtype=int))
    data = np.frombuffer(raw, dtype="<f8", offset=offset)
    if data.size != expected:
        raise ValueError(f"{path}: payload size {data.size} != expected {expected}")
    stored = Grid(shape=counts if topo == 0 else tuple(c - 1 for c in counts),
                  periodic=topo == 0, lo=corners[:d], hi=corners[d:])
    if grid is None:
        grid = stored
    elif grid != stored:
        raise ValueError(f"{path}: stored grid {stored} does not match the supplied grid")
    return GridFunction(grid, data.reshape(counts + comp).copy())
