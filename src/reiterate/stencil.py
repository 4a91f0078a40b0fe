"""Flux-form stencils, conjugate gradient and line preconditioners on node arrays.

The elliptic solves use the flux form with face-harmonic averaging of
diagonal coefficient entries (exact harmonic means for 1D laminates) and
a matrix-free preconditioned conjugate gradient.  Both topologies
precondition with the same idea: the exact inverse of the operator whose
faces are averaged along the axis where they vary less, which a
transform along that axis splits into one tridiagonal system per mode
along the other (Concus & Golub 1973), factored once:

* torus_line_inverse on periodic grids: an rfft and one cyclic
  tridiagonal solve per mode (Sherman-Morrison for the corners), mode 0
  in closed form.  It preconditions the stacked corrector solve of
  ``cell`` (cell.solve_corrector) and, applied once, inverts the
  constant-coefficient Laplacian of the flux potentials
  (cell.flux_correctors); in 1D it is the closed-form inverse itself.
* line_inverse on 2D boxes, in grid.solve_box_dirichlet: a DST-I and one
  tridiagonal sweep per mode.

A diagonal coefficient whose faces do not vary along one axis takes one
iteration; otherwise the count depends on the contrast and not on the
mesh.  The periodic stencils, the torus preconditioner and pcg accept a
leading sample axis, so a stack of cells is solved by one loop with a
per-sample convergence test; a single system is the same loop on a stack
of one.  The interior system of a 1D box is solved in closed form by
integrating the flux twice (_tridiagonal_box_solve), and so are the 1D
cell correctors (see ``cell``).

Everything here acts on node arrays and on objects with ``grid`` and
``values``; the module imports only numpy, ``kernels`` and ``errors``,
so ``grid`` and ``cell`` import it without a cycle.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .errors import SolverFailure

# odd-extension nodes per block of _dst1: the FFT scratch of a box
# preconditioner stays near 256 KB at any grid size, which also runs
# faster than one transform of every row at once
_DST_BLOCK_NODES = 1 << 14


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
    """ValueError unless every node's tensor is finite, symmetric and
    positive definite.  One tensor broadcast to every node is checked
    once; with no off-diagonal entry the smallest eigenvalue is the
    smallest diagonal entry."""
    vals = a.values
    d = a.grid.d
    if vals.shape[vals.ndim - d - 2:] != a.grid.node_shape + (d, d):
        raise ValueError("coefficient must be a matrix GridFunction")
    if not any(vals.strides[:-2]):
        vals = vals[(0,) * (vals.ndim - 2)]
    if not np.isfinite(vals).all():
        raise ValueError("coefficient is not finite at every node")
    if d == 1 or not (np.any(vals[..., 0, 1]) or np.any(vals[..., 1, 0])):
        lam_min = min(vals[..., k, k].min() for k in range(d))
    else:
        if np.max(np.abs(vals[..., 0, 1] - vals[..., 1, 0])) > 1e-12 * np.max(np.abs(vals)):
            raise ValueError("coefficient matrix must be symmetric")
        tr = vals[..., 0, 0] + vals[..., 1, 1]
        det = vals[..., 0, 0] * vals[..., 1, 1] - vals[..., 0, 1] * vals[..., 1, 0]
        # lambda_min = det / lambda_max, since tr/2 - disc would cancel;
        # disc becomes lambda_max in place, so no node array is added.  Where
        # some lambda_max <= 0 it is reported, an upper bound of lambda_min
        disc = np.sqrt(np.maximum((tr / 2.0) ** 2 - det, 0.0))
        disc += tr / 2.0
        lam_min = disc.min()
        if lam_min > 0:
            lam_min = (det / disc).min()
    if not lam_min > 0:
        raise ValueError(f"coefficient not positive definite (min eigenvalue {lam_min:g})")


class FluxStencil:
    """Matrix-free application of the flux-form operator -div(a grad u).

    ``a`` is a matrix GridFunction, or a stack of coefficients on one grid:
    any object with ``grid`` and ``values`` whose values carry a leading
    sample axis before the nodes.  Every method acts on the trailing grid
    axes, so a stacked stencil applies each sample's operator to the
    matching slice of a stacked field.

    The stencil keeps no reference to ``a``: ``mixed`` is a copy of the
    off-diagonal entries, so the tensor can be freed once the stencil is
    built.  One tensor broadcast to every node (as _check_spd reads it)
    keeps broadcast faces and a broadcast ``mixed``; each face is the
    harmonic mean of the entry with itself, 2 a a / (a + a), which is not
    always a, so they equal the faces of the materialized tensor bitwise.
    """

    def __init__(self, a):
        grid = a.grid
        _check_spd(a)
        self.grid = grid
        self.d = grid.d
        vals = a.values
        one = None if any(vals.strides[:-2]) else vals[(0,) * (vals.ndim - 2)]
        self.faces = []
        for k in range(grid.d):
            if one is None:
                face = _harmonic_faces(vals[..., k, k], k - grid.d, grid.periodic)
            else:
                shape = list(vals.shape[:-2])
                shape[k - grid.d] -= not grid.periodic
                c = one[k, k]
                face = np.broadcast_to(2.0 * c * c / (c + c), tuple(shape))
            self.faces.append(face)
        self.mixed = None
        if grid.d == 2 and np.any(vals[..., 0, 1]):
            self.mixed = vals[..., 0, 1] if one is not None else vals[..., 0, 1].copy()

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
        """Diagonal of the periodic operator (mixed terms contribute nothing):
        the Jacobi reference of the tests.  perfbench/tracer.py binds this name."""
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
    and must be symmetric positive definite.  Periodic grids pass
    ``torus_line_inverse(stencil)``; 2D boxes pass ``line_inverse(stencil)``.
    ``project`` removes a known null-space component (used to pin the mean of
    periodic solutions); it is applied to the initial data and every residual.

    ``b`` is copied once and never written; the copy becomes the residual.
    ``apply_op`` must return a new array, which pcg overwrites: it holds
    alpha A p and then alpha p while r and x are updated in place, and the
    previous z and A p are dropped before the next ones are made, so the
    loop holds three node arrays besides the one that ``apply_op`` or
    ``precondition`` returns.  On a 2D box neither keeps node-sized
    scratch: kernels.matvec_box_2d sums one block of rows at a time and
    line_inverse works in its output.

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
    r = b  # the copy made above
    p = precondition(r)
    if project is not None:
        project(p)
    rz = dot(r, p)
    for _ in range(int(maxiter)):
        ap = apply_op(p)
        pap = dot(p, ap)
        bent = active & (pap <= 0.0)
        if bent.any():
            worst = float(pap[bent].min())
            raise failure(f"operator not positive definite along search direction "
                          f"(p.Ap={worst:g})", bent)
        alpha = np.where(active, rz / np.where(active, pap, 1.0), 0.0)
        r -= np.multiply(alpha, ap, out=ap)
        x += np.multiply(alpha, p, out=ap)
        ap = None
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
        # z + beta p, summed in place: addition commutes exactly
        p *= beta
        p += z
        z = None
        rz = np.where(active, rz_new, rz)
    worst = float(rel[active].max())
    raise failure(f"PCG stagnated after {maxiter} iterations (relative residual "
                  f"{worst:.3e})", active)


# ---------------------------------------------------------------------------
# line preconditioners


def _factor_tridiagonal(diag: np.ndarray, off) -> tuple[np.ndarray, np.ndarray]:
    """LDL^T of symmetric tridiagonal systems along axis -2, without pivoting.

    ``diag`` holds the diagonals, shaped (..., m, k) with one system per
    trailing index, and is overwritten by the pivots; ``off`` holds the
    entries (i, i + 1), broadcastable to (..., m - 1, k).  Returns the
    elimination multipliers (row 0 unused) and the pivots.
    """
    mult = np.zeros_like(diag)
    for i in range(1, diag.shape[-2]):
        mult[..., i, :] = off[..., i - 1, :] / diag[..., i - 1, :]
        diag[..., i, :] -= mult[..., i, :] * off[..., i - 1, :]
    return mult, diag


def _sweep_tridiagonal(mult: np.ndarray, rpivot: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve the systems of _factor_tridiagonal for z (..., m, k) in place.

    ``rpivot`` holds the reciprocal pivots, optionally scaled, which scales
    the solution alike.
    """
    m = z.shape[-2]
    for i in range(1, m):
        z[..., i, :] -= mult[..., i, :] * z[..., i - 1, :]
    z[..., -1, :] *= rpivot[..., -1, :]
    for i in range(m - 2, -1, -1):
        z[..., i, :] = z[..., i, :] * rpivot[..., i, :] - mult[..., i + 1, :] * z[..., i + 1, :]
    return z


def _averages_along_x1(fx: np.ndarray, fy: np.ndarray):
    """Whether the 2D faces fx and fy vary less along x1 than along x2.

    The spread along an axis is the summed range of both face arrays over
    it; a tie keeps x2.  Trailing axes are (x1, x2), so a stack gets one
    answer per sample.
    """
    def spread(axis):
        return sum((f.max(axis=axis) - f.min(axis=axis)).sum(axis=-1) for f in (fx, fy))

    return spread(-2) < spread(-1)


def _dst1(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unnormalized DST-I along the rows of a 2D array, from the FFT of the
    odd extension, written to ``out`` (a new array by default).

    Entry k is sum_j x_j sin(pi j k / (m + 1)) for j, k = 1..m; applying it
    twice multiplies by (m + 1) / 2.  The rows are transformed in blocks of
    at most _DST_BLOCK_NODES extension nodes, which bounds the FFT scratch;
    each row's transform does not depend on the block it sits in.  ``out``
    may be ``x`` itself: each block is read into the extension before its
    rows are written.
    """
    rows, m = x.shape
    if out is None:
        out = np.empty(x.shape)
    block = max(1, _DST_BLOCK_NODES // (2 * m + 2))
    ext = np.zeros((min(block, rows), 2 * m + 2))
    for start in range(0, rows, block):
        part = x[start:start + block]
        k = part.shape[0]
        ext[:k, 1:m + 1] = part
        np.negative(part[:, ::-1], out=ext[:k, m + 2:])
        np.multiply(-0.5, np.fft.rfft(ext[:k], axis=-1)[:, 1:m + 1].imag,
                    out=out[start:start + k])
    return out


def _box_lines(fl, fa, shape, spacing):
    """The line_inverse of a box whose lines run along axis 0 and whose
    faces fl (normal to axis 0) and fa (normal to axis 1) are averaged
    along axis 1.  Its precondition(r, out) writes the interior of out, a
    node array of zeros (a new one by default), and returns it."""
    (n1, n2), (h1, h2) = shape, spacing
    ax = fl[:, 1:-1].mean(axis=1) / h1 ** 2
    ay = fa[1:-1].mean(axis=1) / h2 ** 2
    wave = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n2) / n2)
    mult, pivot = _factor_tridiagonal((ax[:-1] + ax[1:])[:, None] + np.outer(ay, wave),
                                      -ax[1:-1, None])
    # the forward and inverse transforms are the same DST-I up to 2 / n2
    rpivot = np.divide(2.0 / n2, pivot, out=pivot)

    def precondition(r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros((n1 + 1, n2 + 1))
        z = _dst1(r[1:-1, 1:-1], out=out[1:-1, 1:-1])
        _dst1(_sweep_tridiagonal(mult, rpivot, z), out=z)
        return out

    return precondition


def line_inverse(stencil: FluxStencil):
    """Preconditioner for 2D box solves: the exact inverse of the interior
    Dirichlet operator whose faces are averaged along one axis.

    The averaged axis is the one along which the faces vary less
    (_averages_along_x1), x2 on a tie.  Averaging along x2, each x1-face
    row is averaged over the interior columns and each x2-face row over
    its columns.  A DST-I along x2 diagonalizes the averaged operator,
    with eigenvalues (2 - 2 cos(pi k / n2)) / h2^2, and leaves one
    symmetric, diagonally dominant tridiagonal system along x1 per mode k
    (Buzbee, Golub & Nielson 1970; Concus & Golub 1973).  Those are
    factored once without pivoting: only the elimination multipliers and
    reciprocal pivots live on.  Averaging along x1 is the same on the
    transposed box.  The preconditioner zeroes the boundary ring and
    ignores mixed terms, so it inverts the box operator exactly when no
    face varies along the averaged axis: a constant diagonal tensor, or a
    diagonal field of one coordinate alone.

    Each application makes one node array, its output, and runs both
    transforms and the sweep in the output's interior; averaging along x1
    it writes the transposed interior of a C-contiguous output, so no
    transposed copy is made.
    """
    g = stencil.grid
    if g.periodic or g.d != 2:
        raise ValueError("line_inverse expects a 2D box grid")
    fx, fy = stencil.faces
    if not _averages_along_x1(fx[:, 1:-1], fy[1:-1]):
        return _box_lines(fx, fy, g.shape, g.spacing)
    solve = _box_lines(fy.T, fx.T, g.shape[::-1], g.spacing[::-1])

    def precondition(r: np.ndarray) -> np.ndarray:
        out = np.zeros(r.shape)
        solve(r.T, out=out.T)
        return out

    return precondition


def _periodic_running_sum(steps: np.ndarray) -> np.ndarray:
    """Zero-mean u along the last axis with u[i + 1] - u[i] = steps[i]."""
    u = np.zeros_like(steps)
    u[..., 1:] = np.cumsum(steps[..., :-1], axis=-1)
    u -= u.mean(axis=-1, keepdims=True)
    return u


def _periodic_line_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Closed-form zero-mean solution of the 1D periodic system

        -(a[i] (u[i+1] - u[i]) - a[i-1] (u[i] - u[i-1])) = b[i]

    along the last axis, indices mod m, for b of zero sum.  The flux
    a[i] (u[i+1] - u[i]) drops by b[i] across node i, so it is a constant
    minus the running sum of b; the constant makes the steps flux / a sum
    to zero around the circle.  This is the 1D cell corrector's closed
    form (cell.solve_corrector) for any right-hand side.
    """
    drop = np.cumsum(b, axis=-1)
    level = np.sum(drop / a, axis=-1, keepdims=True) / np.sum(1.0 / a, axis=-1, keepdims=True)
    return _periodic_running_sum((level - drop) / a)


def _torus_lines(fl, fa, spacing):
    """The torus_line_inverse of a stack (..., m, n) whose lines run along
    axis -2 and whose faces fl (normal to axis -2) and fa (normal to
    axis -1) are averaged along axis -1.

    An rfft along axis -1 leaves, for each mode k >= 1, one cyclic
    tridiagonal system along the line with diagonal a[i-1] + a[i] +
    c[i] (2 - 2 cos(2 pi k / n)) and the corner entries -a[m-1].  It is
    solved as the tridiagonal system B = T - w w^T / gamma, gamma = -T[0, 0]
    and w = (gamma, 0, ..., 0, -a[m-1]), with a Sherman-Morrison
    correction (Temperton 1975); B is positive definite, so no pivoting.
    Mode 0 is the 1D periodic operator of a, solved by _periodic_line_solve.
    """
    (hl, ha), n = spacing, fa.shape[-1]
    a = fl.mean(axis=-1) / hl ** 2
    c = fa.mean(axis=-1) / ha ** 2
    wave = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(1, n // 2 + 1) / n)
    diag = (a + np.roll(a, 1, axis=-1))[..., None] + c[..., None] * wave
    corner = -a[..., -1:, None]
    gamma = -diag[..., :1, :]
    diag[..., :1, :] -= gamma
    diag[..., -1:, :] -= corner ** 2 / gamma
    mult, pivot = _factor_tridiagonal(diag, -a[..., :-1, None])
    rpivot = np.divide(1.0, pivot, out=pivot)
    w = np.zeros_like(rpivot)
    w[..., :1, :], w[..., -1:, :] = gamma, corner
    q = _sweep_tridiagonal(mult, rpivot, w)
    ratio = corner / gamma
    q /= 1.0 + q[..., :1, :] + ratio * q[..., -1:, :]

    def solve(r: np.ndarray) -> np.ndarray:
        z = np.fft.rfft(r, axis=-1)
        z[..., 0] = _periodic_line_solve(a, z[..., 0].real)
        y = _sweep_tridiagonal(mult, rpivot, z[..., 1:])
        y -= (y[..., :1, :] + ratio * y[..., -1:, :]) * q
        return np.fft.irfft(z, n, axis=-1)

    return solve


def torus_line_inverse(stencil: FluxStencil):
    """Preconditioner for periodic solves: the exact inverse, on mean-free
    fields, of the periodic operator whose faces are averaged along one
    axis, with no mixed terms (_torus_lines).

    In 1D that is the operator itself, solved by _periodic_line_solve.  In
    2D each sample of a stack averages along the axis whose faces vary
    less (_averages_along_x1), x2 on a tie, so a diagonal field of one
    coordinate takes one iteration either way, and a sample's
    preconditioner does not depend on the stack it sits in.  Fields may
    carry the stencil's leading sample axis.
    """
    g = stencil.grid
    if not g.periodic:
        raise ValueError("torus_line_inverse expects a periodic grid")
    if g.d == 1:
        a = stencil.faces[0] / g.spacing[0] ** 2
        return lambda r: _periodic_line_solve(a, r)
    fx, fy = (f.reshape((-1,) + g.shape) for f in stencil.faces)
    flip = _averages_along_x1(fx, fy)

    def turned(a, swap):
        # a lines-along-x2 group runs on its transpose
        return np.ascontiguousarray(a.swapaxes(-1, -2)) if swap else a

    groups = []
    for rows, swap in ((~flip, False), (flip, True)):
        if rows.any():
            rows = slice(None) if rows.all() else rows
            fl, fa = (fy, fx) if swap else (fx, fy)
            solve = _torus_lines(turned(fl[rows], swap), turned(fa[rows], swap),
                                 g.spacing[::-1] if swap else g.spacing)
            groups.append((rows, swap, solve))

    def precondition(r: np.ndarray) -> np.ndarray:
        stack = r.reshape((-1,) + g.shape)
        out = np.empty_like(stack)
        for rows, swap, solve in groups:
            z = solve(turned(stack[rows], swap))
            out[rows] = z.swapaxes(-1, -2) if swap else z
        return out.reshape(r.shape)

    return precondition


# ---------------------------------------------------------------------------
# closed-form 1D box interior


def _tridiagonal_box_solve(faces: np.ndarray, b: np.ndarray, h: float):
    """Exact O(n) solve of the 1D interior system with v = 0 at both ends.

    The face flux F = faces diff(v) / h drops by h b_i across interior node
    i, so F = c - h cumsum(b) and v = cumsum(h F / faces), with c chosen so
    that v vanishes at the right end.  perfbench/tracer.py binds this name.

    Works in three scratch arrays, flux, step and v (returned): every
    product, quotient and running sum is formed in place in one of them
    from the operands of the plain formulas, in their order (x / -h is
    -x / h exactly), so the bits are theirs.  The residual and b are
    squared in place for their norms, so b is overwritten.
    """
    flux = np.zeros(faces.shape)
    np.cumsum(b[1:-1], out=flux[1:])
    flux[1:] *= -h
    step = h / faces
    v = np.zeros_like(b)
    # plain numpy reductions, not BLAS: the digits must not depend on its pool
    flux -= np.sum(np.multiply(step, flux, out=v[1:])) / np.sum(step)
    np.cumsum(np.multiply(step[:-1], flux[:-1], out=v[1:-1]), out=v[1:-1])
    v[-1] = 0.0
    # the recorded residual comes from one application of the interior
    # operator, -diff(faces diff(v) / h) / h - b, in flux and then step
    np.multiply(faces, np.subtract(v[1:], v[:-1], out=flux), out=flux)
    flux /= h
    resid = np.subtract(flux[1:], flux[:-1], out=step[:-1])
    resid /= -h
    resid -= b[1:-1]
    resid *= resid
    b *= b
    norm_r, norm_b = float(np.sqrt(np.sum(resid))), float(np.sqrt(np.sum(b[1:-1]))) or 1.0
    info = {"iterations": 0, "residuals": [norm_r / norm_b],
            "tol": 0.0, "preconditioner": "closed-form"}
    return v, info
