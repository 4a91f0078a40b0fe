"""Hot stencil kernels for the flux-form operator on uniform grids.

The operator is the flux form of ``-div(a grad u)`` on a uniform grid:
face-harmonic averages of the diagonal coefficient entries, centered
differences for the mixed (off-diagonal) terms.  One numpy kernel per
topology and dimension.  The periodic kernels act on the trailing grid
axes, so coefficients and fields may carry a leading sample axis: a stack
of independent cells is one call.  They shift arrays by slicing and
concatenating rather than with np.roll, which costs about twice as much
per call on the small stacked cells of a cascade slab.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# periodic topology


def _roll(u, shift, axis):
    """np.roll(u, shift, axis) for a negative axis, as one concatenate of two
    slices: the same bytes without np.roll's per-call set-up."""
    cut = -shift % u.shape[axis]
    tail = (slice(None),) * (-axis - 1)
    return np.concatenate((u[(..., slice(cut, None)) + tail],
                           u[(..., slice(None, cut)) + tail]), axis=axis)


def matvec_periodic_1d(fa, u, h):
    # fa[i] sits on the face between nodes i and i+1 (mod N)
    flux = fa * (_roll(u, -1, -1) - u) / h
    return -(flux - _roll(flux, 1, -1)) / h


def matvec_periodic_2d(fx, fy, axy, u, h1, h2):
    u_xp, u_yp = _roll(u, -1, -2), _roll(u, -1, -1)
    flux_x = fx * (u_xp - u) / h1
    flux_y = fy * (u_yp - u) / h2
    out = -(flux_x - _roll(flux_x, 1, -2)) / h1
    out -= (flux_y - _roll(flux_y, 1, -1)) / h2
    if axy is not None and axy.size:
        mx = axy * (u_yp - _roll(u, 1, -1)) / (2.0 * h2)
        my = axy * (u_xp - _roll(u, 1, -2)) / (2.0 * h1)
        out -= (_roll(mx, -1, -2) - _roll(mx, 1, -2)) / (2.0 * h1)
        out -= (_roll(my, -1, -1) - _roll(my, 1, -1)) / (2.0 * h2)
    return out


# ---------------------------------------------------------------------------
# box topology (Dirichlet): output is zero on the boundary ring; neighbor
# reads include boundary values so the caller can lift inhomogeneous data.

# nodes per block of interior rows in matvec_box_2d: its flux scratch stays
# near 128 KB at any grid size, about a quarter of a node array at 257^2
_BLOCK_NODES = 1 << 14


def matvec_box_1d(fa, u, h):
    out = np.zeros_like(u)
    flux = fa * (u[1:] - u[:-1]) / h
    out[1:-1] = -(flux[1:] - flux[:-1]) / h
    return out


def _box_flux(u, coef, axis, width, h):
    """coef * (u[i + width] - u[i]) / h along axis of a 2D field, made in
    place in one new array."""
    hi, lo = (slice(width, None), slice(None)), (slice(None, -width), slice(None))
    if axis:
        hi, lo = hi[::-1], lo[::-1]
    flux = np.subtract(u[hi], u[lo])
    flux *= coef
    flux /= h
    return flux


def _subtract_difference(interior, step, flux, hi, lo, h):
    """interior -= (flux[hi] - flux[lo]) / h, through the buffer step."""
    interior -= np.divide(np.subtract(flux[hi], flux[lo], out=step), h, out=step)


def matvec_box_2d(fx, fy, axy, u, h1, h2):
    # the interior is summed in place in out, one block of rows at a time,
    # term by term in the order of -(dx flux_x) / h1 - (dy flux_y) / h2 -
    # (mixed terms); each flux covers the block and the rows next to it and
    # is dropped before the next is made, and products commute exactly, so
    # every node's bits are those of the plain expression
    n1, n2 = u.shape
    out = np.zeros_like(u)
    block = max(1, _BLOCK_NODES // n2)
    step = np.empty((min(block, n1 - 2), n2 - 2))
    for lo in range(1, n1 - 1, block):
        hi = min(lo + block, n1 - 1)
        interior, buf = out[lo:hi, 1:-1], step[:hi - lo]
        near = u[lo - 1:hi + 1]  # the block's rows and one more on each side
        flux = _box_flux(near[:, 1:-1], fx[lo - 1:hi, 1:-1], 0, 1, h1)
        np.negative(np.subtract(flux[1:], flux[:-1], out=interior), out=interior)
        interior /= h1
        _subtract_difference(interior, buf, _box_flux(u[lo:hi], fy[lo:hi], 1, 1, h2),
                             np.s_[:, 1:], np.s_[:, :-1], h2)
        if axy is not None and axy.size:
            _subtract_difference(interior, buf,
                                 _box_flux(near, axy[lo - 1:hi + 1, 1:-1], 1, 2, 2.0 * h2),
                                 np.s_[2:, :], np.s_[:-2, :], 2.0 * h1)
            _subtract_difference(interior, buf, _box_flux(near, axy[lo:hi], 0, 2, 2.0 * h1),
                                 np.s_[:, 2:], np.s_[:, :-2], 2.0 * h2)
    return out
