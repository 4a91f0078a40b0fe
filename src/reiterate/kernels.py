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


def matvec_box_1d(fa, u, h):
    out = np.zeros_like(u)
    flux = fa * (u[1:] - u[:-1]) / h
    out[1:-1] = -(flux[1:] - flux[:-1]) / h
    return out


def matvec_box_2d(fx, fy, axy, u, h1, h2):
    out = np.zeros_like(u)
    flux_x = fx * (u[1:, :] - u[:-1, :]) / h1
    flux_y = fy * (u[:, 1:] - u[:, :-1]) / h2
    interior = -(flux_x[1:, 1:-1] - flux_x[:-1, 1:-1]) / h1
    interior -= (flux_y[1:-1, 1:] - flux_y[1:-1, :-1]) / h2
    if axy is not None and axy.size:
        mx = axy[:, 1:-1] * (u[:, 2:] - u[:, :-2]) / (2.0 * h2)
        my = axy[1:-1, :] * (u[2:, :] - u[:-2, :]) / (2.0 * h1)
        interior -= (mx[2:, :] - mx[:-2, :]) / (2.0 * h1)
        interior -= (my[:, 2:] - my[:, :-2]) / (2.0 * h2)
    out[1:-1, 1:-1] = interior
    return out
