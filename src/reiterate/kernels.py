"""Hot stencil kernels for the flux-form operator on uniform grids.

The operator is the flux form of ``-div(a grad u)`` on a uniform grid:
face-harmonic averages of the diagonal coefficient entries, centered
differences for the mixed (off-diagonal) terms.  One numpy kernel per
topology and dimension.  The periodic kernels act on the trailing grid
axes, so coefficients and fields may carry a leading sample axis: a stack
of independent cells is one call.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# periodic topology


def matvec_periodic_1d(fa, u, h):
    # fa[i] sits on the face between nodes i and i+1 (mod N)
    flux = fa * (np.roll(u, -1, -1) - u) / h
    return -(flux - np.roll(flux, 1, -1)) / h


def matvec_periodic_2d(fx, fy, axy, u, h1, h2):
    flux_x = fx * (np.roll(u, -1, -2) - u) / h1
    flux_y = fy * (np.roll(u, -1, -1) - u) / h2
    out = -(flux_x - np.roll(flux_x, 1, -2)) / h1
    out -= (flux_y - np.roll(flux_y, 1, -1)) / h2
    if axy is not None and axy.size:
        mx = axy * (np.roll(u, -1, -1) - np.roll(u, 1, -1)) / (2.0 * h2)
        my = axy * (np.roll(u, -1, -2) - np.roll(u, 1, -2)) / (2.0 * h1)
        out -= (np.roll(mx, -1, -2) - np.roll(mx, 1, -2)) / (2.0 * h1)
        out -= (np.roll(my, -1, -1) - np.roll(my, 1, -1)) / (2.0 * h2)
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
