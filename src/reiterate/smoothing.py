"""Scale-matched smoothing of grid functions.

smooth() convolves a grid function with a tensor product of compactly
supported bump kernels of diameter eps, one pass per axis.  Weights are
nonnegative and sum to one, so the operator preserves constants and
contracts the periodic L2 norm; on a box the data continues across each
face by even reflection, which maps nodes to nodes and keeps the stencil
exact.  When eps falls below two grid cells the kernel has no interior
offsets and the operator degenerates to the identity.

The measurement helpers quantify the two facts probes rely on: products
oscillating at scale eps stay L2-bounded after smoothing with constants
independent of eps, and the commutator with multiplication by a slowly
varying factor shrinks linearly in eps.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridFunction, l2_norm


def bump(s: np.ndarray) -> np.ndarray:
    """exp(-1/(1-s^2)) inside |s| < 1, zero outside."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def smoothing_weights(eps: float, h: float) -> np.ndarray:
    """Normalized kernel weights at node offsets k*h, support |k*h| <= eps/2."""
    if eps <= 0:
        raise ValueError("smoothing width must be positive")
    m = int(np.floor(eps / (2 * h) * (1 - 1e-12)))
    offsets = np.arange(-m, m + 1)
    w = bump(2.0 * offsets * h / eps)
    return w / w.sum()


def _reflect_indices(shifted: np.ndarray, n_nodes: int) -> np.ndarray:
    period = 2 * (n_nodes - 1)
    j = np.abs(shifted) % period
    return np.where(j >= n_nodes, period - j, j)


def smooth(f: GridFunction, eps: float) -> GridFunction:
    """Convolve each axis with the width-eps kernel; reflect at box faces."""
    grid = f.grid
    values = f.values
    for axis in range(grid.d):
        w = smoothing_weights(eps, grid.spacing[axis])
        if w.size == 1:
            continue
        m = w.size // 2
        n = grid.node_shape[axis]
        base = np.arange(n)
        acc = np.zeros_like(values)
        for k in range(-m, m + 1):
            if grid.periodic:
                idx = (base - k) % n
            else:
                idx = _reflect_indices(base - k, n)
            acc += w[k + m] * np.take(values, idx, axis=axis)
        values = acc
    return GridFunction(grid, values)


# ---------------------------------------------------------------------------
# two-scale products


def l2_bound_ratios(grid: Grid, slow, fast, eps_values) -> list[float]:
    """||S_eps(slow * fast(./eps))|| / (||slow|| * cell L2 of fast) per eps.

    The cell L2 of fast is the rms over the d-dimensional torus with
    grid.shape[0] nodes per axis; it does not depend on eps.
    """
    x = grid.nodes()
    slow_vals = np.asarray(slow(x))
    cell = Grid.torus(grid.d, grid.shape[0])
    fast_l2 = float(np.sqrt(np.mean(np.asarray(fast(cell.nodes())) ** 2)))
    denom = l2_norm(GridFunction(grid, slow_vals)) * fast_l2
    ratios = []
    for eps in eps_values:
        f = GridFunction(grid, slow_vals * np.asarray(fast((x / eps) % 1.0)))
        ratios.append(float(l2_norm(smooth(f, eps)) / denom))
    return ratios


def commutator_ratios(grid: Grid, multiplier, fast, eps_values) -> list[float]:
    """||S_eps(m f) - m S_eps(f)|| / ||f|| per eps; decays like eps * Lip(m)."""
    x = grid.nodes()
    m_vals = np.asarray(multiplier(x))
    ratios = []
    for eps in eps_values:
        f = GridFunction(grid, np.asarray(fast((x / eps) % 1.0)))
        lhs = smooth(GridFunction(grid, m_vals * f.values), eps).values
        rhs = m_vals * smooth(f, eps).values
        ratios.append(float(l2_norm(GridFunction(grid, lhs - rhs)) / l2_norm(f)))
    return ratios
