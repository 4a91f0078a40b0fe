"""Reiterated descent across well-separated scales.

Each descent step freezes the slower arguments of the coefficient on a
sample grid, solves the periodic cell problem in the fastest remaining
slot at every sample, and tabulates the resulting effective tensors.
Multilinear interpolation of that table is itself a coefficient field
with one slot fewer, so the recursion repeats until nothing oscillates;
the scale ladder never enters the solves, only the final bookkeeping.

Sample coordinates follow the slot-major layout of the coefficient
fields: d slow dimensions first (each collapsed to a point when the field
ignores that coordinate of x), then d dimensions per remaining fast slot.

A level splits its samples, in np.ndindex order, into fixed slabs of at
most _SLAB_NODES cell nodes, which bounds their memory.  Each slab is one
cache entry: it is looked up whole, and on a miss it is tabulated by one
coefficient call, solved by one stacked cell solve (a leading sample
axis), reduced to tensors in one pass, checked and stored whole.

A level collapses instead when the field declares a split
A = scale(x, y_1..y_{n-1}) * fast(y_n) and has more than one sample: the
cell equation does not change when A is multiplied by a positive number
that is constant over the cell, so every sample has fast's corrector and
the tensor scale * fast_hat.  Such a level solves one cell, the fast
field's own cache entry (keyed by its digest, serving every sample of the
level), and scales its tensor and spectrum by the scale at each sample
row; the spectrum and symmetry checks still run on every scaled sample.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple

import numpy as np

from .cell import (CELL_METHOD, DEFAULT_RESOLUTION, CellStack, EffectiveTensor,
                   check_tensors, effective_tensor, solve_corrector)
from .coeff import CoefficientField, ScaleLadder, hex_digest, spectrum
from .grid import Grid

# cell nodes per slab: larger slabs buy little speed and cost peak memory.
# The cache files its entries under this bound, so changing it makes
# every cached level miss once, and clean no longer counts the old ones.
_SLAB_NODES = 4096


# ---------------------------------------------------------------------------
# tabulated tensors on a product of sample axes


class Axis(NamedTuple):
    """One sample dimension: uniform nodes, wrapped when periodic."""

    coords: np.ndarray
    periodic: bool

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def spacing(self) -> float:
        if self.n == 1:
            return 1.0
        if self.periodic:
            return float(self.coords[1] - self.coords[0])
        return float((self.coords[-1] - self.coords[0]) / (self.n - 1))


def point_axis() -> Axis:
    return Axis(np.zeros(1), periodic=False)


def periodic_axis(n: int) -> Axis:
    return Axis(np.arange(n) / n, periodic=True)


def box_axis(n: int, lo: float = 0.0, hi: float = 1.0) -> Axis:
    return Axis(np.linspace(lo, hi, n + 1), periodic=False)


def _axis_locate(axis: Axis, q: np.ndarray):
    """Bracketing indices and weight for linear interpolation along one axis."""
    n = axis.n
    h = axis.spacing
    if axis.periodic:
        t = (q - axis.coords[0]) / h
        base = np.floor(t)
        w = t - base
        i0 = base.astype(np.int64) % n
        i1 = (i0 + 1) % n
    else:
        t = np.clip((q - axis.coords[0]) / h, 0.0, n - 1.0)
        i0 = np.minimum(t.astype(np.int64), n - 2)
        w = t - i0
        i1 = i0 + 1
    return i0, i1, w


def multilinear(axes, values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Interpolate values tabulated on a product of axes at query rows.

    values has one leading dimension per axis plus arbitrary trailing
    shape; queries is (m, len(axes)).  Point axes (size 1) cost nothing.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    m = queries.shape[0]
    trail = values.shape[len(axes):]
    zeros = np.zeros(m, dtype=np.int64)
    located = []
    for a, axis in enumerate(axes):
        if axis.n == 1:
            located.append(None)
        else:
            located.append(_axis_locate(axis, queries[:, a]))
    active = [a for a, loc in enumerate(located) if loc is not None]
    out = np.zeros((m,) + trail)
    for corner in product((0, 1), repeat=len(active)):
        weight = np.ones(m)
        idx = [zeros] * len(axes)
        for bit, a in zip(corner, active):
            i0, i1, w = located[a]
            idx[a] = i1 if bit else i0
            weight = weight * (w if bit else 1.0 - w)
        out += weight.reshape((m,) + (1,) * len(trail)) * values[tuple(idx)]
    return out


class CorrectorTable(NamedTuple):
    """Finest-level correctors tabulated over the slower sample axes."""

    d: int
    level: int
    slower_axes: tuple
    cell_grid: Grid
    values: np.ndarray  # (*slower dims, *cell nodes, d)

    def sample(self, x: np.ndarray, ladder: ScaleLadder) -> np.ndarray:
        """chi_j(x, x/eps_1, ..., x/eps_level) for each row of x, shape (m, d)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        cell_axes = tuple(periodic_axis(n) for n in self.cell_grid.shape)
        parts = [x] + [x / ladder.scales[k] for k in range(self.level)]
        flat = np.concatenate(parts, axis=1)
        return multilinear(self.slower_axes + cell_axes, self.values, flat)


# ---------------------------------------------------------------------------
# descent


class CascadeLevel(NamedTuple):
    """Record of one descent step: solved slot, table, and solve statistics."""

    level: int
    axes: tuple  # sample axes over (x, y_1..y_{level-1})
    values: np.ndarray  # (*axis dims, d, d) effective tensors
    field: CoefficientField
    resolution: int
    samples: int  # table entries
    distinct_solves: int  # cell problems behind them: 1 when the level collapses
    cache_hits: int
    cache_misses: int
    iterations: int
    spectrum: tuple[float, float]
    method: str  # CELL_METHOD of the cell dimension
    max_residual: float | None  # over the cells solved here; None if all were cached


def _descended_digest(parent: str | None, level: int, resolution: int, tol: float,
                      dims: tuple, domain: tuple) -> str | None:
    if parent is None:
        return None
    text = f"{parent}|L{level}|res={resolution}|tol={tol:.17g}|dims={dims}"
    if tuple(domain) != (0.0, 1.0):
        # the x-table spans the domain; unit-domain keys predate the span
        text += "|x=%.17g,%.17g" % tuple(domain)
    return hex_digest(text, 16)


def _slower_axes(field: CoefficientField, level: int, x_resolution: int,
                 slot_resolution: int, domain: tuple) -> tuple:
    axes = [box_axis(x_resolution, *domain) if i in field.depends_on_x else point_axis()
            for i in range(field.d)]
    for _ in range(level - 1):
        for _ in range(field.d):
            axes.append(periodic_axis(slot_resolution))
    return tuple(axes)


def tabulate_cells(field: CoefficientField, frozen, grid: Grid) -> np.ndarray:
    """A(x, y_1, ..., y_{n-1}, y) at every node y of the cell grid, in one call.

    frozen has one row per sample: x and then every slower fast slot, d
    numbers each.  Returns (samples, *cell nodes, d, d).
    """
    d = field.d
    frozen = np.asarray(frozen, dtype=float)
    pts = grid.nodes().reshape(-1, d)
    lead = (len(frozen), len(pts))
    slower = [np.broadcast_to(frozen[:, None, k * d:(k + 1) * d], lead + (d,))
              for k in range(field.n_scales)]
    values = field(slower[0], slower[1:] + [np.broadcast_to(pts, lead + (d,))])
    return np.asarray(values, dtype=float).reshape((len(frozen),) + grid.node_shape + (d, d))


def _entry(field: CoefficientField, frozen, grid: Grid, tol: float, cache,
           mu: float | None, serves: int | None = None):
    """The cells of field at the frozen rows as one cache entry: replayed
    when cached, else tabulated, solved, checked against mu and stored.

    Returns (chi, tensors, spectra, iterations, max residual), the residual
    None when the entry came from the cache.
    """
    level = field.n_scales
    digest = field.digest() if cache is not None else None
    if digest is not None:
        entry = cache.lookup(digest, level, frozen, grid.shape, tol, grid.d, serves=serves)
        if entry is not None:
            chi, sidecar = entry
            return (chi, sidecar["tensor"], sidecar["spectrum"],
                    int(np.sum(sidecar["iterations"])), None)
    stack = CellStack(grid, tabulate_cells(field, frozen, grid), frozen, tol)
    chi, iters, residuals = solve_corrector(stack)
    tensors, spectra = effective_tensor(stack, chi, mu=mu)
    if digest is not None:
        cache.store(digest, level, stack, chi, iters, tensors, spectra)
    return chi, tensors, spectra, int(iters.sum()), float(residuals.max())


def descend(field: CoefficientField, *, resolution: int | None = None,
            tol: float = 1e-10, x_resolution: int | None = None,
            slot_resolution: int | None = None, cache=None,
            retain_correctors: bool = False, domain: tuple = (0.0, 1.0)):
    """Integrate out the fastest slot of the field.

    Returns (coarser field, CascadeLevel, CorrectorTable or None).  The
    coarser field interpolates effective tensors multilinearly between
    samples, which cover each x axis the field reads over domain (lo, hi);
    in d=1 the default sample density equals the cell resolution so
    downstream cell grids land exactly on table nodes.
    """
    level = field.n_scales
    if level < 1:
        raise ValueError("field has no fast slot left to integrate out")
    d = field.d
    resolution = resolution or DEFAULT_RESOLUTION[d]
    slot_resolution = slot_resolution or (resolution if d == 1 else 16)
    x_resolution = x_resolution or (256 if d == 1 else 32)

    axes = _slower_axes(field, level, x_resolution, slot_resolution, domain)
    dims = tuple(a.n for a in axes)
    cell_grid = Grid.torus(d, resolution)
    cell_shape = cell_grid.node_shape + (d,)

    samples = int(np.prod(dims))
    # flat tables: row s holds sample s, in np.ndindex order
    rows = np.stack(np.meshgrid(*(a.coords for a in axes), indexing="ij"),
                    axis=-1).reshape(samples, len(axes))
    if field.split is not None and samples > 1:
        # A = s * B with s constant over each cell: every sample has B's
        # corrector, and its tensor is s times B's
        scale, fast = field.split
        s = np.broadcast_to(np.asarray(
            scale(rows[:, :d], [rows[:, k * d:(k + 1) * d] for k in range(1, level)]),
            dtype=float), (samples,))
        positive = np.isfinite(s) & (s > 0)
        if not positive.all():
            bad = np.flatnonzero(~positive)[0]
            raise ValueError(f"split scale {s[bad]:g} at sample {rows[bad].tolist()} "
                             "is not a finite positive number")
        chi, tensor, fast_spectrum, iterations, max_residual = _entry(
            fast, np.zeros((1, d)), cell_grid, tol, cache, mu=None, serves=samples)
        values = s[:, None, None] * np.asarray(tensor)
        spectra = s[:, None] * np.asarray(fast_spectrum)
        check_tensors(values, spectra, field.mu)
        misses = 0 if max_residual is None else samples
        distinct = 1
        chi_table = np.broadcast_to(chi[0], dims + cell_shape) if retain_correctors else None
    else:
        values = np.empty((samples, d, d))
        spectra = np.empty((samples, 2))
        chi_table = np.empty((samples,) + cell_shape) if retain_correctors else None
        iterations = 0
        misses = 0
        max_residual = None
        per_slab = max(1, _SLAB_NODES // int(np.prod(cell_grid.node_shape)))
        for start in range(0, samples, per_slab):
            part = slice(start, start + per_slab)
            chi, values[part], spectra[part], iters, worst = _entry(
                field, rows[part], cell_grid, tol, cache, mu=field.mu)
            iterations += iters
            if worst is not None:
                misses += len(rows[part])
                max_residual = worst if max_residual is None else max(max_residual, worst)
            if retain_correctors:
                chi_table[part] = chi
        distinct = samples
    values = values.reshape(dims + (d, d))

    def evaluator(x, ys):
        lead = x.shape[:-1]
        parts = [x.reshape(-1, d)] + [ys[k].reshape(-1, d) for k in range(level - 1)]
        flat = np.concatenate(parts, axis=1)
        return multilinear(axes, values, flat).reshape(lead + (d, d))

    child = CoefficientField(
        d=d, n_scales=level - 1, evaluator=evaluator, mu=field.mu,
        depends_on_x=field.depends_on_x,
        digest_override=_descended_digest(field.digest(), level, resolution, tol, dims,
                                          domain))

    bounds = (float(spectra[:, 0].min()), float(spectra[:, 1].max()))
    record = CascadeLevel(level=level, axes=axes, values=values, field=child,
                          resolution=resolution, samples=samples,
                          distinct_solves=distinct,
                          cache_hits=samples - misses, cache_misses=misses,
                          iterations=iterations, spectrum=bounds,
                          method=CELL_METHOD[d], max_residual=max_residual)
    corrector_table = None
    if retain_correctors:
        corrector_table = CorrectorTable(
            d=d, level=level, slower_axes=axes, cell_grid=cell_grid,
            values=chi_table.reshape(dims + cell_shape))
    return child, record, corrector_table


class CascadeResult(NamedTuple):
    """Every descent level plus the fully homogenized coefficient."""

    ladder: ScaleLadder | None
    levels: tuple
    effective_field: CoefficientField
    effective: EffectiveTensor | None
    corrector_table: CorrectorTable | None

    @property
    def homogenized(self):
        """The limit coefficient for solve_homogenized: the constant tensor
        when there is one, else the slow field A_hat keeps."""
        return self.effective if self.effective is not None else self.effective_field

    def summary(self) -> dict:
        out = {
            "levels": [{
                "level": lv.level,
                "resolution": lv.resolution,
                "samples": lv.samples,
                "distinct_solves": lv.distinct_solves,
                "cache_hits": lv.cache_hits,
                "cache_misses": lv.cache_misses,
                "iterations": lv.iterations,
                "method": lv.method,
                "max_residual": lv.max_residual,
                "spectrum": [lv.spectrum[0], lv.spectrum[1]],
            } for lv in self.levels],
            "scales": list(self.ladder.scales) if self.ladder else None,
        }
        if self.effective is not None:
            out["effective_tensor"] = self.effective.tensor.tolist()
            out["effective_spectrum"] = list(self.effective.spectrum)
        return out


def homogenize_all(field: CoefficientField, ladder: ScaleLadder | None = None, *,
                   resolution: int | None = None, tol: float = 1e-10,
                   x_resolution: int | None = None, slot_resolution: int | None = None,
                   cache=None, retain_correctors: bool = False,
                   domain: tuple = (0.0, 1.0)) -> CascadeResult:
    """Run the full descent from the finest slot down to none; x-tables
    span domain (lo, hi) on every axis."""
    if ladder is not None and field.n_scales not in (0, ladder.n):
        raise ValueError(f"field has {field.n_scales} fast slots but the ladder has {ladder.n}")
    levels = []
    corrector_table = None
    current = field
    finest = field.n_scales
    while current.n_scales > 0:
        keep = retain_correctors and current.n_scales == finest
        current, record, table = descend(
            current, resolution=resolution, tol=tol, x_resolution=x_resolution,
            slot_resolution=slot_resolution, cache=cache,
            retain_correctors=keep, domain=domain)
        levels.append(record)
        if keep:
            corrector_table = table

    effective = None
    if levels and levels[-1].samples == 1:
        last = levels[-1]
        effective = EffectiveTensor(tensor=last.values.reshape(field.d, field.d),
                                    mu=field.mu, spectrum=last.spectrum)
    elif not levels and not field.depends_on_x:
        tensor = field(np.zeros((1, field.d)), [])[0]
        lo, hi = spectrum(tensor)
        effective = EffectiveTensor(tensor=tensor, mu=field.mu,
                                    spectrum=(float(lo), float(hi)))
    return CascadeResult(ladder=ladder, levels=tuple(levels), effective_field=current,
                         effective=effective, corrector_table=corrector_table)
