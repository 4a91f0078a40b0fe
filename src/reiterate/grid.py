"""Uniform grids, nodal fields, discrete calculus, box solves and the field format.

Grids are uniform tensor-product grids in d in {1, 2}, either periodic
(the unit torus per axis, node 0 identified with node N, no duplicate
layer stored) or boxes with both boundary layers stored.  ``shape``
counts cells per axis, so spacing * shape = extent on every axis for
both topologies.

Discrete calculus pairs centered-difference gradient and divergence so
that <div v, u> = -<v, grad u> holds to machine precision on periodic
grids.  solve_box_dirichlet solves a box's Dirichlet problem with the
flux-form operator and the solvers of ``stencil``: 1D boxes exactly in
closed form by integrating the flux twice, 2D boxes by pcg
preconditioned by line_inverse.  The module needs numpy alone.
"""

from __future__ import annotations

import os
import struct
import threading
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ResolutionError
from .stencil import FluxStencil, _tridiagonal_box_solve, line_inverse, pcg

MAGIC = b"RHGF"
FORMAT_VERSION = 2
_SHAPE_CODES = {0: (), 1: ("d",), 2: ("d", "d")}
# nodes per slab of GridFunction.from_callable: a 2D matrix field's
# evaluation holds about 20 slab arrays, near half a node array at 257^2
_TABULATE_BLOCK_NODES = 1 << 11


class Grid(NamedTuple("Grid", [("shape", tuple), ("periodic", bool),
                               ("lo", tuple), ("hi", tuple)])):
    """Uniform grid on a torus or a box.  ``shape`` counts cells per axis."""

    __slots__ = ()

    def __new__(cls, shape, periodic, lo, hi):
        if len(shape) not in (1, 2):
            raise ValueError("only d=1 and d=2 grids are supported")
        if len(lo) != len(shape) or len(hi) != len(shape):
            raise ValueError("corner tuples must match dimension")
        if any(n < 2 for n in shape):
            raise ValueError("need at least 2 cells per axis")
        if not np.isfinite((*lo, *hi)).all():
            raise ValueError("box corners must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ValueError("box corners out of order")
        return super().__new__(cls, shape, periodic, lo, hi)

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

    def boundary_nodes(self) -> np.ndarray:
        """The rows of nodes()[boundary_mask()], shape (ring, d), built
        without the whole node array: the points of a box's boundary data."""
        index = np.nonzero(self.boundary_mask())
        return np.stack([self.axis_coords(a)[i] for a, i in enumerate(index)], axis=-1)

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


class GridFunction(NamedTuple("GridFunction", [("grid", Grid), ("values", np.ndarray),
                                               ("meta", dict)])):
    """Nodal field on a grid: scalar, d-vector, or d x d matrix values.

    The values are stored as a read-only view, C-contiguous except that one
    value broadcast to every node stays a broadcast view.  A C-contiguous
    float array is not copied: the view aliases the caller's data, which
    stays writable for the caller.
    """

    __slots__ = ()

    def __new__(cls, grid, values, meta=None):
        values = np.asarray(values, dtype=float)
        if 0 not in values.strides:
            values = np.ascontiguousarray(values)
        values = values.view()
        node_shape = grid.node_shape
        comp = values.shape[len(node_shape):]
        if values.shape[: len(node_shape)] != node_shape:
            raise ValueError(f"values shape {values.shape} does not start with node shape {node_shape}")
        d = grid.d
        if comp not in ((), (d,), (d, d)):
            raise ValueError(f"component shape {comp} is not scalar, vector, or matrix for d={d}")
        values.setflags(write=False)
        return super().__new__(cls, grid, values, meta)

    @classmethod
    def from_callable(cls, grid: Grid, fn, meta=None) -> "GridFunction":
        """fn at the node points, or fn itself when it is a constant (a
        number or a tensor), which builds no node coordinates.

        A callable must be pointwise: row i of its value depends on row i
        of its (m, d) argument of points alone.  It is called on slabs of
        whole node rows along axis 0, at most _TABULATE_BLOCK_NODES nodes
        each (one row if a row is longer), whose points are the rows of
        nodes() built from axis_coords; each slab's values are written into
        one array made for the whole grid, so no node array of points is
        built and the callable's scratch is bounded by the slab.  A
        constant, or a 0-d value of the callable on the first slab, stays
        one value broadcast to every node.
        """
        if not callable(fn):
            vals = np.asarray(fn, dtype=float)
            return cls(grid, np.broadcast_to(vals, grid.node_shape + vals.shape), meta=meta)
        first, *rest = (grid.axis_coords(a) for a in range(grid.d))
        width = int(np.prod(grid.node_shape[1:]))
        block = max(1, _TABULATE_BLOCK_NODES // width)
        for start in range(0, len(first), block):
            pts = np.stack(np.meshgrid(first[start:start + block], *rest, indexing="ij"), -1)
            vals = np.asarray(fn(pts.reshape(-1, grid.d)), dtype=float)
            if not vals.ndim:
                return cls(grid, np.broadcast_to(vals, grid.node_shape), meta=meta)
            if not start:
                out = np.empty((len(first) * width,) + vals.shape[1:])
            out[start * width:start * width + len(vals)] = vals
        return cls(grid, out.reshape(grid.node_shape + out.shape[1:]), meta=meta)

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
# box solves


def solve_box_dirichlet(a: GridFunction, rhs: GridFunction, boundary_values,
                        tol: float = 1e-10) -> GridFunction:
    """Solve -div(a grad u) = rhs on a box with u = boundary_values on the faces.

    boundary_values is a number or the values at grid.boundary_nodes(),
    in boundary_mask order.

    1D boxes are solved exactly in closed form (0 iterations, tolerance 0);
    2D boxes use PCG preconditioned by line_inverse.  ``meta`` names
    the method under "preconditioner".  No input is written, and the
    coefficient is released once its stencil is built, so a caller that
    passes it without keeping a reference frees it before the solve.
    """
    grid = a.grid
    if grid.periodic:
        raise ValueError("solve_box_dirichlet expects a box grid")
    if rhs.grid != grid or not rhs.is_scalar:
        raise ValueError("rhs must be a scalar field on the same grid")
    mask = grid.boundary_mask()
    ring = np.count_nonzero(mask)
    edge = np.asarray(boundary_values, dtype=float)
    if edge.ndim and edge.shape != (ring,):
        raise ValueError(f"boundary values have shape {edge.shape}; give a number or "
                         f"the {ring} values at grid.boundary_nodes()")

    # the stencil holds the faces; the tensor is freed here unless the
    # caller keeps it.  The interior right-hand side goes to the solver
    # without a name here, so pcg's copy of it is the only one left
    stencil = FluxStencil(a)
    del a
    if grid.d == 1:
        v, info = _tridiagonal_box_solve(
            stencil.faces[0], _interior_rhs(stencil, rhs, mask, edge), grid.spacing[0])
    else:
        def apply_interior(u):
            out = stencil.apply(u)
            out[mask] = 0.0
            return out

        v, info = pcg(apply_interior, _interior_rhs(stencil, rhs, mask, edge),
                      line_inverse(stencil), tol=tol)
        info["preconditioner"] = "line-dst1"
    # v + lift: the lift's interior is +0.0, which turns an interior -0.0
    # into +0.0, and its boundary is edge
    v += 0.0
    v[mask] = edge
    return GridFunction(grid, v, meta=info)


def _interior_rhs(stencil: FluxStencil, rhs: GridFunction, mask: np.ndarray,
                  edge: np.ndarray) -> np.ndarray:
    """rhs - A lift inside the box and 0 on its faces, where the lift is 0
    inside and edge on the faces.

    In 2D the lift is made and freed on return.  In 1D A lift is -0.0 at
    every interior node but the two next to the ends, and rhs - (-0.0) is
    rhs + 0.0, so b starts as rhs + 0.0 and no node-sized lift is made:
    the kernel applies the lift on the box of the first two and the last
    two nodes, where a face between two zeros joins the halves and adds
    +0.0 as every face inside does.  On a 2-cell box the nodes next to
    the ends are one node, which sees both ends.
    """
    if stencil.d == 1:
        n = mask.shape[0] - 1
        keep = sorted({0, 1, n - 1, n})
        lift = np.zeros(len(keep))
        lift[[0, -1]] = edge
        faces = np.where(np.diff(keep) == 1, stencil.faces[0][keep[:-1]], 1.0)
        b = rhs.values + 0.0
        b[keep[1:-1]] = rhs.values[keep[1:-1]] - kernels.matvec_box_1d(
            faces, lift, stencil.grid.spacing[0])[1:-1]
    else:
        lift = np.zeros(mask.shape)
        lift[mask] = edge
        b = stencil.apply(lift)
        np.subtract(rhs.values, b, out=b, where=~mask)
    b[mask] = 0.0
    if not np.isfinite(b).all():
        raise ValueError("right-hand side or boundary values are not finite at every node")
    return b



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
    if d not in (1, 2) or code not in _SHAPE_CODES or topo not in (0, 1):
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
