"""Periodic cell problems: correctors, effective tensors, and flux correctors.

For a frozen set of slow arguments, the cell problem solves

    -div_y( A (grad_y chi_j + e_j) ) = 0  on the unit torus,  mean(chi_j) = 0,

and the effective tensor column j is the mean flux of y_j + chi_j.  The
flux matrix B = A(I + grad chi) - A_eff is assembled from the same face
fluxes whose average defines the tensor, so mean(B) vanishes to machine
precision.  Flux correctors phi_kij = d_k f_ij - d_i f_kj come from
potentials with Delta f_ij = b_ij, all d^2 of them from one application
of the exact inverse of the torus Laplacian (stencil.torus_line_inverse of
the identity); their skew symmetry in (k, i) is exact by construction,
while the reconstruction sum_k d_k phi_kij = b_ij holds up to a stencil
commutator of order h^2 for smooth fields.

A cell problem is a CellStack: many frozen samples on one torus grid
with a leading sample axis, and a single cell is a stack of one
(CellStack.from_sampler).  There is one solve path: solve_corrector
solves every sample of a stack and effective_tensor reduces its
correctors to tensors.  In d=1 the discrete corrector has a closed form
(the face flux is the harmonic mean q of the faces, so D+chi = q/a - 1
and chi is its centered running sum); in d=2 every sample of the stack
runs the same conjugate gradient with its own convergence test,
preconditioned by the exact inverse of its operator with the faces
averaged along one axis (stencil.torus_line_inverse), so a laminate takes
one iteration and other fields a count that does not grow with the cell
resolution.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .coeff import spectrum
from .errors import CompatibilityError, SolverFailure
from .grid import Grid, GridFunction, _axis_derivative, mean
from .stencil import FluxStencil, _periodic_running_sum, pcg, torus_line_inverse

DEFAULT_RESOLUTION = {1: 256, 2: 128}
# largest |mean| of a flux matrix that flux_correctors accepts as mean-free
FLUX_MEAN_TOL = 1e-8


class EffectiveTensor(NamedTuple("EffectiveTensor", [("tensor", np.ndarray), ("mu", float),
                                                     ("spectrum", tuple)])):
    __slots__ = ()

    def __new__(cls, tensor, mu, spectrum):
        _check_symmetric(tensor)
        return super().__new__(cls, tensor, mu, spectrum)


def _check_symmetric(tensor: np.ndarray) -> None:
    """SolverFailure naming the first of the (..., d, d) tensors that is
    asymmetric beyond 1e-8 of its largest entry (or of 1)."""
    asym = np.max(np.abs(tensor - np.swapaxes(tensor, -1, -2)), axis=(-2, -1))
    bad = np.flatnonzero(asym > 1e-8 * np.maximum(1.0, np.max(np.abs(tensor), axis=(-2, -1))))
    if bad.size:
        raise SolverFailure(f"effective tensor asymmetric by {np.ravel(asym)[bad[0]]:g}; "
                            "refine the cell grid")


class FluxData(NamedTuple):
    """Potentials f_ij and correctors phi_kij of a flux matrix, with residual report."""

    potentials: np.ndarray  # (d, d, *nodes)
    phi: np.ndarray  # (d, d, d, *nodes), phi[k, i, j]
    residuals: dict


# how solve_corrector solves the corrector problems of a cell in each dimension
CELL_METHOD = {1: "closed-form", 2: "line-rfft-pcg"}


class CellStack(NamedTuple("CellStack", [("grid", Grid), ("values", np.ndarray),
                                         ("frozen", object), ("tol", float)])):
    """Cell problems on one torus grid, stacked on a leading sample axis:
    values (samples, *nodes, d, d) and frozen, an array or tuple with one
    row of frozen slow arguments per sample."""

    __slots__ = ()

    def __new__(cls, grid, values, frozen, tol):
        if not grid.periodic:
            raise ValueError("cell problems live on periodic grids")
        if np.shape(values)[1:] != grid.node_shape + (grid.d,) * 2:
            raise ValueError("cell values must be shaped (samples, *nodes, d, d)")
        return super().__new__(cls, grid, values, frozen, tol)

    @classmethod
    def from_sampler(cls, sampler, d: int, resolution: int | None = None,
                     frozen: tuple = (), tol: float = 1e-10) -> "CellStack":
        """The stack of one cell: y -> A(y) (d x d) at the nodes of a fresh torus grid."""
        grid = Grid.torus(d, resolution or DEFAULT_RESOLUTION[d])
        pts = grid.nodes().reshape(-1, d)
        vals = np.asarray(sampler(pts), dtype=float).reshape((1,) + grid.node_shape + (d, d))
        return cls(grid, vals, (frozen,), tol)


def _relative_residuals(stencil: FluxStencil, chi: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    nodes = tuple(range(-stencil.d, 0))
    res = np.sqrt(np.sum((stencil.apply(chi) - rhs) ** 2, axis=nodes))
    norm = np.sqrt(np.sum(rhs**2, axis=nodes))
    return np.divide(res, norm, out=np.zeros_like(res), where=norm > 0)


def solve_corrector(stack: CellStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the d corrector problems of every sample in a stack.

    Returns (chi, iterations, residuals), shaped (samples, *nodes, d),
    (samples, d) and (samples,): the zero-mean correctors chi_j, the
    iterations of each solve and each sample's worst final relative
    residual over j.  d=1 uses the exact discrete corrector, so no
    iterations and no tolerance; its recorded residual is that of one
    operator application.
    """
    grid = stack.grid
    d = grid.d
    h = grid.spacing
    nodes = tuple(range(-d, 0))
    stencil = FluxStencil(stack)
    comps, iters, resid = [], [], []
    if d == 1:
        faces = stencil.faces[0]
        q = 1.0 / np.mean(1.0 / faces, axis=-1, keepdims=True)
        chi = _periodic_running_sum(h[0] * (q / faces - 1.0))
        comps.append(chi)
        iters.append(np.zeros(len(chi), dtype=int))
        resid.append(_relative_residuals(stencil, chi, stencil.affine_rhs(0)))
    else:
        precondition = torus_line_inverse(stencil)

        def project(v):
            v -= v.mean(axis=nodes, keepdims=True)

        for j in range(d):
            chi, info = pcg(stencil.apply, stencil.affine_rhs(j), precondition,
                            tol=stack.tol, project=project, stacked=True)
            chi -= chi.mean(axis=nodes, keepdims=True)
            comps.append(chi)
            iters.append(np.array(info["sample_iterations"]))
            resid.append(np.array([hist[-1] if hist else 0.0
                                   for hist in info["sample_residuals"]]))
    return np.stack(comps, axis=-1), np.stack(iters, axis=-1), np.max(resid, axis=0)


def effective_tensor(stack: CellStack, chi: np.ndarray,
                     mu: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Mean-flux effective tensors (samples, d, d) and spectra (samples, 2)
    of every sample, from the correctors chi that solve_corrector returns:
    the extreme eigenvalues of each symmetric part, checked against
    [mu, 1/mu] when mu is given, and each tensor checked for symmetry as
    EffectiveTensor checks it."""
    stencil = FluxStencil(stack)
    d = stack.grid.d
    tensor = np.stack([stencil.mean_flux(chi[..., j], affine_axis=j) for j in range(d)],
                      axis=-1)
    spectra = spectrum(0.5 * (tensor + np.swapaxes(tensor, -1, -2)))
    check_tensors(tensor, spectra, mu)
    return tensor, spectra


def check_tensors(tensors: np.ndarray, spectra: np.ndarray, mu: float | None = None) -> None:
    """The checks effective_tensor applies to its (samples, d, d) tensors and
    (samples, 2) spectra: SolverFailure when a spectrum escapes [mu, 1/mu]
    (mu given) or a tensor is asymmetric."""
    if mu is not None:
        lo, hi = mu * (1 - 1e-8), (1.0 / mu) * (1 + 1e-8)
        # a nan spectrum escapes too
        bad = np.flatnonzero(~((spectra[:, 0] >= lo) & (spectra[:, 1] <= hi)))
        if bad.size:
            worst = tuple(float(v) for v in spectra[bad[0]])
            raise SolverFailure(
                f"effective spectrum {worst} escapes [{mu:g}, {1/mu:g}]; "
                "discretization failure")
    _check_symmetric(tensors)


def flux_matrix(stack: CellStack, chi: np.ndarray, tensors: np.ndarray) -> GridFunction:
    """Nodal B = A(I + grad chi) - A_eff of a stack of one, assembled from
    face fluxes (mean-free); chi and tensors as solve_corrector and
    effective_tensor return them."""
    if len(stack.values) != 1:
        raise ValueError("flux_matrix takes a stack of one cell")
    stencil = FluxStencil(stack)
    grid = stack.grid
    d = grid.d
    vals = np.empty(grid.node_shape + (d, d))
    for j in range(d):
        comps = stencil.flux(chi[..., j], affine_axis=j)
        for i in range(d):
            vals[..., i, j] = comps[i][0] - tensors[0, i, j]
    return GridFunction(grid, vals)


def flux_correctors(B: GridFunction) -> FluxData:
    """Potentials and skew flux correctors for a mean-free flux matrix;
    CompatibilityError when a mean of B exceeds FLUX_MEAN_TOL."""
    grid = B.grid
    d = grid.d
    means = mean(B)
    worst = float(np.max(np.abs(means)))
    if worst > FLUX_MEAN_TOL:
        raise CompatibilityError(
            f"flux matrix has nonzero mean {worst:.3e}; not a valid flux decomposition")
    # lap f_ij = b_ij for all d^2 pairs at once: every face of the identity
    # is 1, so torus_line_inverse is the exact inverse of -lap on mean-free fields
    b = np.moveaxis(B.values, (-2, -1), (0, 1))
    inverse = torus_line_inverse(FluxStencil(GridFunction.from_callable(grid, np.eye(d))))
    potentials = inverse(b.mean(axis=tuple(range(2, 2 + d)), keepdims=True) - b)

    phi = np.zeros((d, d, d) + grid.node_shape)
    for k in range(d):
        for i in range(d):
            for j in range(d):
                phi[k, i, j] = (_axis_derivative(grid, potentials[i, j], k)
                                - _axis_derivative(grid, potentials[k, j], i))

    recon = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            s = sum(_axis_derivative(grid, phi[k, i, j], k) for k in range(d))
            recon[i, j] = np.sqrt(np.mean((s - B.values[..., i, j]) ** 2))
    residuals = {
        "mean_abs_B": worst,
        "reconstruction_l2": recon,
        "max_reconstruction_l2": float(recon.max()),
        "skew_defect": 0.0,  # exact: phi_kij = -phi_ikj by construction
    }
    return FluxData(potentials=potentials, phi=phi, residuals=residuals)
