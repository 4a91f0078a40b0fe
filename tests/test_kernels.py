import numpy as np
import pytest

from reiterate import kernels

RNG = np.random.default_rng(42)


def random_coeff(shape):
    # keep the coefficient uniformly elliptic so fluxes stay well scaled
    return 0.5 + RNG.random(shape)


# ---------------------------------------------------------------------------
# node-by-node reference stencils: the flux form written out per node,
# independent of the array shifts the kernels use


def periodic_1d_reference(fa, u, h):
    n = u.shape[0]
    out = np.empty_like(u)
    inv_h2 = 1.0 / (h * h)
    for i in range(n):
        ip = i + 1 if i + 1 < n else 0
        im = i - 1 if i > 0 else n - 1
        out[i] = -(fa[i] * (u[ip] - u[i]) - fa[im] * (u[i] - u[im])) * inv_h2
    return out


def periodic_2d_reference(fx, fy, axy, u, h1, h2):
    n1, n2 = u.shape
    out = np.empty_like(u)
    inv_h1sq = 1.0 / (h1 * h1)
    inv_h2sq = 1.0 / (h2 * h2)
    inv_x = 1.0 / (4.0 * h1 * h2)
    mixed = axy is not None
    for i in range(n1):
        ip = i + 1 if i + 1 < n1 else 0
        im = i - 1 if i > 0 else n1 - 1
        for j in range(n2):
            jp = j + 1 if j + 1 < n2 else 0
            jm = j - 1 if j > 0 else n2 - 1
            v = -(fx[i, j] * (u[ip, j] - u[i, j]) - fx[im, j] * (u[i, j] - u[im, j])) * inv_h1sq
            v -= (fy[i, j] * (u[i, jp] - u[i, j]) - fy[i, jm] * (u[i, j] - u[i, jm])) * inv_h2sq
            if mixed:
                v -= (axy[ip, j] * (u[ip, jp] - u[ip, jm]) - axy[im, j] * (u[im, jp] - u[im, jm])) * inv_x
                v -= (axy[i, jp] * (u[ip, jp] - u[im, jp]) - axy[i, jm] * (u[ip, jm] - u[im, jm])) * inv_x
            out[i, j] = v
    return out


def box_1d_reference(fa, u, h):
    n = u.shape[0]
    out = np.zeros_like(u)
    inv_h2 = 1.0 / (h * h)
    for i in range(1, n - 1):
        out[i] = -(fa[i] * (u[i + 1] - u[i]) - fa[i - 1] * (u[i] - u[i - 1])) * inv_h2
    return out


def box_2d_reference(fx, fy, axy, u, h1, h2):
    n1, n2 = u.shape
    out = np.zeros_like(u)
    inv_h1sq = 1.0 / (h1 * h1)
    inv_h2sq = 1.0 / (h2 * h2)
    inv_x = 1.0 / (4.0 * h1 * h2)
    mixed = axy is not None
    for i in range(1, n1 - 1):
        for j in range(1, n2 - 1):
            v = -(fx[i, j] * (u[i + 1, j] - u[i, j]) - fx[i - 1, j] * (u[i, j] - u[i - 1, j])) * inv_h1sq
            v -= (fy[i, j] * (u[i, j + 1] - u[i, j]) - fy[i, j - 1] * (u[i, j] - u[i, j - 1])) * inv_h2sq
            if mixed:
                v -= (axy[i + 1, j] * (u[i + 1, j + 1] - u[i + 1, j - 1])
                      - axy[i - 1, j] * (u[i - 1, j + 1] - u[i - 1, j - 1])) * inv_x
                v -= (axy[i, j + 1] * (u[i + 1, j + 1] - u[i - 1, j + 1])
                      - axy[i, j - 1] * (u[i + 1, j - 1] - u[i - 1, j - 1])) * inv_x
            out[i, j] = v
    return out


def test_periodic_1d_paths_agree():
    n = 257
    fa = random_coeff(n)
    u = RNG.normal(size=n)
    a = kernels.matvec_periodic_1d(fa, u, 1.0 / n)
    b = periodic_1d_reference(fa, u, 1.0 / n)
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("mixed", [False, True])
def test_periodic_2d_paths_agree(mixed):
    n1, n2 = 48, 64
    fx, fy = random_coeff((n1, n2)), random_coeff((n1, n2))
    axy = 0.2 * RNG.normal(size=(n1, n2)) if mixed else None
    u = RNG.normal(size=(n1, n2))
    a = kernels.matvec_periodic_2d(fx, fy, axy, u, 1.0 / n1, 1.0 / n2)
    b = periodic_2d_reference(fx, fy, axy, u, 1.0 / n1, 1.0 / n2)
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-9)


def test_box_1d_paths_agree_and_pin_boundary():
    n = 129
    fa = random_coeff(n - 1)
    u = RNG.normal(size=n)
    a = kernels.matvec_box_1d(fa, u, 1.0 / (n - 1))
    b = box_1d_reference(fa, u, 1.0 / (n - 1))
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-9)
    assert a[0] == a[-1] == 0.0
    assert b[0] == b[-1] == 0.0


@pytest.mark.parametrize("mixed", [False, True])
def test_box_2d_paths_agree(mixed):
    n1, n2 = 33, 41
    fx, fy = random_coeff((n1 - 1, n2)), random_coeff((n1, n2 - 1))
    axy = 0.2 * RNG.normal(size=(n1, n2)) if mixed else None
    u = RNG.normal(size=(n1, n2))
    a = kernels.matvec_box_2d(fx, fy, axy, u, 1.0 / (n1 - 1), 1.0 / (n2 - 1))
    b = box_2d_reference(fx, fy, axy, u, 1.0 / (n1 - 1), 1.0 / (n2 - 1))
    np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-9)
    assert np.all(a[0, :] == 0.0) and np.all(a[:, -1] == 0.0)


def test_box_affine_in_constant_medium_is_flux_free():
    # constant coefficient + affine data: fluxes match on every face,
    # so the divergence cancels except for rounding
    n = 65
    h = 1.0 / (n - 1)
    u = 0.3 + 1.7 * np.arange(n) * h
    out = kernels.matvec_box_1d(np.full(n - 1, 2.5), u, h)
    assert np.max(np.abs(out)) < 1e-10



# ---------------------------------------------------------------------------
# stacked periodic cells: the kernels shift by slicing, the np.roll formula
# is the reference for bytes and the node loops for values


def periodic_1d_roll(fa, u, h):
    flux = fa * (np.roll(u, -1, -1) - u) / h
    return -(flux - np.roll(flux, 1, -1)) / h


def periodic_2d_roll(fx, fy, axy, u, h1, h2):
    flux_x = fx * (np.roll(u, -1, -2) - u) / h1
    flux_y = fy * (np.roll(u, -1, -1) - u) / h2
    out = -(flux_x - np.roll(flux_x, 1, -2)) / h1
    out -= (flux_y - np.roll(flux_y, 1, -1)) / h2
    if axy is not None:
        mx = axy * (np.roll(u, -1, -1) - np.roll(u, 1, -1)) / (2.0 * h2)
        my = axy * (np.roll(u, -1, -2) - np.roll(u, 1, -2)) / (2.0 * h1)
        out -= (np.roll(mx, -1, -2) - np.roll(mx, 1, -2)) / (2.0 * h1)
        out -= (np.roll(my, -1, -1) - np.roll(my, 1, -1)) / (2.0 * h2)
    return out


def test_stacked_periodic_1d_matches_roll_bitwise():
    samples, n = 5, 33
    fa = random_coeff((samples, n))
    u = RNG.normal(size=(samples, n))
    out = kernels.matvec_periodic_1d(fa, u, 1.0 / n)
    assert np.array_equal(out, periodic_1d_roll(fa, u, 1.0 / n))
    for s in range(samples):
        np.testing.assert_allclose(out[s], periodic_1d_reference(fa[s], u[s], 1.0 / n),
                                   rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("mixed", [False, True])
def test_stacked_periodic_2d_matches_roll_bitwise(mixed):
    samples, n1, n2 = 4, 8, 12
    fx, fy = random_coeff((samples, n1, n2)), random_coeff((samples, n1, n2))
    axy = 0.2 * RNG.normal(size=(samples, n1, n2)) if mixed else None
    u = RNG.normal(size=(samples, n1, n2))
    out = kernels.matvec_periodic_2d(fx, fy, axy, u, 1.0 / n1, 1.0 / n2)
    assert np.array_equal(out, periodic_2d_roll(fx, fy, axy, u, 1.0 / n1, 1.0 / n2))
    for s in range(samples):
        ref = periodic_2d_reference(fx[s], fy[s], None if axy is None else axy[s], u[s],
                                    1.0 / n1, 1.0 / n2)
        np.testing.assert_allclose(out[s], ref, rtol=1e-12, atol=1e-9)


# ---------------------------------------------------------------------------
# the 2D box kernel sums its interior one block of rows at a time; the
# whole-array form it replaced is the bitwise reference


def _box_flux_whole(u, coef, axis, width, h):
    hi, lo = (slice(width, None), slice(None)), (slice(None, -width), slice(None))
    if axis:
        hi, lo = hi[::-1], lo[::-1]
    flux = np.subtract(u[hi], u[lo])
    flux *= coef
    flux /= h
    return flux


def _subtract_difference_whole(interior, step, flux, hi, lo, h):
    interior -= np.divide(np.subtract(flux[hi], flux[lo], out=step), h, out=step)


def matvec_box_2d_whole(fx, fy, axy, u, h1, h2):
    out = np.zeros_like(u)
    interior = out[1:-1, 1:-1]
    flux = _box_flux_whole(u, fx, 0, 1, h1)
    np.negative(np.subtract(flux[1:, 1:-1], flux[:-1, 1:-1], out=interior), out=interior)
    interior /= h1
    step = np.empty_like(interior)
    _subtract_difference_whole(interior, step, _box_flux_whole(u, fy, 1, 1, h2),
                               np.s_[1:-1, 1:], np.s_[1:-1, :-1], h2)
    if axy is not None and axy.size:
        mx = _box_flux_whole(u, axy[:, 1:-1], 1, 2, 2.0 * h2)
        _subtract_difference_whole(interior, step, mx, np.s_[2:, :], np.s_[:-2, :], 2.0 * h1)
        my = _box_flux_whole(u, axy[1:-1, :], 0, 2, 2.0 * h1)
        _subtract_difference_whole(interior, step, my, np.s_[:, 2:], np.s_[:, :-2], 2.0 * h2)
    return out


@pytest.mark.parametrize("mixed", [False, True], ids=["diagonal", "mixed"])
@pytest.mark.parametrize("shape", [(3, 3), (4, 7), (257, 257), (65, 300), (300, 20)])
def test_blocked_box_2d_matches_the_whole_array_form_bitwise(shape, mixed, monkeypatch):
    n1, n2 = shape
    rng = np.random.default_rng(n1 * n2)
    fx, fy = 0.5 + rng.random((n1 - 1, n2)), 0.5 + rng.random((n1, n2 - 1))
    axy = 0.2 * rng.standard_normal((n1, n2)) if mixed else None
    u = rng.standard_normal((n1, n2))
    u[::3, ::2] = -0.0
    h1, h2 = 1.0 / (n1 - 1), 1.3 / (n2 - 1)
    whole = matvec_box_2d_whole(fx, fy, axy, u, h1, h2).tobytes()
    # the default block, and blocks of one row and of three rows that leave a
    # shorter last block
    for block in (kernels._BLOCK_NODES, n2, 3 * n2 + 1):
        monkeypatch.setattr(kernels, "_BLOCK_NODES", block)
        assert kernels.matvec_box_2d(fx, fy, axy, u, h1, h2).tobytes() == whole, block
    # one tensor broadcast to every node reaches the kernel as broadcast faces
    fx, fy = (np.broadcast_to(1.9, f.shape) for f in (fx, fy))
    axy = None if axy is None else np.broadcast_to(0.4, axy.shape)
    assert (kernels.matvec_box_2d(fx, fy, axy, u, h1, h2).tobytes()
            == matvec_box_2d_whole(fx, fy, axy, u, h1, h2).tobytes())
