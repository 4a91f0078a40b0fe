"""Kernel smoothing: exactness, contraction, and two-scale bounds.

The sharpest oracle here compares box smoothing (even reflection) with
periodic smoothing of the explicitly doubled even extension; the two must
agree to rounding because reflection indices land exactly on nodes.
"""

import numpy as np
import pytest

from reiterate.grid import Grid, GridFunction, l2_norm
from reiterate.smoothing import (bump, commutator_ratios, l2_bound_ratios, smooth,
                                 smoothing_weights)


def test_bump_profile_shape():
    assert bump(np.array([0.0]))[0] == pytest.approx(np.exp(-1.0))
    assert bump(np.array([1.0, -1.0, 2.0])).tolist() == [0.0, 0.0, 0.0]
    s = np.linspace(-0.99, 0.99, 101)
    vals = bump(s)
    assert np.all(vals > 0)
    assert np.allclose(vals, vals[::-1])  # even


def test_weights_normalized_symmetric_and_supported():
    h = 1 / 64
    w = smoothing_weights(8 * h, h)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(w, w[::-1])
    assert np.all(w > 0)
    assert w.size == 7  # offsets -3..3: the boundary offset carries zero weight


def test_subgrid_width_degenerates_to_identity():
    grid = Grid.torus(1, 32)
    f = GridFunction(grid, np.sin(2 * np.pi * grid.axis_coords(0)))
    out = smooth(f, 1.9 / 32)
    assert np.array_equal(out.values, f.values)


def test_constants_pass_through():
    grid = Grid.box(0.0, 1.0, 40)
    f = GridFunction.constant(grid, 3.25)
    out = smooth(f, 0.25)
    assert np.max(np.abs(out.values - 3.25)) < 1e-13


def test_periodic_smoothing_contracts_l2():
    grid = Grid.torus(2, 48)
    rng = np.random.default_rng(7)
    f = GridFunction(grid, rng.normal(size=grid.node_shape))
    for eps in (0.1, 0.2, 0.4):
        assert l2_norm(smooth(f, eps)) < l2_norm(f)


def test_affine_preserved_away_from_faces():
    grid = Grid.box(0.0, 1.0, 64)
    x = grid.axis_coords(0)
    f = GridFunction(grid, 2.0 + 3.0 * x)
    eps = 0.25
    out = smooth(f, eps)
    interior = (x >= eps / 2) & (x <= 1 - eps / 2)
    assert np.max(np.abs(out.values[interior] - f.values[interior])) < 1e-13


def test_box_smoothing_equals_periodic_smoothing_of_even_extension():
    n = 48
    box = Grid.box(0.0, 1.0, n)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=n + 1)
    doubled = Grid(shape=(2 * n,), periodic=True, lo=(0.0,), hi=(2.0,))
    even = np.concatenate([vals, vals[-2:0:-1]])
    for eps in (0.125, 0.3):
        got = smooth(GridFunction(box, vals), eps).values
        ref = smooth(GridFunction(doubled, even), eps).values[: n + 1]
        assert np.allclose(got, ref, atol=1e-14)


def test_oscillation_at_kernel_scale_is_damped():
    grid = Grid.torus(1, 1024)
    eps = 1 / 32
    x = grid.axis_coords(0)
    f = GridFunction(grid, np.sin(2 * np.pi * x / eps))
    assert l2_norm(smooth(f, eps)) < 0.5 * l2_norm(f)


def _symbol(eps, h, freq):
    """Factor by which smooth() scales a cosine of the given frequency."""
    w = smoothing_weights(eps, h)
    k = np.arange(w.size) - w.size // 2
    return float(np.sum(w * np.cos(2 * np.pi * freq * k * h)))


def test_bound_ratio_divides_by_the_cell_l2_of_the_fast_factor():
    # 2 + sin(2 pi x / eps) smooths to 2 + m sin(2 pi x / eps), of L2 norm
    # sqrt(4 + m^2/2); the cell L2 of the fast factor is sqrt(4.5)
    grid = Grid.torus(1, 256)
    eps = 1 / 16
    ratios = l2_bound_ratios(grid, lambda x: np.ones(x.shape[:-1]),
                             lambda y: 2 + np.sin(2 * np.pi * y[..., 0]), [eps])
    m = _symbol(eps, 1 / 256, 16)
    assert ratios[0] == pytest.approx(np.sqrt(4 + m**2 / 2) / np.sqrt(4.5), rel=1e-12)


def test_bound_ratios_read_every_fast_coordinate_in_2d():
    # the fast factor's cell L2 is taken on the 2D torus, so a factor
    # reading y[..., 1] works; on the torus each axis scales it by m
    fast = lambda y: np.sin(2 * np.pi * y[..., 0]) * np.sin(2 * np.pi * y[..., 1])
    ones = lambda x: np.ones(x.shape[:-1])
    eps_values = [1 / 4, 1 / 8]
    torus = l2_bound_ratios(Grid.torus(2, 64), ones, fast, eps_values)
    for eps, ratio in zip(eps_values, torus):
        assert ratio == pytest.approx(_symbol(eps, 1 / 64, 1 / eps) ** 2, rel=1e-12)
    box = l2_bound_ratios(Grid.box((0.0, 0.0), (1.0, 1.0), 64), ones, fast, eps_values)
    assert all(0.0 < ratio <= 1.0 for ratio in box)


def test_bound_ratios_stay_flat_as_scales_separate():
    grid = Grid.torus(1, 2048)
    slow = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x[..., 0])
    fast = lambda y: 2.0 + np.sin(2 * np.pi * y[..., 0])
    eps_values = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    ratios = l2_bound_ratios(grid, slow, fast, eps_values)
    assert max(ratios) <= 2.0 * ratios[0]
    assert min(ratios) > 0.1


def test_unit_fast_factor_contracts_exactly():
    grid = Grid.torus(1, 512)
    slow = lambda x: 1.0 + 0.5 * np.sin(2 * np.pi * x[..., 0])
    ones = lambda y: np.ones(y.shape[:-1])
    ratios = l2_bound_ratios(grid, slow, ones, [1 / 4, 1 / 8, 1 / 16])
    assert all(r <= 1.0 for r in ratios)


def test_commutator_with_slow_multiplier_decays_linearly():
    grid = Grid.torus(1, 4096)
    multiplier = lambda x: np.sin(2 * np.pi * x[..., 0])
    fast = lambda y: np.cos(2 * np.pi * y[..., 0])
    eps_values = [1 / 16, 1 / 32, 1 / 64]
    ratios = commutator_ratios(grid, multiplier, fast, eps_values)
    assert ratios[0] / ratios[1] > 1.7
    assert ratios[1] / ratios[2] > 1.7


def test_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        smoothing_weights(0.0, 0.1)
