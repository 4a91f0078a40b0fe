"""Descent across scales against closed-form nested harmonic means.

The workhorse oracle is the separable field a(y1, y2) = g(y1) g(y2) with
g(t) = 2 + sin(2 pi t): integrating out y2 gives A_1(y1) = sqrt(3) g(y1)
exactly, and integrating out y1 gives the constant 3.
"""

import json

import numpy as np
import pytest

from reiterate.cache import CorrectorCache
from reiterate import cascade
from reiterate.cascade import (box_axis, descend, homogenize_all, multilinear,
                               periodic_axis, point_axis)
from reiterate.cell import CellStack, effective_tensor, solve_corrector
from reiterate.coeff import ScaleLadder, builtin_family
from reiterate.errors import SolverFailure

SQRT3 = np.sqrt(3.0)
PRODUCT = "laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))"
LADDER2 = ScaleLadder.power(1 / 16, [1, 2])
# fields that declare no split, so every level takes the slab path
NONPRODUCT = "expr(2+sin(2*pi*(y1+y2)))"  # d = 1, two slots
NONPRODUCT_2D = "expr(3+sin(2*pi*(x1+y1))*sin(2*pi*y2))"  # 33 x1-samples


# ---------------------------------------------------------------------------
# interpolation


def test_multilinear_reproduces_linear_functions_exactly():
    axes = (box_axis(8), periodic_axis(16))
    xg, yg = np.meshgrid(axes[0].coords, axes[1].coords, indexing="ij")
    values = 2.0 * xg + 0.25 * yg
    rng = np.random.default_rng(3)
    q = rng.uniform(0, 1, size=(50, 2))
    q[:, 1] *= 15 / 16  # stay below the wrap, where the table is linear
    out = multilinear(axes, values, q)
    assert np.allclose(out, 2.0 * q[:, 0] + 0.25 * q[:, 1], atol=1e-13)


def test_multilinear_wraps_periodic_axes():
    axes = (periodic_axis(4),)
    values = np.array([10.0, 20.0, 30.0, 40.0])
    # halfway between the last node (0.75) and the wrapped first node
    assert multilinear(axes, values, [[0.875]])[0] == pytest.approx(25.0)
    assert multilinear(axes, values, [[1.25]])[0] == pytest.approx(20.0)


def test_multilinear_clamps_box_axes():
    axes = (box_axis(4),)
    values = np.linspace(0.0, 1.0, 5)
    assert multilinear(axes, values, [[-0.5]])[0] == pytest.approx(0.0)
    assert multilinear(axes, values, [[1.5]])[0] == pytest.approx(1.0)


def test_point_axes_are_free():
    axes = (point_axis(), periodic_axis(8), point_axis())
    values = np.sin(2 * np.pi * np.arange(8) / 8).reshape(1, 8, 1)
    got = multilinear(axes, values, [[0.0, 0.25, 0.0]])
    assert got[0] == pytest.approx(1.0)


def test_midpoint_interpolation_error_is_second_order():
    errs = []
    for n in (32, 64):
        axes = (periodic_axis(n),)
        values = np.sin(2 * np.pi * np.arange(n) / n)
        mid = (np.arange(n) + 0.5) / n
        got = multilinear(axes, values, mid[:, None])
        errs.append(np.max(np.abs(got - np.sin(2 * np.pi * mid))))
    assert errs[0] / errs[1] > 3.5


# ---------------------------------------------------------------------------
# single descent step


def test_descend_product_field_matches_scaled_harmonic_mean():
    field = builtin_family(PRODUCT, 1)
    child, record, _ = descend(field, resolution=256, tol=1e-12)
    y = record.axes[1].coords
    oracle = SQRT3 * (2 + np.sin(2 * np.pi * y))
    table = record.values[0, :, 0, 0]
    assert np.max(np.abs(table - oracle)) < 1e-9
    assert child.n_scales == 1
    assert record.samples == 256


def test_descend_requires_a_fast_slot():
    field = builtin_family("constant(2)", 1)
    with pytest.raises(ValueError):
        descend(field)


def test_full_cascade_product_field_gives_three():
    field = builtin_family(PRODUCT, 1)
    result = homogenize_all(field, LADDER2, resolution=256, tol=1e-12)
    assert result.effective is not None
    assert result.effective.tensor[0, 0] == pytest.approx(3.0, abs=1e-9)
    assert len(result.levels) == 2
    assert result.levels[0].level == 2 and result.levels[1].level == 1


def test_dummy_slot_leaves_single_scale_answer_unchanged():
    # a second factor identically 1 must not perturb the harmonic mean
    padded = builtin_family("laminate1d(2+sin(2*pi*y1), 1+0*y2)", 1)
    result = homogenize_all(padded, LADDER2, resolution=256, tol=1e-12)
    assert result.effective.tensor[0, 0] == pytest.approx(SQRT3, abs=1e-9)


def test_single_scale_cascade_agrees_with_direct_cell_solve():
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    result = homogenize_all(field, ScaleLadder((1 / 8,)), resolution=32, tol=1e-11)
    stack = CellStack.from_sampler(lambda y: field(np.zeros_like(y), [y]), d=2,
                                   resolution=32, tol=1e-11)
    tensors, _ = effective_tensor(stack, solve_corrector(stack)[0])
    assert np.array_equal(result.effective.tensor, tensors[0])


# a laminate across the normal n = (1, 1)/sqrt(2): the coefficient is
# 2 + sin(2 pi (y1 + y2)) along n and 4 along t = (1, -1)/sqrt(2)
ROTATED = ("matrix2d((6+sin(2*pi*(y1+y2)))/2, (sin(2*pi*(y1+y2))-2)/2, "
           "(6+sin(2*pi*(y1+y2)))/2)")


def test_rotated_laminate_matches_its_off_diagonal_tensor():
    # exact A_hat = sqrt(3) n n^T + 4 t t^T (harmonic mean across the layers,
    # arithmetic along them), so A_hat_12 = (sqrt(3) - 4)/2; the cell error
    # is second order: 9.4e-3 at 16^2, 2.5e-3 at 32^2
    result = homogenize_all(builtin_family(ROTATED, 2), resolution=32, tol=1e-11)
    exact = np.array([[SQRT3 + 4, SQRT3 - 4], [SQRT3 - 4, SQRT3 + 4]]) / 2
    assert np.max(np.abs(result.effective.tensor - exact)) <= 3.75e-3


# a smooth 2D cell with no symmetry of its own (ROADMAP item 17)
GENERIC_CELL = "3+sin(2*pi*{a})*cos(2*pi*{b})+0.5*sin(2*pi*({a}+2*{b}))"


def _cell_effective(expression):
    return homogenize_all(builtin_family(f"expr({expression})", 2), resolution=16).effective


def test_swapping_y1_and_y2_swaps_the_diagonal_of_a_hat():
    # a(y2, y1) has A_hat = P A_hat[a] P with P the axis swap
    effective = _cell_effective(GENERIC_CELL.format(a="y1", b="y2"))
    swapped = _cell_effective(GENERIC_CELL.format(a="y2", b="y1"))
    assert np.max(np.abs(swapped.tensor - effective.tensor[::-1, ::-1])) <= 1e-15


def test_doubling_the_coefficient_doubles_a_hat_and_its_spectrum_bitwise():
    cell = GENERIC_CELL.format(a="y1", b="y2")
    effective = _cell_effective(cell)
    doubled = _cell_effective(f"2*({cell})")
    assert np.array_equal(doubled.tensor, 2 * effective.tensor)
    assert doubled.spectrum == tuple(2 * v for v in effective.spectrum)


# Keller-Dykhne duality: a scalar a has A_hat[1/a] = R A_hat[a]^-1 R^T, R
# the quarter turn, and a symmetric matrix field has A_hat[a/det a] =
# A_hat[a]/det A_hat[a].  The discrete gap falls at second order; each gate
# is 1.5 times the gap measured at cells 16 and 32
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
MATRIX_CELL = ("3+sin(2*pi*y1)*cos(2*pi*y2)", "0.6*sin(2*pi*(y1+y2))",
               "2.5+0.5*cos(2*pi*(y1-2*y2))")


def _tensor(spec, n):
    return homogenize_all(builtin_family(spec, 2), resolution=n).effective.tensor


def test_scalar_keller_dykhne_duality_gap_falls_at_second_order():
    cell = GENERIC_CELL.format(a="y1", b="y2")
    gaps = []
    for n, gate in ((16, 1.08e-3), (32, 2.73e-4)):  # measured 7.19e-4, 1.82e-4
        dual = QUARTER_TURN @ np.linalg.inv(_tensor(f"expr({cell})", n)) @ QUARTER_TURN.T
        gaps.append(np.max(np.abs(_tensor(f"expr(1/({cell}))", n) - dual)))
        assert gaps[-1] <= gate, n
    assert gaps[0] / gaps[1] >= 3.5


def test_matrix_duality_gap_falls_at_second_order():
    a, b, c = MATRIX_CELL
    det = f"(({a})*({c})-({b})*({b}))"
    gaps = []
    for n, gate in ((16, 5.1e-4), (32, 1.29e-4)):  # measured 3.40e-4, 8.61e-5
        tensor = _tensor(f"matrix2d({a}, {b}, {c})", n)
        dual = _tensor(f"matrix2d(({a})/{det}, ({b})/{det}, ({c})/{det})", n)
        gaps.append(np.max(np.abs(dual - tensor / np.linalg.det(tensor))))
        assert gaps[-1] <= gate, n
    assert gaps[0] / gaps[1] >= 3.5


def test_laminate_and_its_expr_spelling_descend_alike():
    laminate = builtin_family(PRODUCT, 1)
    spelled = builtin_family("expr((2+sin(2*pi*y1))*(2+sin(2*pi*y2)))", 1)
    assert spelled.n_scales == laminate.n_scales == 2
    assert spelled.depends_on_x == laminate.depends_on_x == ()
    rng = np.random.default_rng(4)
    x, y1, y2 = (rng.uniform(0, 1, (50, 1)) for _ in range(3))
    assert np.array_equal(spelled(x, [y1, y2]), laminate(x, [y1, y2]))
    (scale_a, fast_a), (scale_b, fast_b) = laminate.split, spelled.split
    assert np.array_equal(scale_a(x, [y1]), scale_b(x, [y1]))
    assert np.array_equal(fast_a(x, [y2]), fast_b(x, [y2]))
    a = homogenize_all(laminate, LADDER2, resolution=64)
    b = homogenize_all(spelled, LADDER2, resolution=64)
    assert [lv.distinct_solves for lv in a.levels] == [lv.distinct_solves for lv in b.levels]
    assert np.array_equal(a.effective.tensor, b.effective.tensor)


def test_cascade_spectrum_stays_inside_ellipticity_window():
    field = builtin_family(PRODUCT, 1)
    result = homogenize_all(field, LADDER2, resolution=128)
    lo, hi = result.effective.spectrum
    assert field.mu <= lo + 1e-12 and hi <= 1 / field.mu + 1e-12


def test_ladder_slot_mismatch_rejected():
    field = builtin_family(PRODUCT, 1)
    with pytest.raises(ValueError):
        homogenize_all(field, ScaleLadder((1 / 8,)))


def test_no_scale_field_homogenizes_to_itself():
    field = builtin_family("constant(2.5)", 1)
    result = homogenize_all(field)
    assert result.effective.tensor[0, 0] == 2.5
    assert result.levels == ()
    assert result.effective_field is field


def test_slow_modulated_cascade_tabulates_x_dependence():
    field = builtin_family(
        "slow_modulated(laminate1d(2+sin(2*pi*y1)), offset=2, amplitude=1, k1=1)", 1)
    result = homogenize_all(field, ScaleLadder((1 / 32,)), resolution=256,
                            tol=1e-12, x_resolution=64)
    assert result.effective is None  # no constant tensor when x survives
    eff = result.effective_field
    x = np.linspace(0, 1, 65)[:, None]
    oracle = SQRT3 * (2 + np.sin(2 * np.pi * x[:, 0]))
    got = eff(x, [])[:, 0, 0]
    assert np.max(np.abs(got - oracle)) < 1e-9  # exact at table nodes
    mid = x[:-1] + 1 / 128
    mid_err = np.max(np.abs(eff(mid, [])[:, 0, 0]
                            - SQRT3 * (2 + np.sin(2 * np.pi * mid[:, 0]))))
    # midpoint error of linear interpolation is max|f''| h^2 / 8 at h = 1/64
    assert mid_err < 1.05 * SQRT3 * (2 * np.pi) ** 2 / 8 / 64**2


SLOW_2D = "slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1)"


def test_slow_field_samples_only_the_x_axes_it_reads():
    field = builtin_family(SLOW_2D, 2)
    assert field.depends_on_x == (0,)
    _, record, _ = descend(field, resolution=8, tol=1e-11)
    assert record.samples == 33
    # the same field claiming both x axes tabulates every (x1, x2) pair
    _, full, _ = descend(field._replace(depends_on_x=(0, 1)), resolution=8, tol=1e-11)
    assert full.samples == 33 * 33
    shared = record.values[:, 0]
    assert np.allclose(full.values, shared[:, None], rtol=1e-13, atol=0)


@pytest.mark.parametrize("text, d", [
    ("slow_modulated(laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2)), amplitude=0.5, k1=1)", 1),
    ("slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1, k2=2)", 2)])
def test_descend_freezes_rows_in_ndindex_order(monkeypatch, text, d):
    # the rows key the cache entries, so they must match the per-index tuples
    # of np.ndindex value for value; without its split the field takes the
    # slab path, which tabulates every sample
    field = builtin_family(text, d)._replace(split=None)
    seen = []

    def recording(field, frozen, grid):
        seen.extend(np.asarray(frozen).tolist())
        return tabulate_cells(field, frozen, grid)

    tabulate_cells = cascade.tabulate_cells
    monkeypatch.setattr(cascade, "tabulate_cells", recording)
    _, record, _ = descend(field, resolution=8, tol=1e-10, x_resolution=5,
                           slot_resolution=3)
    axes = record.axes
    expected = [[float(axes[a].coords[i]) for a, i in enumerate(index)]
                for index in np.ndindex(*(axis.n for axis in axes))]
    assert len(expected) == record.samples > 1
    assert seen == expected


def test_slabbed_level_matches_per_sample_solves(tmp_path, monkeypatch):
    # ten samples per slab do not divide the 33 samples of the level
    monkeypatch.setattr(cascade, "_SLAB_NODES", 10 * 64)
    field = builtin_family(NONPRODUCT_2D, 2)
    store = CorrectorCache(tmp_path / "store")
    _, record, _ = descend(field, resolution=8, tol=1e-11, cache=store)
    assert record.samples == 33 and store.stores == 4  # slabs of 10, 10, 10, 3
    axis = record.axes[0]
    rows = [(float(x1), 0.0) for x1 in axis.coords]
    sidecars = [store.lookup(field.digest(), 1, rows[k:k + 10], (8, 8), 1e-11, 2)[1]
                for k in range(0, 33, 10)]
    total = 0
    for i, frozen in enumerate(rows):
        alone = CellStack.from_sampler(
            lambda y: field(np.broadcast_to(frozen, y.shape), [y]), d=2,
            resolution=8, frozen=frozen, tol=1e-11)
        chi, iterations, _ = solve_corrector(alone)
        tensor = effective_tensor(alone, chi, mu=field.mu)[0][0]
        got = record.values[i, 0]
        assert np.max(np.abs(got - tensor)) <= 1e-13 * np.max(np.abs(tensor))
        assert sidecars[i // 10]["iterations"][i % 10] == iterations[0].tolist()
        total += int(iterations.sum())
    assert record.iterations == total
    assert record.method == "line-rfft-pcg" and 0.0 < record.max_residual <= 1e-11


def test_cold_level_writes_one_entry_per_slab(tmp_path, monkeypatch):
    monkeypatch.setattr(cascade, "_SLAB_NODES", 10 * 64)
    store = CorrectorCache(tmp_path / "store")
    _, record, _ = descend(builtin_family(NONPRODUCT_2D, 2), resolution=8, tol=1e-11,
                           cache=store)
    files = [p for p in store.root.rglob("*") if p.is_file()]
    assert len(files) == 2 * -(-record.samples // 10) == 8
    assert store.misses == record.samples and store.stores == 4


def test_cascade_2d_field_writes_36_cache_files(tmp_path):
    # 33^2 x-samples on 8^2 cells: 64 samples per slab, 18 slabs
    field = builtin_family("expr(3+sin(2*pi*(x1+y1))*sin(2*pi*(x2+y2)))", 2)
    store = CorrectorCache(tmp_path / "store")
    result = homogenize_all(field, resolution=8, tol=1e-10, cache=store)
    assert sum(lv.samples for lv in result.levels) == 1089
    assert len([p for p in store.root.rglob("*") if p.is_file()]) == 36


def test_cascade_2d_product_field_writes_one_entry(tmp_path):
    # the benchmark's cascade-2d field: 33^2 x-samples of one cell problem
    field = builtin_family(
        "slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1, k2=1)", 2)
    store = CorrectorCache(tmp_path / "store")
    result = homogenize_all(field, resolution=8, tol=1e-10, cache=store)
    (level,) = result.levels
    assert (level.samples, level.distinct_solves, level.cache_misses) == (1089, 1, 1089)
    assert store.misses == 1089 and store.stores == 1
    assert len([p for p in store.root.rglob("*") if p.is_file()]) == 2


def test_changed_slab_size_misses_never_misserves(tmp_path, monkeypatch):
    field = builtin_family(NONPRODUCT_2D, 2)
    store = CorrectorCache(tmp_path / "store")
    monkeypatch.setattr(cascade, "_SLAB_NODES", 10 * 64)
    _, first, _ = descend(field, resolution=8, tol=1e-11, cache=store)
    monkeypatch.setattr(cascade, "_SLAB_NODES", 7 * 64)
    again = CorrectorCache(tmp_path / "store")
    _, second, _ = descend(field, resolution=8, tol=1e-11, cache=again)
    assert again.hits == 0 and again.misses == 33 and again.stores == 5
    assert second.cache_hits == 0 and second.cache_misses == 33
    assert np.array_equal(first.values, second.values)
    # the 4 entries of the old bound are unreachable, so clean counts 5
    assert len(list(again.root.rglob("*.json"))) == 9
    assert again.clean() == 5 and not again.root.exists()


# ---------------------------------------------------------------------------
# collapsed levels: one cell solve scaled by the split's scale


def _counting_solves(monkeypatch):
    calls = []
    solve_corrector = cascade.solve_corrector

    def counting(stack):
        calls.append(len(stack.values))
        return solve_corrector(stack)

    monkeypatch.setattr(cascade, "solve_corrector", counting)
    return calls


@pytest.mark.parametrize("text, d, resolution", [
    ("slow_modulated(checkerboard2d(1, 4, 8))", 2, 8),
    ("slow_modulated(checkerboard2d(1, 4, 8))", 2, 32),
    (PRODUCT, 1, 64),
    ("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y3))", 2, 8),
    ("slow_modulated(laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2)), amplitude=0.5, k1=1)", 1, 64),
    ("expr((2+sin(2*pi*x1))*(2+sin(2*pi*y1)*sin(2*pi*y2)))", 2, 8)])
def test_collapsed_level_matches_the_per_sample_oracle(monkeypatch, text, d, resolution):
    field = builtin_family(text, d)
    assert field.split is not None
    kwargs = dict(resolution=resolution, tol=1e-11)
    calls = _counting_solves(monkeypatch)
    _, collapsed, _ = descend(field, **kwargs)
    assert calls == [1]
    # the oracle: the same field without its split solves every sample
    _, oracle, _ = descend(field._replace(split=None), **kwargs)
    assert sum(calls[1:]) == oracle.samples == collapsed.samples > 1
    assert (collapsed.distinct_solves, oracle.distinct_solves) == (1, oracle.samples)
    got, want = collapsed.values, oracle.values
    scale = np.max(np.abs(want), axis=(-2, -1))
    assert np.all(np.max(np.abs(got - want), axis=(-2, -1)) <= 1e-14 * scale)
    assert np.allclose(collapsed.spectrum, oracle.spectrum, rtol=1e-14, atol=0)


@pytest.mark.parametrize("text", [
    "matrix2d(2+sin(2*pi*(x1+y1)), 0.5*sin(2*pi*(y1+y2)), 2+cos(2*pi*y2))",
    "expr(3+sin(2*pi*y1)*cos(2*pi*y3)+cos(2*pi*y2)*sin(2*pi*y4)+0.5*sin(2*pi*(y3+y4)))"])
def test_fields_without_a_split_solve_every_sample(monkeypatch, text):
    field = builtin_family(text, 2)
    assert field.split is None
    kwargs = dict(resolution=8, tol=1e-11, slot_resolution=4)
    calls = _counting_solves(monkeypatch)
    _, record, _ = descend(field, **kwargs)
    assert sum(calls) == record.samples == record.distinct_solves > 1
    # a per-sample run: one cell per slab
    monkeypatch.setattr(cascade, "_SLAB_NODES", 1)
    _, alone, _ = descend(field, **kwargs)
    assert calls[-record.samples:] == [1] * record.samples
    assert np.array_equal(record.values, alone.values)
    assert (record.iterations, record.max_residual) == (alone.iterations, alone.max_residual)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_split_scale_that_is_not_positive_raises(bad):
    field = builtin_family(SLOW_2D, 2)
    scale, fast = field.split

    def broken(x, ys):
        return np.where(x[:, 0] > 0.5, bad, scale(x, ys))

    with pytest.raises(ValueError, match="not a finite positive number"):
        descend(field._replace(split=(broken, fast)), resolution=8, tol=1e-11)


def test_scaled_spectrum_outside_the_ellipticity_window_raises():
    # every scaled sample keeps the [mu, 1/mu] check effective_tensor applies
    field = builtin_family(SLOW_2D, 2)
    scale, fast = field.split
    inflated = field._replace(split=(lambda x, ys: 1e3 * scale(x, ys), fast))
    with pytest.raises(SolverFailure, match="escapes"):
        descend(inflated, resolution=8, tol=1e-11)


def test_collapsed_level_shares_one_corrector_across_samples():
    field = builtin_family(SLOW_2D, 2)
    _, record, table = descend(field, resolution=8, tol=1e-11, retain_correctors=True)
    _, oracle, want = descend(field._replace(split=None), resolution=8, tol=1e-11,
                              retain_correctors=True)
    assert table.values.shape == want.values.shape == (33, 1) + (8, 8, 2)
    assert table.values.strides[0] == 0  # a broadcast of the one solve, not copies
    assert np.max(np.abs(table.values - want.values)) <= 1e-12 * np.max(np.abs(want.values))


def test_collapsed_entry_replays_and_is_evicted_whole(tmp_path):
    field = builtin_family(SLOW_2D, 2)
    store = CorrectorCache(tmp_path / "store")
    _, first, _ = descend(field, resolution=8, tol=1e-11, cache=store)
    (stem,) = [p.with_suffix("") for p in store.root.rglob("*.json")]
    again = CorrectorCache(tmp_path / "store")
    _, replay, _ = descend(field, resolution=8, tol=1e-11, cache=again)
    assert (again.hits, again.misses, again.stores) == (33, 0, 0)
    assert (replay.cache_hits, replay.distinct_solves, replay.max_residual) == (33, 1, None)
    assert replay.iterations == first.iterations
    assert np.array_equal(first.values, replay.values)
    stem.with_suffix(".bin").write_bytes(b"not a grid function")
    damaged = CorrectorCache(tmp_path / "store")
    _, resolved, _ = descend(field, resolution=8, tol=1e-11, cache=damaged)
    assert (damaged.hits, damaged.misses, damaged.stores) == (0, 33, 1)
    assert resolved.cache_misses == 33
    assert np.array_equal(first.values, resolved.values)


# ---------------------------------------------------------------------------
# retained correctors


def test_corrector_table_matches_separable_structure():
    # chi for g(y1)g(y2) at frozen y1 solves in y2 with coefficient c*g(y2),
    # whose corrector is independent of c: one 1D profile repeated everywhere
    field = builtin_family(PRODUCT, 1)
    result = homogenize_all(field, LADDER2, resolution=128, tol=1e-12,
                            retain_correctors=True)
    table = result.corrector_table
    assert table is not None and table.level == 2
    assert table.values.shape == (1, 128, 128, 1)  # (x, y1 sample, cell, component)
    spread = np.max(np.abs(table.values - table.values[:, :1]))
    assert spread < 1e-9
    stack = CellStack.from_sampler(
        lambda y: builtin_family("laminate1d(2+sin(2*pi*y1))", 1)(np.zeros_like(y), [y]),
        d=1, resolution=128, tol=1e-12)
    chi = solve_corrector(stack)[0][0, :, 0]
    assert np.max(np.abs(table.values[0, 0, :, 0] - chi)) < 1e-9


def test_corrector_table_sampling_wraps_and_interpolates():
    field = builtin_family(PRODUCT, 1)
    result = homogenize_all(field, LADDER2, resolution=128, tol=1e-12,
                            retain_correctors=True)
    table = result.corrector_table
    x = np.array([[0.3], [0.3 + LADDER2.scales[1]]])  # one fine period apart
    vals = table.sample(x, LADDER2)
    assert vals.shape == (2, 1)
    x_nodes = (np.arange(8) / 8 * LADDER2.scales[1])[:, None]
    # x = k eps2 / 8 lands on slot node x/eps1 = k/128 and cell node 16k
    exact = table.values[0, np.arange(8), np.arange(8) * 16, 0]
    assert np.allclose(table.sample(x_nodes, LADDER2)[:, 0], exact, atol=1e-12)


# ---------------------------------------------------------------------------
# cache behaviour


def test_second_run_is_served_from_cache(tmp_path):
    field = builtin_family(PRODUCT, 1)
    cache = CorrectorCache(tmp_path / "store")
    first = homogenize_all(field, LADDER2, resolution=64, cache=cache)
    assert cache.hits == 0 and cache.misses == first.levels[0].samples + 1

    cache2 = CorrectorCache(tmp_path / "store")
    second = homogenize_all(field, LADDER2, resolution=64, cache=cache2)
    assert cache2.misses == 0
    assert cache2.hits == sum(lv.samples for lv in second.levels)
    assert np.array_equal(first.effective.tensor, second.effective.tensor)
    assert np.array_equal(first.levels[0].values,
                          second.levels[0].values)


def test_cached_correctors_replay_exactly(tmp_path):
    field = builtin_family(PRODUCT, 1)
    runs = [homogenize_all(field, LADDER2, resolution=64, retain_correctors=True,
                           cache=CorrectorCache(tmp_path / "store")) for _ in range(2)]
    assert runs[1].levels[0].cache_misses == 0
    assert np.array_equal(runs[0].corrector_table.values, runs[1].corrector_table.values)


def test_cache_key_separates_resolution_and_tolerance(tmp_path):
    field = builtin_family(PRODUCT, 1)
    cache = CorrectorCache(tmp_path / "store")
    homogenize_all(field, LADDER2, resolution=64, cache=cache)
    hits = cache.hits
    homogenize_all(field, LADDER2, resolution=32, cache=cache)
    homogenize_all(field, LADDER2, resolution=64, tol=1e-8, cache=cache)
    assert cache.hits == hits  # nothing reused across resolution or tolerance


def _slab_samples(stem) -> int:
    with open(stem.with_suffix(".json")) as fh:
        return len(json.load(fh)["frozen"])


def _replay_without(tmp_path, damage):
    """Fill a cache, damage one entry, then check the replay entry by entry."""
    field = builtin_family(NONPRODUCT, 1)
    cache = CorrectorCache(tmp_path / "store")
    reference = homogenize_all(field, LADDER2, resolution=64, cache=cache)
    stem = sorted(cache.root.rglob("*.json"))[0].with_suffix("")
    victim = _slab_samples(stem)
    damage(stem)
    cache2 = CorrectorCache(tmp_path / "store")
    replay = homogenize_all(field, LADDER2, resolution=64, cache=cache2)
    total = sum(lv.samples for lv in replay.levels)
    # the victim slab's samples miss and land again as one entry; every other slab hits
    assert cache2.misses == victim and cache2.stores == 1
    assert cache2.hits == total - victim
    assert _slab_samples(stem) == victim
    for a, b in zip(reference.levels, replay.levels):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(reference.effective.tensor, replay.effective.tensor)


def test_corrupt_entry_is_evicted_and_resolved(tmp_path):
    _replay_without(tmp_path, lambda stem: stem.with_suffix(".bin").write_bytes(
        b"not a grid function"))


def test_incomplete_entry_counts_as_miss(tmp_path):
    _replay_without(tmp_path, lambda stem: stem.with_suffix(".json").unlink())


@pytest.mark.parametrize("key", ["frozen", "resolution", "tol", "shape", "tensor", "bin"])
def test_sidecar_disagreeing_with_request_is_evicted(tmp_path, key):
    def edit(stem):
        sidecar = json.loads(stem.with_suffix(".json").read_text())
        if key == "frozen":
            sidecar["frozen"][0][0] += 0.5
        elif key == "resolution":
            sidecar["resolution"] = [32]
        elif key == "tol":
            sidecar["tol"] = 1e-8
        elif key == "shape":  # same payload size, another stack shape
            sidecar["shape"] = [int(np.prod(sidecar["shape"])), 1]
        elif key == "tensor":
            sidecar["tensor"].pop()
        stem.with_suffix(".json").write_text(json.dumps(sidecar))
        if key == "bin":
            with open(stem.with_suffix(".bin"), "ab") as fh:
                fh.write(bytes(8))

    _replay_without(tmp_path, edit)


def test_clean_removes_the_store(tmp_path):
    field = builtin_family(PRODUCT, 1)
    cache = CorrectorCache(tmp_path / "store")
    homogenize_all(field, LADDER2, resolution=32, cache=cache)
    removed = cache.clean()
    assert removed == cache.stores
    assert not cache.root.exists()


def test_fields_without_digest_bypass_the_cache(tmp_path):
    from reiterate.coeff import CoefficientField

    base = builtin_family(PRODUCT, 1)
    anon = CoefficientField(d=1, n_scales=2, evaluator=base.evaluator, mu=base.mu)
    cache = CorrectorCache(tmp_path / "store")
    homogenize_all(anon, LADDER2, resolution=32, cache=cache)
    assert cache.hits == cache.misses == cache.stores == 0
    assert not cache.root.exists()
