"""Coefficient families, ladders, and sampled invariants."""

import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reiterate import coeff
from reiterate.cache import _entry_key
from reiterate.cascade import _descended_digest
from reiterate.coeff import (
    CoefficientSpec,
    ScaleLadder,
    builtin_family,
    check_separation,
    evaluate_multiscale,
    hex_digest,
)
from reiterate.config import parse_config
from reiterate.errors import ConfigError


# ---------------------------------------------------------------------------
# ladders and separation


def test_ladder_requires_strict_decrease():
    with pytest.raises(ValueError):
        ScaleLadder((0.5, 0.5))
    with pytest.raises(ValueError):
        ScaleLadder((1.5,))
    with pytest.raises(ValueError):
        ScaleLadder((0.25, 0.5))


def test_power_ladder_has_zero_slack_at_N_1():
    ladder = ScaleLadder.power(1 / 16, [1, 2], N=1)
    satisfied, slack = check_separation(ladder)
    assert satisfied
    assert slack == pytest.approx((0.0,), abs=1e-12)


def test_log_corrected_pair_violates_separation():
    eps = 1e-3
    ladder = ScaleLadder((eps, eps / (abs(np.log(eps)) + 1)), N=1)
    satisfied, slack = check_separation(ladder)
    assert not satisfied
    assert slack[0] < 0


def test_three_scale_power_ladder_satisfied_at_N_2():
    ladder = ScaleLadder.power(1 / 32, [1, 2, 4], N=2)
    satisfied, slack = check_separation(ladder)
    assert satisfied
    assert all(s > 0 for s in slack)


def test_separation_requires_N():
    with pytest.raises(ValueError):
        check_separation(ScaleLadder((0.5, 0.25)))


# ---------------------------------------------------------------------------
# spec grammar


def test_spec_roundtrip_through_canonical_string():
    for text in (
        "laminate1d(2+sin(2*pi*y1))",
        "laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))",
        "checkerboard2d(1, 4, 8)",
        "slow_modulated(laminate1d(2+sin(2*pi*y1)), offset=2, amplitude=1, k1=1)",
        "expr((2+sin(2*pi*y1))*(2+cos(2*pi*x1)))",
        "matrix2d(2+sin(2*pi*y1), 0, 3+cos(2*pi*y1))",
    ):
        spec = CoefficientSpec.parse(text)
        again = CoefficientSpec.parse(spec.canonical())
        assert again == spec
        assert again.canonical() == spec.canonical()


def test_spec_rejects_unknown_family():
    with pytest.raises(ConfigError):
        CoefficientSpec.parse("mystery(1,2)")


def test_expression_grammar_rejects_disallowed_constructs():
    with pytest.raises(ConfigError):
        builtin_family("laminate1d(2**8 + y1)", 1)
    with pytest.raises(ConfigError):
        builtin_family("laminate1d(__import__)", 1)
    with pytest.raises(ConfigError):
        builtin_family("laminate1d(tan(y1))", 1)


# ---------------------------------------------------------------------------
# families


def test_laminate_metadata_matches_range():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    assert field.mu == pytest.approx(1 / 3, rel=1e-3)
    assert field.n_scales == 1 and not field.depends_on_x


def test_laminate_rejects_sign_changing_factor():
    with pytest.raises(ConfigError):
        builtin_family("laminate1d(sin(2*pi*y1))", 1)


def test_laminate_product_structure():
    field = builtin_family("laminate1d(2+sin(2*pi*y1), 2+cos(2*pi*y2))", 1)
    x = np.array([[0.3]])
    y1 = np.array([[0.1]])
    y2 = np.array([[0.7]])
    got = field(x, [y1, y2])[0, 0, 0]
    expected = (2 + np.sin(2 * np.pi * 0.1)) * (2 + np.cos(2 * np.pi * 0.7))
    assert got == pytest.approx(expected, rel=1e-14)


def test_laminate_2d_is_isotropic_profile_of_first_coordinate():
    field = builtin_family("laminate1d(2+sin(2*pi*y1))", 2)
    y = np.array([[0.2, 0.9]])
    a = field(np.zeros((1, 2)), [y])
    v = 2 + np.sin(2 * np.pi * 0.2)
    assert a[0] == pytest.approx(np.diag([v, v]))


def test_checkerboard_eigenvalues_inside_phase_interval():
    for sharp in (1.0, 4.0, 16.0):
        field = builtin_family(f"checkerboard2d(1, 4, {sharp})", 2)
        rng = np.random.default_rng(0)
        y = rng.uniform(0, 1, (4000, 2))
        vals = field(np.zeros((4000, 2)), [y])
        diag = vals[:, 0, 0]
        assert diag.min() > 1.0 and diag.max() < 4.0
        assert np.allclose(vals[:, 0, 1], 0.0)


def test_checkerboard_quarter_rotation_swaps_phases():
    # a(Ry) * a(y) = a1*a2 exactly for the self-dual profile
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    rng = np.random.default_rng(1)
    y = rng.uniform(0, 1, (500, 2))
    rot = np.stack([-y[:, 1], y[:, 0]], axis=1)
    a = field(np.zeros((500, 2)), [y])[:, 0, 0]
    ar = field(np.zeros((500, 2)), [rot])[:, 0, 0]
    assert np.allclose(a * ar, 4.0, rtol=1e-12)


def test_checkerboard_is_its_expr_spelling():
    # g = sqrt(a1 a2) and t = log(a2/a1)/2, written as repr floats
    g, t = repr(math.sqrt(4.0)), repr(0.5 * math.log(4.0))
    spelled = builtin_family(
        f"expr({g}*exp({t}*tanh(8.0*(sin(2*pi*y1)*sin(2*pi*y2)))))", 2)
    field = builtin_family("checkerboard2d(1, 4, 8)", 2)
    y = np.random.default_rng(5).uniform(0, 1, (200, 2))
    assert np.array_equal(field(np.zeros((200, 2)), [y]), spelled(np.zeros((200, 2)), [y]))


@pytest.mark.parametrize("spec, d, splits", [
    ("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))", 1, True),
    ("laminate1d(2+sin(2*pi*y1))", 1, False),
    ("slow_modulated(checkerboard2d(1, 4, 8), k1=1)", 2, True),
    ("slow_modulated(expr(2+sin(2*pi*x2)*sin(2*pi*y1)), k1=1)", 2, False),
    ("expr((2+sin(2*pi*y1))*(2+sin(2*pi*y2)))", 1, True),
    ("expr((2+sin(2*pi*x1))*(2+sin(2*pi*y1)*sin(2*pi*y2)))", 2, True),
    ("expr((2+sin(2*pi*y1))*(2+sin(2*pi*(x1+y2))))", 1, False),  # fast reads x
    ("expr((2+sin(2*pi*y1))*(2+sin(2*pi*(y1+y2))))", 1, False),  # fast reads y1
    ("expr(2+sin(2*pi*(y1+y2)))", 1, False),  # a sum
    ("matrix2d(2+x1, 0, 2+sin(2*pi*y2))", 2, False),
])
def test_split_exists_when_the_fastest_slot_factors_out(spec, d, splits):
    field = builtin_family(spec, d)
    assert (field.split is not None) == splits
    if splits:
        scale, fast = field.split
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, (50, d))
        ys = [rng.uniform(0, 1, (50, d)) for _ in range(field.n_scales)]
        product = scale(x, ys[:-1])[:, None, None] * fast(np.zeros((50, d)), ys[-1:])
        assert np.allclose(product, field(x, ys), rtol=1e-14, atol=0)
        assert fast.n_scales == 1 and not fast.depends_on_x
        assert fast.digest() != field.digest()


def test_constant_expression_evaluates_per_point():
    field = builtin_family("expr(3)", 2)
    assert field.n_scales == 0 and field.mu == pytest.approx(1 / 3)
    assert np.array_equal(field(np.zeros((4, 2)), []), np.broadcast_to(3 * np.eye(2), (4, 2, 2)))


@pytest.mark.parametrize("spec", ["constant(nan)", "constant(inf)", "laminate1d(1e400+0*y1)",
                                  "expr(2+0*y1/(y1-y1))", "checkerboard2d(1, inf, 8)"])
def test_non_finite_coefficients_are_rejected(spec):
    with pytest.raises(ConfigError):
        builtin_family(spec, 2)


def test_slow_modulated_requires_positive_floor():
    with pytest.raises(ConfigError):
        builtin_family("slow_modulated(laminate1d(2+sin(2*pi*y1)), offset=1, amplitude=2)", 1)


@pytest.mark.parametrize("spec, d, axes", [
    ("slow_modulated(laminate1d(2+sin(2*pi*y1)), k1=1)", 2, (0,)),
    ("slow_modulated(laminate1d(2+sin(2*pi*y1)), k1=0, k2=2)", 2, (1,)),
    ("slow_modulated(laminate1d(2+sin(2*pi*y1)), k1=1, k2=1)", 2, (0, 1)),
    ("slow_modulated(expr(2+sin(2*pi*x2)*sin(2*pi*y1)), k1=1)", 2, (0, 1)),
    ("expr(2+sin(2*pi*x2)+sin(2*pi*y1))", 2, (1,)),
    ("expr(2+exp(sin(2*pi*y1)))", 2, ()),
    ("matrix2d(2+x1, 0, 2+sin(2*pi*y2))", 2, (0,)),
])
def test_depends_on_x_names_the_axes_read(spec, d, axes):
    assert builtin_family(spec, d).depends_on_x == axes


def test_slow_modulated_depends_on_x():
    field = builtin_family(
        "slow_modulated(laminate1d(2+sin(2*pi*y1)), offset=2, amplitude=1, k1=1)", 1)
    assert field.depends_on_x
    x = np.array([[0.25]])
    y = np.array([[0.0]])
    got = field(x, [y])[0, 0, 0]
    assert got == pytest.approx((2 + 1 * np.sin(2 * np.pi * 0.25)) * 2.0, rel=1e-14)


def test_matrix2d_symmetric_output():
    field = builtin_family("matrix2d(2+sin(2*pi*y1), 0.2*cos(2*pi*y1), 3)", 2)
    rng = np.random.default_rng(2)
    y = rng.uniform(0, 1, (100, 2))
    a = field(np.zeros((100, 2)), [y])
    assert np.allclose(a[:, 0, 1], a[:, 1, 0])


def test_matrix2d_rejects_indefinite():
    with pytest.raises(ConfigError):
        builtin_family("matrix2d(1, 2, 1)", 2)


def test_rotated_laminate_range_is_exact():
    # eigenvalues 4 and 2 + sin(2 pi (y1 + y2)): the closed-form spectrum reads
    # 4 to the bit (mid -+ sqrt(mid^2 - det) read 4.000000000000001)
    rotated = ("matrix2d((6+sin(2*pi*(y1+y2)))/2, (sin(2*pi*(y1+y2))-2)/2, "
               "(6+sin(2*pi*(y1+y2)))/2)")
    assert builtin_family(rotated, 2).mu == 0.25


def test_constant_family_and_trivial_scales():
    field = builtin_family("constant(2)", 2)
    ladder = ScaleLadder((0.1,))
    a = evaluate_multiscale(field, ladder, np.array([[0.3, 0.4]]))
    assert a[0] == pytest.approx(2 * np.eye(2))


@settings(max_examples=15, deadline=None)
@given(eps=st.floats(min_value=0.01, max_value=0.45),
       lam=st.integers(min_value=2, max_value=4))
def test_power_ladders_with_unit_N_are_always_separated(eps, lam):
    ladder = ScaleLadder.power(eps, [1, lam], N=1)
    assert check_separation(ladder)[0]


def test_evaluate_multiscale_matches_direct_substitution():
    field = builtin_family("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))", 1)
    ladder = ScaleLadder((1 / 4, 1 / 16))
    x = np.linspace(0, 1, 7)[:, None]
    a = evaluate_multiscale(field, ladder, x)
    expected = (2 + np.sin(2 * np.pi * x[:, 0] * 4)) * (2 + np.sin(2 * np.pi * x[:, 0] * 16))
    assert np.allclose(a[:, 0, 0], expected, rtol=1e-13)


def test_field_digest_is_stable_and_spec_dependent():
    f1 = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    f2 = builtin_family("laminate1d(2+sin(2*pi*y1))", 1)
    f3 = builtin_family("laminate1d(2+cos(2*pi*y1))", 1)
    assert f1.digest() == f2.digest()
    assert f1.digest() != f3.digest()


# ---------------------------------------------------------------------------
# digests: the interpreter's SHA-256 gives hashlib's bytes


TEXTS = ["", "laminate1d(2+sin(2*pi*y1))|d=1", "ε₁ = 1/4 · Â"]


def _hashlib_digest(text, n):
    return hashlib.sha256(text.encode()).hexdigest()[:n]


def test_digests_use_the_builtin_sha256():
    builtin = pytest.importorskip("_sha2" if sys.version_info >= (3, 12) else "_sha256")
    assert coeff._SHA256 is builtin.sha256


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("text", TEXTS, ids=["empty", "ascii", "non-ascii"])
def test_hex_digest_equals_hashlib(text, n):
    assert hex_digest(text, n) == _hashlib_digest(text, n)
    assert len(hex_digest(text, n)) == n


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("text", TEXTS, ids=["empty", "ascii", "non-ascii"])
def test_hex_digest_falls_back_to_hashlib(monkeypatch, text, n):
    # a None entry makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    monkeypatch.setattr(coeff, "_SHA256", coeff._sha256())
    assert coeff._SHA256 is hashlib.sha256
    assert hex_digest(text, n) == _hashlib_digest(text, n)


def test_digests_keep_their_values(tmp_path):
    # cache directory names and keys: a changed value strands every cache
    spec = "laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))"
    assert CoefficientSpec.parse(spec).digest(1) == "8ec9b433769bf845"
    assert _entry_key(1, [(0.25, 0.5)], 256, 1e-11, 1) == "1e4cdd4f002e7289a3f719e4"
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"field = {spec}\ndim = 1\neps = 1/4\ncell.resolution = 256\n")
    assert parse_config(str(cfg)).digest() == "41145dd802de57d3"
    # the cascade-2d benchmark field at seed 0 and its fast factor's directory
    field = builtin_family("slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, "
                           "k1=1, k2=1)", 2)
    assert field.digest() == "269e7c3109422561"
    assert field.split[1].digest() == "db8ae28a460cb8cd"
    assert _descended_digest(field.digest(), 1, 8, 1e-11, (33, 33),
                             (0.0, 1.0)) == "c9e12b019459cdbc"


# ---------------------------------------------------------------------------
# closed-form spectra and range points


def _symmetric_stack(kind: str, n: int = 100_000) -> np.ndarray:
    """n symmetric 2x2 tensors of one kind, shape (n, 2, 2)."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    a, b, c = rng.uniform(0.1, 10.0, n), rng.normal(size=n), rng.uniform(0.1, 10.0, n)
    if kind == "indefinite":
        a, c = rng.normal(size=n), rng.normal(size=n)
    elif kind == "diagonal":
        b = np.zeros(n)
    elif kind == "tiny-off-diagonal":
        b = 1e-17 * b
    elif kind == "equal-diagonal":
        c = a
    elif kind == "ill-conditioned":  # det a c - b^2 near zero
        b = np.sqrt(a * c) * (1.0 - 1e-12 * rng.random(n))
    elif kind == "split-threshold":  # within 8 ulp of dsterf's split tests
        b = np.sqrt(a) * np.sqrt(c) * 2.0 ** -53 * (1.0 + rng.integers(-8, 9, n) * 2.0 ** -52)
    return np.stack([a, b, b, c], axis=-1).reshape(n, 2, 2)


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


SPECTRUM_KINDS = ["general", "indefinite", "diagonal", "tiny-off-diagonal", "equal-diagonal",
                  "ill-conditioned", "split-threshold"]


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_spectrum_equals_eigvalsh_bitwise(kind):
    # LAPACK's dsterf, the reference: the closed form repeats its 2x2 step
    t = _symmetric_stack(kind)
    got = coeff.spectrum(t)
    assert got.shape == (len(t), 2)
    assert np.array_equal(_bits(got), _bits(np.linalg.eigvalsh(t)[:, [0, -1]]))


@pytest.mark.parametrize("kind", SPECTRUM_KINDS)
def test_spectrum_scales_and_ignores_the_axis_order_bitwise(kind):
    t = _symmetric_stack(kind)
    got = coeff.spectrum(t)
    assert np.array_equal(_bits(coeff.spectrum(t[:, ::-1, ::-1])), _bits(got))
    if kind != "split-threshold":
        # there sqrt(2a) sqrt(2c) and 2 sqrt(a) sqrt(c) round apart, and
        # eigvalsh itself does not scale bitwise (185 of 1e5 tensors)
        assert np.array_equal(_bits(coeff.spectrum(2 * t)), _bits(2 * got))


def test_spectrum_reads_the_lower_triangle_as_eigvalsh_does():
    t = _symmetric_stack("general")
    t[:, 0, 1] = np.random.default_rng(8).normal(size=len(t))
    assert np.array_equal(_bits(coeff.spectrum(t)), _bits(np.linalg.eigvalsh(t)[:, [0, -1]]))


def test_spectrum_of_1x1_stacks_is_the_entry_twice():
    t = np.random.default_rng(9).normal(size=(100_000, 1, 1))
    assert np.array_equal(_bits(coeff.spectrum(t)), _bits(np.linalg.eigvalsh(t)[:, [0, -1]]))
    assert coeff.spectrum(np.array([[2.5]])).tolist() == [2.5, 2.5]


def test_range_points_are_roberts_kronecker_sequence():
    golden = (1 + math.sqrt(5)) / 2  # R_1: z^2 = z + 1
    assert np.allclose(coeff._kronecker(1, 3)[0], [(0.5 + k / golden) % 1 for k in (1, 2, 3)],
                       rtol=0, atol=1e-15)
    for m in range(1, 2 + 2 * 9 + 1):  # up to x1, x2 and nine 2D slots
        u = coeff._kronecker(m, 20_000)
        assert u.shape == (m, 20_000) and ((0 <= u) & (u < 1)).all()
        # the midpoint is a pole of some test fields; k = 0 would sit on it
        assert not (u == 0.5).any()
