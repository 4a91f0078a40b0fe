import re
from pathlib import Path

import pytest

from reiterate.config import (
    SCHEMA,
    parse_config,
    parse_number,
    parse_number_list,
)
from reiterate.errors import ConfigError
from reiterate.grid import Grid


def write(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


MINIMAL = """
field = constant(3)
dim = 1
eps = 1/8
"""

PRODUCT = """
field = laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))
dim = 1
eps = 1/8, 1/16
"""


def test_number_grammar():
    assert parse_number("2^-5") == 1 / 32
    assert parse_number("2^3") == 8.0
    assert parse_number("3/4") == 0.75
    assert parse_number("1e-3") == 1e-3
    assert parse_number(" 42 ") == 42.0
    assert parse_number_list("1/2, 1/4 , 1/8") == (0.5, 0.25, 0.125)
    with pytest.raises(ValueError):
        parse_number("2**5")


def test_minimal_config_parses(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    assert cfg.d == 1
    assert cfg.eps_values == (0.125,)
    # a constant field defaults to a one-rung ladder
    assert [ladder.scales for ladder in cfg.ladders] == [(0.125,)]
    assert cfg.rhs_source == "1"
    assert cfg.boundary_source == "0"
    assert cfg.out == "runs"


def test_comments_and_blank_lines_ignored(tmp_path):
    cfg = parse_config(write(tmp_path, """
# leading comment
field = constant(2)   # trailing comment

dim = 1
eps = 1/4
"""))
    assert cfg.field_source == "constant(2)"


@pytest.mark.parametrize("line, key", [
    pytest.param("fild = constant(1)", "fild", id="fild"),
    pytest.param("jobs = 2", "jobs", id="jobs"),
    pytest.param("seed = 0", "seed", id="seed"),
    pytest.param("probe.alpha = 0.5", "probe.alpha", id="probe.alpha"),
])
def test_unknown_key_named(tmp_path, line, key):
    with pytest.raises(ConfigError, match=f"key '{key}': unknown"):
        parse_config(write(tmp_path, MINIMAL + line + "\n"))


def test_all_violations_collected(tmp_path):
    try:
        parse_config(write(tmp_path, """
field = constant(3)
dim = 7
eps = 3, 1/8
bogus = 1
jobs = 0
"""))
    except ConfigError as exc:
        message = str(exc)
    else:
        pytest.fail("expected ConfigError")
    assert "key 'dim'" in message
    assert "key 'eps'" in message
    assert "key 'bogus'" in message
    assert "key 'jobs'" in message


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="assigned twice"):
        parse_config(write(tmp_path, MINIMAL + "eps = 1/4\n"))


def test_ladder_ordering_error_names_the_invariant(tmp_path):
    with pytest.raises(ConfigError, match="decrease strictly"):
        parse_config(write(tmp_path, """
field = constant(3)
dim = 1
scales = 1/4, 1/2
"""))


SQUARE = """
field = checkerboard2d(1, 4, 8)
dim = 2
eps = 1/8
"""


@pytest.mark.parametrize("base, line", [
    pytest.param(MINIMAL, "dim = 3", id="dim"),
    pytest.param(MINIMAL, "dim = two", id="dim-text"),
    pytest.param(MINIMAL, "eps = 3, 1/8", id="eps"),
    pytest.param(PRODUCT, "lambdas = 2, 1", id="lambdas"),
    pytest.param(PRODUCT, "lambdas = 1, 1", id="lambdas-repeated"),
    pytest.param(PRODUCT, "separation_n = 0", id="separation_n"),
    pytest.param(PRODUCT.replace("eps = 1/8, 1/16", "scales = 1/4, 1/16"),
                 "separation_n = -2", id="separation_n-scales"),
    pytest.param(MINIMAL, "domain = 1, 0", id="domain"),
    pytest.param(MINIMAL, "domain = 0, inf", id="domain-infinite"),
    pytest.param(MINIMAL, "resolution = 1", id="resolution"),
    pytest.param(MINIMAL, "resolution = 1e999", id="resolution-infinite"),
    pytest.param(MINIMAL, "cells_per_scale = 4", id="cells_per_scale"),
    pytest.param(MINIMAL, "cell.resolution = 4", id="cell.resolution"),
    pytest.param(MINIMAL, "probe.p = 1", id="probe.p"),
    pytest.param(MINIMAL, "probe.theta = 2", id="probe.theta"),
    pytest.param(MINIMAL, "probe.center = 0.5, 0.5", id="probe.center-count"),
    pytest.param(MINIMAL, "probe.center = 2", id="probe.center-outside"),
    pytest.param(MINIMAL, "probe.radius = 0", id="probe.radius"),
    pytest.param(MINIMAL, "probe.radius = inf", id="probe.radius-infinite"),
    pytest.param(MINIMAL, "probe.rho = -1", id="probe.rho"),
    pytest.param(MINIMAL, "probe.t = 1/5", id="probe.t"),
    pytest.param(SQUARE, "cell.tol = 1", id="cell.tol"),
    pytest.param(SQUARE, "tol.solver = 0", id="tol.solver"),
])
def test_checked_key_is_blamed_on_itself(tmp_path, base, line):
    key, value = line.split(" = ")
    # the bad line replaces the base's own assignment of the key
    kept = [row for row in base.splitlines() if not row.startswith(key + " =")]
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "\n".join(kept + [line]) + "\n"))
    message = str(err.value)
    assert f"key {key!r}: got {value}; expected {SCHEMA[key][0]}" in message
    assert re.findall(r"key '([^']+)'", message) == [key]


def test_cells_per_scale_rejected_with_resolution(tmp_path):
    # with resolution set, the grid never reads cells_per_scale
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, MINIMAL + "resolution = 256\n"
                                                "cells_per_scale = 32\n"))
    message = str(err.value)
    assert "give resolution or cells_per_scale, not both" in message
    assert re.findall(r"key '([^']+)'", message) == ["cells_per_scale"]


def test_scales_conflict_with_eps(tmp_path):
    with pytest.raises(ConfigError, match="not both"):
        parse_config(write(tmp_path, MINIMAL + "scales = 1/8\n"))


def test_lambdas_default_to_slot_count(tmp_path):
    cfg = parse_config(write(tmp_path, PRODUCT))
    # lambdas = 1, 2: scale k is eps^k
    assert [ladder.scales for ladder in cfg.ladders] == [(1 / 8, 1 / 64),
                                                         (1 / 16, 1 / 256)]


def test_lambdas_must_match_slots(tmp_path):
    with pytest.raises(ConfigError, match="2 fast slots"):
        parse_config(write(tmp_path, PRODUCT + "lambdas = 1\n"))


def test_scales_must_match_slots(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config(write(tmp_path, "field = laminate1d(2+sin(2*pi*y1))\n"
                                     "dim = 1\nscales = 0.5, 0.25\n"))
    message = str(err.value)
    assert "ladder has 2 scales but the field has 1 fast slots" in message
    assert re.findall(r"key '([^']+)'", message) == ["scales"]


def test_rhs_expression_evaluates(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "bvp.rhs = sin(2*pi*x1)\n"))
    grid = Grid.box(0.0, 1.0, 16)
    bvp = cfg.bvp_for(grid)
    # quarter-period node carries the crest
    assert bvp.rhs.values[4] == pytest.approx(1.0)


def test_bad_expression_names_key(tmp_path):
    with pytest.raises(ConfigError, match="key 'bvp.rhs'"):
        parse_config(write(tmp_path, MINIMAL + "bvp.rhs = tan(x1)\n"))
    with pytest.raises(ConfigError, match="key 'bvp.boundary'"):
        parse_config(write(tmp_path, MINIMAL + "bvp.boundary = y1\n"))


def test_infeasible_resolution_reports_requirement(tmp_path):
    with pytest.raises(ConfigError, match="need at least 256 cells"):
        parse_config(write(tmp_path, """
field = laminate1d(2+sin(2*pi*y1))
dim = 1
eps = 1/32
resolution = 64
"""))


def test_memory_limit_guards_huge_grids(tmp_path):
    with pytest.raises(ConfigError, match="GiB") as err:
        parse_config(write(tmp_path, """
field = checkerboard2d(1, 4, 8)
dim = 2
eps = 2^-14
"""))
    # eps alone sized the grid: 16 cells across 2^-14
    assert re.findall(r"key '([^']+)'", str(err.value)) == ["eps"]


@pytest.mark.parametrize("lines, key", [
    pytest.param("eps = 1/8\nresolution = 262144\n", "resolution", id="resolution"),
    pytest.param("eps = 1/8\ncells_per_scale = 32768\n", "cells_per_scale",
                 id="cells_per_scale"),
    pytest.param("scales = 2^-14\n", "scales", id="scales"),
])
def test_grid_size_failure_blames_the_key_that_set_the_grid(tmp_path, lines, key):
    with pytest.raises(ConfigError, match="262144 cells per axis") as err:
        parse_config(write(tmp_path, "field = checkerboard2d(1, 4, 8)\ndim = 2\n"
                                     + lines))
    assert re.findall(r"key '([^']+)'", str(err.value)) == [key]


def test_feasibility_precomputed(tmp_path):
    cfg = parse_config(write(tmp_path, PRODUCT))
    # 16 cells across the finest scale 1/64
    assert cfg.resolution_for(cfg.ladders[0]) == 1024


def test_probe_t_restricted_to_candidates(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "probe.t = 1/32\n"))
    assert cfg.probe["t"] == 1 / 32
    with pytest.raises(ConfigError, match="key 'probe.t'"):
        parse_config(write(tmp_path, MINIMAL + "probe.t = 1/5\n"))


def test_probe_defaults_follow_domain(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL + "domain = 0, 2\n"))
    assert cfg.probe_center() == (1.0,)
    assert cfg.probe_radius() == 0.5
    cfg = parse_config(write(tmp_path, MINIMAL + "probe.center = 0.25\n"
                                                 "probe.radius = 1/8\n"))
    assert cfg.probe_center() == (0.25,)
    assert cfg.probe_radius() == 0.125


def test_digest_tracks_content(tmp_path):
    a = parse_config(write(tmp_path, MINIMAL))
    b = parse_config(write(tmp_path, MINIMAL))
    assert a.digest() == b.digest()
    c = parse_config(write(tmp_path, MINIMAL + "bvp.rhs = 2\n"))
    assert c.digest() != a.digest()


def test_cache_resolution_order(tmp_path, monkeypatch):
    cfg = parse_config(write(tmp_path, MINIMAL + "cache = from-config\n"))
    monkeypatch.delenv("REITERATE_CACHE", raising=False)
    assert cfg.resolved_cache_dir() == "from-config"
    monkeypatch.setenv("REITERATE_CACHE", "from-env")
    assert cfg.resolved_cache_dir() == "from-env"
    bare = parse_config(write(tmp_path, MINIMAL))
    monkeypatch.delenv("REITERATE_CACHE", raising=False)
    assert bare.resolved_cache_dir() == ".reiterate-cache"


def test_overrides_replace_out(tmp_path):
    cfg = parse_config(write(tmp_path, MINIMAL))
    cfg2 = cfg.with_overrides(out="elsewhere")
    assert cfg2.out == "elsewhere"
    assert cfg.out == "runs"  # original untouched


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/exp.cfg")


def test_readme_lists_exactly_the_schema_keys():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    table = text.split("### Config keys", 1)[1].split("\n\n| key", 1)[1]
    rows = table.split("\n\n", 1)[0].splitlines()[2:]
    keys = [re.match(r"\| `([^`]+)`", row).group(1) for row in rows]
    assert sorted(keys) == sorted(SCHEMA)
    assert len(keys) == len(set(keys))


SLOW_X = """
field = slow_modulated(laminate1d(2+sin(2*pi*y1)), amplitude=0.5, k1=1)
dim = 1
eps = 1/8
"""


def test_homogenized_x_table_spans_the_domain(tmp_path):
    # A_hat(x) = sqrt(3) (2 + sin(2 pi x) / 2): 2.5 sqrt(3) at x = 1.25,
    # where a table on [0, 1] clamps to A_hat(1) = 2 sqrt(3)
    wide = parse_config(write(tmp_path, SLOW_X + "domain = 0, 1.5\n")).homogenize()
    assert wide.effective_field([[1.25]], [])[0, 0, 0] == pytest.approx(
        2.5 * 3 ** 0.5, abs=1e-2)
    unit = parse_config(write(tmp_path, SLOW_X)).homogenize()
    # unit-domain descended digests keep the keys they had before the span
    assert unit.effective_field.digest() == "e902946e552dcc7f"
    assert wide.effective_field.digest() != unit.effective_field.digest()


def test_field_range_is_sampled_over_the_configured_domain(tmp_path):
    # 1.2 - x1 + 0.1 sin(2 pi y1) is positive on [0, 1] but not on [0, 1.5]
    text = "field = expr(1.2-x1+0.1*sin(2*pi*y1))\ndim = 1\neps = 1/8\n"
    unit = parse_config(write(tmp_path, text))
    assert 0.1 <= unit.field.mu <= 0.11
    with pytest.raises(ConfigError, match="key 'field': coefficient ranges over") as err:
        parse_config(write(tmp_path, text + "domain = 0, 1.5\n"))
    assert re.findall(r"key '([^']+)'", str(err.value)) == ["field"]
