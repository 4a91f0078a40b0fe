import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from reiterate.cli import THREAD_VARS, main
from reiterate.grid import load_gridfunction

SINGLE = """field = laminate1d(2+sin(2*pi*y1))
dim = 1
eps = 1/8
cell.resolution = 64
bvp.boundary = x1
"""

PRODUCT = """field = laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))
dim = 1
eps = 1/8
cell.resolution = 128
"""

LAMINATE = """field = laminate1d(2+sin(2*pi*y1))
dim = 1
eps = 1/8, 1/16
"""

CHECKERBOARD = """field = checkerboard2d(1, 4, 8)
dim = 2
eps = 1/4, 1/8
"""

# A_hat keeps the slow factor 2 + sin(2 pi x1)/2: no constant tensor exists
SLOW = "field = slow_modulated(laminate1d(2+sin(2*pi*y1)), amplitude=0.5, k1=1)\n"

# the benchmark's certify config: the first ladder's grid is 256^2
CERTIFY_2D = """field = laminate1d(2+sin(2*pi*y1))
dim = 2
eps = 1/16
bvp.rhs = 1
bvp.boundary = sin(pi*x1)
"""


def setup(tmp_path, text, name="exp.cfg"):
    cfg = tmp_path / name
    full = text + f"out = {tmp_path / 'out'}\ncache = {tmp_path / 'cache'}\n"
    cfg.write_text(full)
    return str(cfg), tmp_path / "out"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cascade_prints_nested_tensor(tmp_path, capsys):
    cfg, out = setup(tmp_path, PRODUCT)
    code, stdout, _ = run(["cascade", "--config", cfg], capsys)
    assert code == 0
    assert "A_hat = 3.000" in stdout
    summary = json.loads((out / "cascade.json").read_text())
    assert summary["effective_tensor"][0][0] == pytest.approx(3.0, abs=1e-3)
    assert summary["cache_hit_rate"] == 0.0


def test_cascade_second_run_hits_cache(tmp_path, capsys):
    cfg, out = setup(tmp_path, PRODUCT)
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    code, stdout, _ = run(["cascade", "--config", cfg], capsys)
    assert code == 0
    summary = json.loads((out / "cascade.json").read_text())
    assert summary["cache_hit_rate"] >= 0.9
    assert "cache hit rate 100.0%" in stdout


def test_rate_csv_rfc4180_and_deterministic(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE.replace("eps = 1/8", "eps = 1/8, 1/16"))
    assert run(["rate", "--config", cfg], capsys)[0] == 0
    first = (out / "rate.csv").read_bytes()
    lines = first.split(b"\r\n")
    assert lines[0] == b"eps,eps_rate_expr,l2_error,slope_so_far"
    assert len(lines) == 4  # header + 2 rows + trailing record end
    assert b"," in lines[1] and b"." in lines[1]
    assert run(["rate", "--config", cfg], capsys)[0] == 0
    assert (out / "rate.csv").read_bytes() == first
    manifest = json.loads((out / "manifest-rate.json").read_text())
    assert any("only 2 scales" in w for w in manifest["warnings"])


@pytest.mark.parametrize("base, extra", [
    pytest.param(CHECKERBOARD, "cell.tol = 1e-6\n", id="checkerboard-cell.tol"),
    pytest.param(CHECKERBOARD, "cell.resolution = 16\n",
                 id="checkerboard-cell.resolution"),
])
def test_rate_honours_cell_keys(tmp_path, capsys, base, extra):
    tables = []
    for name, text in (("default", base), ("changed", base + extra)):
        (tmp_path / name).mkdir()
        cfg, out = setup(tmp_path / name, text)
        assert run(["rate", "--config", cfg], capsys)[0] == 0
        tables.append((out / "rate.csv").read_bytes())
    assert tables[0] != tables[1]


def test_cell_tol_rejected_in_1d(tmp_path, capsys):
    # 1D correctors and 1D boxes are solved exactly, so a tolerance for
    # either would change nothing
    for key, value in (("cell.tol", "1e-6"), ("tol.solver", "1e-5")):
        (tmp_path / key).mkdir()
        cfg, _ = setup(tmp_path / key, LAMINATE + f"{key} = {value}\n")
        code, _, err = run(["rate", "--config", cfg], capsys)
        assert code == 2
        assert f"key '{key}'" in err


@pytest.mark.parametrize("command, line, artifact", [
    pytest.param("cascade", "separation_n = 2", "manifest-cascade.json",
                 id="separation_n"),
    pytest.param("solve", "cells_per_scale = 32", "norms.csv", id="cells_per_scale"),
    pytest.param("excess", "probe.p = 3", "excess.csv", id="probe.p"),
    # 1/2 would not do: the excess uses min(theta, 1 - d/p) = 1/2 by default
    pytest.param("excess", "probe.theta = 1/4", "excess.csv", id="probe.theta"),
    pytest.param("approx", "probe.rho = 1/4", "approx.csv", id="probe.rho"),
    pytest.param("certify", "probe.t = 1/32", "manifest-certify.json", id="probe.t"),
])
def test_key_changes_its_subcommand_output(tmp_path, capsys, command, line,
                                          artifact):
    outputs = []
    for name, text in (("default", PRODUCT), ("changed", PRODUCT + line + "\n")):
        (tmp_path / name).mkdir()
        cfg, out = setup(tmp_path / name, text)
        assert run([command, "--config", cfg], capsys)[0] == 0
        if artifact.endswith(".json"):
            # the digest and the timing block differ for any two configs
            outputs.append(json.loads((out / artifact).read_text())["results"])
        else:
            outputs.append((out / artifact).read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("command, line, key", [
    ("rate", "domain = 0, 2", "domain"),
    ("rate", "resolution = 128", "resolution"),
    ("approx", "probe.center = 0.25", "probe.center"),
])
def test_unit_box_sweeps_reject_ignored_keys(tmp_path, capsys, command, line,
                                             key):
    cfg, out = setup(tmp_path, SINGLE + line + "\n")
    code, _, err = run([command, "--config", cfg], capsys)
    assert code == 2
    assert f"key '{key}'" in err
    manifest = json.loads((out / f"manifest-{command}.json").read_text())
    assert f"key '{key}'" in manifest["failure"]


def test_manifests_identical_outside_timing(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    other = tmp_path / "other"
    assert run(["rate", "--config", cfg], capsys)[0] == 0
    assert run(["rate", "--config", cfg, "--out", str(other)], capsys)[0] == 0
    a = json.loads((out / "manifest-rate.json").read_text())
    b = json.loads((other / "manifest-rate.json").read_text())
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert a["version"]
    assert a["config_digest"]


def test_solve_writes_norms_and_fields(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    code, stdout, _ = run(["solve", "--config", cfg], capsys)
    assert code == 0
    header = (out / "norms.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"eps,finest,resolution,l2_norm,h1_norm"
    u = load_gridfunction(out / "u-0.bin")
    assert np.all(np.isfinite(u.values))
    assert u.values.shape == (129,)


def test_excess_table_headers(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    assert run(["excess", "--config", cfg], capsys)[0] == 0
    header = (out / "excess.csv").read_bytes().split(b"\r\n")[0]
    assert header == b"r,H,Phi,G,h"


def test_certify_writes_certificates_and_calibrates(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    code, stdout, _ = run(["certify", "--config", cfg], capsys)
    assert code == 0
    assert "calibrated shrink factor" in stdout
    header, row, _ = (out / "certificate.csv").read_bytes().split(b"\r\n")
    assert header == b"eps,certificate"
    assert float(row.split(b",")[1]) > 0
    manifest = json.loads((out / "manifest-certify.json").read_text())
    assert manifest["results"]["calibrated_t"] in (1 / 16, 1 / 32, 1 / 64)


def test_certify_manifest_lists_its_box_solves(tmp_path, capsys):
    cfg, out = setup(tmp_path, CERTIFY_2D)
    assert run(["certify", "--config", cfg], capsys)[0] == 0
    manifest = json.loads((out / "manifest-certify.json").read_text())
    solves = manifest["residuals"]["solves"]
    assert [(s["stage"], s["layer"]) for s in solves] == [
        ("solve-0", "box"), ("calibrate", "homogenized"),
        ("calibrate", "homogenized")]
    for entry in solves:
        assert entry["grid"] == [256, 256]
        assert entry["preconditioner"] == "line-dst1"
        # a laminate in y1 and its constant diagonal limit vary along x1 only
        assert entry["iterations"] == 1
        assert entry["residual"] <= 1e-10


def test_solve_manifest_records_the_closed_form_solve(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    assert run(["solve", "--config", cfg], capsys)[0] == 0
    manifest = json.loads((out / "manifest-solve.json").read_text())
    (entry,) = manifest["residuals"]["solves"]
    assert entry["stage"] == "solve-0" and entry["grid"] == [128]
    assert entry["preconditioner"] == "closed-form" and entry["iterations"] == 0


def test_excess_manifest_records_its_box_solve(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    assert run(["excess", "--config", cfg], capsys)[0] == 0
    manifest = json.loads((out / "manifest-excess.json").read_text())
    (entry,) = manifest["residuals"]["solves"]
    assert (entry["stage"], entry["layer"], entry["grid"]) == ("solve", "box", [128])
    assert entry["preconditioner"] == "closed-form" and entry["iterations"] == 0


def test_rate_on_slow_homogenized_coefficient(tmp_path, capsys):
    cfg, out = setup(tmp_path, SLOW + "dim = 1\neps = 1/8, 1/16\nbvp.rhs = 1\n")
    code, stdout, err = run(["rate", "--config", cfg], capsys)
    assert code == 0, err
    manifest = json.loads((out / "manifest-rate.json").read_text())
    assert 0.8 <= manifest["results"]["exponent"] <= 1.2


def test_certify_on_slow_homogenized_coefficient_2d(tmp_path, capsys):
    cfg, out = setup(tmp_path, SLOW + "dim = 2\neps = 1/16\n"
                     "cell.resolution = 16\nbvp.rhs = 1\n")
    code, stdout, err = run(["certify", "--config", cfg], capsys)
    assert code == 0, err
    manifest = json.loads((out / "manifest-certify.json").read_text())
    assert all(0.0 < c <= 2.0 for c in manifest["results"]["certificates"])
    calibrate = manifest["residuals"]["solves"][1:]
    assert len(calibrate) == 2
    assert all(s["iterations"] <= 30 for s in calibrate)


def test_failed_calibration_picks_smallest_testable_t(tmp_path, capsys,
                                                      monkeypatch):
    ratios = {1 / 16: 0.6, 1 / 32: None, 1 / 64: None}
    monkeypatch.setattr("reiterate.probes.calibrate_t", lambda *a, **k: {
        "ok": False, "t": None, "ratios": ratios, "worst_ratio": 0.6})
    cfg, out = setup(tmp_path, SINGLE)
    assert run(["certify", "--config", cfg], capsys)[0] == 0
    manifest = json.loads((out / "manifest-certify.json").read_text())
    assert manifest["results"]["calibrated_t"] == 1 / 16


def test_approx_single_scale_row(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE.replace("eps = 1/8", "eps = 1/16"))
    assert run(["approx", "--config", cfg], capsys)[0] == 0
    lines = (out / "approx.csv").read_bytes().split(b"\r\n")
    assert lines[0] == b"eps,r,discrepancy,bound_ratio"
    assert len(lines) == 3


def test_cell_solves_finest_level(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE)
    code, stdout, _ = run(["cell", "--config", cfg], capsys)
    assert code == 0
    # harmonic mean of 2+sin over one period
    assert "1.732" in stdout
    assert (out / "cell-L1.bin").exists()


@pytest.mark.parametrize("text, level", [
    pytest.param(PRODUCT, 2, id="1d"),
    pytest.param("field = checkerboard2d(1, 4, 8)\ndim = 2\neps = 1/8\n"
                 "cell.resolution = 16\n", 1, id="2d"),
])
def test_cell_artifact_round_trips_through_the_cache_reader(tmp_path, capsys,
                                                            text, level):
    # the artifact is a one-sample slab, so the cache reader is its reader
    from reiterate.cache import load_correctors
    from reiterate.cascade import tabulate_cells
    from reiterate.cell import CellStack, solve_corrector
    from reiterate.config import parse_config
    from reiterate.grid import Grid

    cfg_path, out = setup(tmp_path, text)
    assert run(["cell", "--config", cfg_path], capsys)[0] == 0
    chi, sidecar = load_correctors(out / f"cell-L{level}")
    cfg = parse_config(cfg_path)
    grid = Grid.torus(cfg.d, cfg.cell_resolution)
    frozen = (0.0,) * (cfg.d * level)
    values = tabulate_cells(cfg.field, [frozen], grid)
    alone, _, _ = solve_corrector(CellStack(grid, values, [frozen], cfg.cell_tol))
    assert chi.shape == (1,) + grid.node_shape + (cfg.d,)
    assert np.array_equal(chi, alone)
    results = json.loads((out / "manifest-cell.json").read_text())["results"]
    assert sidecar["tensor"] == [results["tensor"]]
    assert sidecar["frozen"] == [list(frozen)]


def test_clean_cache_idempotent(tmp_path, capsys):
    cfg, out = setup(tmp_path, PRODUCT)
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    code, stdout, _ = run(["clean-cache", "--config", cfg], capsys)
    assert code == 0 and "removed" in stdout
    code, stdout, _ = run(["clean-cache", "--config", cfg], capsys)
    assert code == 0 and "removed 0" in stdout


def test_unknown_key_fails_validation(tmp_path, capsys):
    cfg, _ = setup(tmp_path, SINGLE + "mystery = 1\n")
    code, _, err = run(["cascade", "--config", cfg], capsys)
    assert code == 2
    assert "mystery" in err


def test_missing_config_fails_validation(tmp_path, capsys):
    code, _, err = run(["cascade", "--config", str(tmp_path / "nope.cfg")], capsys)
    assert code == 2
    assert "cannot read config" in err


def test_infeasible_resolution_fails_validation(tmp_path, capsys):
    cfg, _ = setup(tmp_path, SINGLE + "resolution = 16\n")
    code, _, err = run(["solve", "--config", cfg], capsys)
    assert code == 2
    assert "need at least" in err


def test_solver_failure_exits_3_and_records_manifest(tmp_path, capsys,
                                                     monkeypatch):
    from reiterate.errors import SolverFailure

    def stagnate(stack):
        raise SolverFailure("PCG stagnated after 100000 iterations")

    monkeypatch.setattr("reiterate.cli.solve_corrector", stagnate)
    cfg, out = setup(tmp_path, SINGLE)
    code, _, err = run(["cell", "--config", cfg], capsys)
    assert code == 3
    assert "solver failure" in err
    manifest = json.loads((out / "manifest-cell.json").read_text())
    assert "stagnated" in manifest["failure"]


# contrast exp(+-4 x1) grows with x1, so the frozen samples of one slab need
# different iteration counts; the sample at x1 = 0 is constant and needs none
GRADED = """field = expr(exp(4*x1*sin(2*pi*y1)*sin(2*pi*y2)))
dim = 2
eps = 1/8
cell.resolution = 8
"""


def test_stagnating_sample_inside_a_slab_exits_3(tmp_path, capsys, monkeypatch):
    from reiterate import cell, grid

    counts = []

    def recording_pcg(*args, **kwargs):
        x, info = grid.pcg(*args, **kwargs)
        counts.extend(info["sample_iterations"])
        return x, info

    monkeypatch.setattr(cell, "pcg", recording_pcg)
    (tmp_path / "probe").mkdir()
    cfg, _ = setup(tmp_path / "probe", GRADED)
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    easy, hard = min(c for c in counts if c > 0), max(counts)
    assert easy < hard

    # a cap between the two lets most samples of the slab converge
    cap = (easy + hard) // 2
    monkeypatch.setattr(cell, "pcg", lambda *a, **k: grid.pcg(*a, **k, maxiter=cap))
    cfg, out = setup(tmp_path, GRADED)
    code, _, err = run(["cascade", "--config", cfg], capsys)
    assert code == 3
    assert "solver failure" in err and f"stagnated after {cap}" in err
    manifest = json.loads((out / "manifest-cascade.json").read_text())
    assert "stagnated" in manifest["failure"]


def test_every_exit_with_a_manifest_records_cache_counters(tmp_path, capsys,
                                                          monkeypatch):
    from reiterate import cascade
    from reiterate.errors import SolverFailure

    monkeypatch.setattr(cascade, "_SLAB_NODES", 10 * 64)  # 33 samples, 4 slabs
    solve_corrector = cascade.solve_corrector
    calls = []

    def third_slab_fails(stack):
        calls.append(stack)
        if len(calls) == 3:
            raise SolverFailure("PCG stagnated after 7 iterations")
        return solve_corrector(stack)

    monkeypatch.setattr(cascade, "solve_corrector", third_slab_fails)
    cfg, out = setup(tmp_path, GRADED)
    assert run(["cascade", "--config", cfg], capsys)[0] == 3
    manifest = json.loads((out / "manifest-cascade.json").read_text())
    assert "stagnated" in manifest["failure"]
    cache = manifest["timing"]["cache"]
    assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 30, 2)

    monkeypatch.setattr(cascade, "solve_corrector", solve_corrector)
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    cache = json.loads((out / "manifest-cascade.json").read_text())["timing"]["cache"]
    assert (cache["hits"], cache["misses"], cache["stores"]) == (20, 13, 2)

    cfg, out = setup(tmp_path, GRADED + "domain = 0, 2\n", name="rate.cfg")
    assert run(["rate", "--config", cfg], capsys)[0] == 2
    cache = json.loads((out / "manifest-rate.json").read_text())["timing"]["cache"]
    assert (cache["hits"], cache["misses"], cache["stores"]) == (0, 0, 0)


def test_cascade_records_method_and_residual_per_level(tmp_path, capsys):
    for name, text, method in (("one", PRODUCT, "closed-form"),
                               ("two", GRADED, "line-rfft-pcg")):
        (tmp_path / name).mkdir()
        cfg, out = setup(tmp_path / name, text)
        assert run(["cascade", "--config", cfg], capsys)[0] == 0
        summary = json.loads((out / "cascade.json").read_text())
        levels = json.loads((out / "manifest-cascade.json").read_text())[
            "residuals"]["levels"]
        for lv in summary["levels"]:
            assert lv["method"] == method
            assert 0.0 <= lv["max_residual"] <= 1e-10
            assert (lv["iterations"] == 0) == (method == "closed-form")
            assert levels[str(lv["level"])] == {
                key: lv[key] for key in
                ("method", "distinct_solves", "iterations", "max_residual")}


# the benchmark's rate-1d and cascade-2d configs at seed 0
RATE_1D = """field = laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))
dim = 1
eps = 1/4, 1/8, 1/16, 1/32, 1/64
bvp.rhs = 1
bvp.boundary = x1
"""

CASCADE_2D = """field = slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1, k2=1)
dim = 2
eps = 1/8
cell.resolution = 8
"""


def test_warm_rate_books_every_sample_its_cache_serves(tmp_path, capsys):
    # one cached cell serves the 256 samples of level 2, one more level 1
    cfg, out = setup(tmp_path, RATE_1D)
    assert run(["rate", "--config", cfg], capsys)[0] == 0
    assert run(["rate", "--config", cfg], capsys)[0] == 0
    cache = json.loads((out / "manifest-rate.json").read_text())["timing"]["cache"]
    assert (cache["hits"], cache["misses"]) == (257, 0)


def test_cold_cascade_2d_counts_samples_and_one_distinct_solve(tmp_path, capsys):
    cfg, out = setup(tmp_path, CASCADE_2D)
    code, stdout, _ = run(["cascade", "--config", cfg], capsys)
    assert code == 0
    (level,) = json.loads((out / "cascade.json").read_text())["levels"]
    assert (level["samples"], level["cache_misses"], level["distinct_solves"]) == (1089, 1089, 1)
    lo, hi = level["spectrum"]
    assert hi / lo == pytest.approx(5 / 3, abs=1e-9)
    manifest = json.loads((out / "manifest-cascade.json").read_text())
    assert manifest["residuals"]["levels"]["1"]["distinct_solves"] == 1
    assert "level 1: 1089 samples, 1 distinct cell solve (line-rfft-pcg), 0 cache hits" in stdout


def test_cascade_2d_stdout_names_no_file_it_does_not_write(tmp_path, capsys):
    # A_hat keeps x here, and its table is in no file: cascade.json holds
    # the levels and scales only
    cfg, out = setup(tmp_path, CASCADE_2D)
    code, stdout, _ = run(["cascade", "--config", cfg], capsys)
    assert code == 0
    named = set(re.findall(r"[\w.-]+\.(?:json|csv|bin)", stdout))
    assert named <= {p.name for p in out.iterdir()}
    assert set(json.loads((out / "cascade.json").read_text())) == {
        "levels", "scales", "cache_hit_rate"}
    assert "written" not in stdout and "summary" not in stdout
    assert "rate, certify and approx read its x-table from the cache" in stdout


def test_exact_1d_tensor_prints_no_tolerance(tmp_path, capsys):
    cfg, _ = setup(tmp_path, PRODUCT)
    code, stdout, _ = run(["cascade", "--config", cfg], capsys)
    assert code == 0
    assert "A_hat = 3.000000\n" in stdout and "+/-" not in stdout


def test_cached_rerun_writes_identical_cascade_summary(tmp_path, capsys):
    cfg, out = setup(tmp_path, GRADED)
    summaries = []
    for _ in range(3):
        assert run(["cascade", "--config", cfg], capsys)[0] == 0
        summaries.append((out / "cascade.json").read_bytes())
    fresh, replay = (json.loads(text) for text in summaries[:2])
    assert replay["cache_hit_rate"] == 1.0
    assert summaries[2] == summaries[1]
    # the replay reads the solved iteration counts back and solves nothing
    for a, b in zip(fresh["levels"], replay["levels"]):
        assert b["cache_misses"] == 0 and b["max_residual"] is None
        for key in ("samples", "iterations", "method", "spectrum"):
            assert a[key] == b[key]


def test_cache_flag_beats_environment(tmp_path, capsys, monkeypatch):
    cfg, _ = setup(tmp_path, PRODUCT)
    monkeypatch.setenv("REITERATE_CACHE", str(tmp_path / "env-cache"))
    flag_dir = tmp_path / "flag-cache"
    assert run(["cascade", "--config", cfg, "--cache", str(flag_dir)],
               capsys)[0] == 0
    assert flag_dir.exists()
    assert not (tmp_path / "env-cache").exists()


def test_cache_env_beats_config(tmp_path, capsys, monkeypatch):
    cfg, _ = setup(tmp_path, PRODUCT)
    env_dir = tmp_path / "env-cache"
    monkeypatch.setenv("REITERATE_CACHE", str(env_dir))
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    assert env_dir.exists()
    assert not (tmp_path / "cache").exists()


def test_module_entrypoint_lists_subcommands():
    proc = subprocess.run([sys.executable, "-m", "reiterate.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for name in ("cascade", "certify", "clean-cache"):
        assert name in proc.stdout


def test_import_writes_nothing_to_stderr():
    proc = subprocess.run([sys.executable, "-c", "import reiterate.cli"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr == ""


# the benchmark's rate-1d config: 257 cells, 1D boxes of up to 65,536 cells
RATE_1D = """field = laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))
dim = 1
eps = 1/4, 1/8, 1/16, 1/32, 1/64
bvp.rhs = 1
bvp.boundary = x1
"""


def _env_without_thread_vars(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(overrides)
    return env


def test_rate_csv_is_independent_of_blas_pool_size(tmp_path):
    tables = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        cfg, out = setup(tmp_path / threads, RATE_1D)
        proc = subprocess.run(
            [sys.executable, "-m", "reiterate.cli", "rate", "--config", cfg],
            capture_output=True, text=True,
            env=_env_without_thread_vars(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "rate.csv").read_bytes())
    assert tables[0] == tables[1]


def test_cli_runs_one_blas_thread_unless_the_caller_sets_one():
    script = ("import json, os, sys\n"
              "import reiterate.cli\n"
              "tasks = len(os.listdir('/proc/self/task')) "
              "if sys.platform == 'linux' else None\n"
              "print(json.dumps([{v: os.environ.get(v) for v in reiterate.cli.THREAD_VARS},"
              " tasks]))\n")
    seen = {}
    for label, env in (("unset", _env_without_thread_vars()),
                       ("set", _env_without_thread_vars(OPENBLAS_NUM_THREADS="2"))):
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        seen[label] = json.loads(proc.stdout)
    variables, tasks = seen["unset"]
    assert variables == {var: "1" for var in THREAD_VARS}
    if sys.platform == "linux":
        assert tasks == 1
    assert seen["set"][0] == {**variables, "OPENBLAS_NUM_THREADS": "2"}


def test_manifest_records_thread_variables_on_every_exit(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    expected = {"OPENBLAS_NUM_THREADS": "3", "MKL_NUM_THREADS": None,
                "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}

    cfg, out = setup(tmp_path, PRODUCT)
    assert run(["cascade", "--config", cfg], capsys)[0] == 0
    manifest = json.loads((out / "manifest-cascade.json").read_text())
    assert manifest["timing"]["threads"] == expected

    cfg, out = setup(tmp_path, GRADED + "domain = 0, 2\n", name="rate.cfg")
    assert run(["rate", "--config", cfg], capsys)[0] == 2
    manifest = json.loads((out / "manifest-rate.json").read_text())
    assert "failure" in manifest
    assert manifest["timing"]["threads"] == expected


# ---------------------------------------------------------------------------
# process exit: run() ends with os._exit once main() has written everything


def _child_env(**overrides):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(overrides)
    return env


def test_module_run_delivers_every_summary_line(tmp_path):
    # buffered stdout: whatever os._exit would drop must be flushed first
    cfg, out = setup(tmp_path, PRODUCT)
    proc = subprocess.run([sys.executable, "-m", "reiterate.cli", "cascade", "--config", cfg],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("A_hat = 3.000")
    assert lines[1].startswith("  level 2: ") and lines[2].startswith("  level 1: ")
    assert lines[3].startswith("cache hit rate 0.0% ")
    path = out / "manifest-cascade.json"
    assert lines[4:] == [f"manifest: {path}"]
    assert json.loads(path.read_text())["command"] == "cascade"


def test_module_run_exits_2_on_a_config_error(tmp_path):
    cfg, out = setup(tmp_path, SINGLE + "bogus = 1\n")
    proc = subprocess.run([sys.executable, "-m", "reiterate.cli", "solve", "--config", cfg],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "bogus" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("unbuffered", ["1", None])
def test_closed_stdout_still_writes_every_artifact(tmp_path, unbuffered):
    cfg, out = setup(tmp_path, PRODUCT)
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: the child's first print meets a broken pipe
    env = _child_env() if unbuffered is None else _child_env(PYTHONUNBUFFERED=unbuffered)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "reiterate.cli", "cascade", "--config", cfg],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads((out / "cascade.json").read_text())["effective_tensor"]
    assert "failure" not in json.loads((out / "manifest-cascade.json").read_text())


def test_run_passes_on_the_status_of_main(tmp_path, capsys, monkeypatch):
    import atexit

    from reiterate import cli
    from reiterate.errors import SolverFailure

    events = []
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append("atexit"))
    monkeypatch.setattr(os, "_exit", lambda status: events.append(status))
    cfg, _ = setup(tmp_path, SINGLE)
    cli.run(["cell", "--config", cfg])
    bad, _ = setup(tmp_path, SINGLE + "bogus = 1\n", name="bad.cfg")
    cli.run(["cell", "--config", bad])

    def stagnate(stack):
        raise SolverFailure("PCG stagnated after 100000 iterations")

    monkeypatch.setattr(cli, "solve_corrector", stagnate)
    cli.run(["cell", "--config", cfg])
    assert events == ["atexit", 0, "atexit", 2, "atexit", 3]
    captured = capsys.readouterr()
    assert "manifest: " in captured.out and "stagnated" in captured.err


def test_run_keeps_atexit_hooks(tmp_path):
    cfg, out = setup(tmp_path, PRODUCT)
    marker = tmp_path / "hook-ran"
    script = ("import atexit, pathlib, sys\n"
              "from reiterate import cli\n"
              f"atexit.register(pathlib.Path({str(marker)!r}).write_text, 'yes')\n"
              f"cli.run(['cascade', '--config', {cfg!r}])\n"
              "sys.exit(7)  # never reached: run() ends the process\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert marker.read_text() == "yes"
    assert (out / "manifest-cascade.json").exists()


def test_console_script_ends_through_run():
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")  # Python 3.11+

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"reiterate": "reiterate.cli:run"}


# ---------------------------------------------------------------------------
# exit contract: every subcommand on every family exits 0, 2 or 3 with a
# manifest, and non-finite data is rejected instead of solved

CONTRACT_1D = "dim = 1\neps = 1/16\ncell.resolution = 16\n"
# 32^2 boxes: certify's calibration cannot resolve its shrunk balls there
CONTRACT_2D = "dim = 2\neps = 1/4\ncells_per_scale = 8\ncell.resolution = 8\n"
CONTRACT = {
    "constant-1d": ("constant(2)", CONTRACT_1D),
    "laminate-1d": ("laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))", CONTRACT_1D),
    "slow-1d": ("slow_modulated(laminate1d(2+sin(2*pi*y1)), amplitude=0.5, k1=1)",
                CONTRACT_1D),
    "expr-constant-1d": ("expr(3)", CONTRACT_1D),
    "expr-product-1d": ("expr((2+sin(2*pi*y1))*(2+cos(2*pi*y2)))", CONTRACT_1D),
    "constant-2d": ("constant(2)", CONTRACT_2D),
    "constant-matrix-2d": ("constant(2, 0.5, 3)", CONTRACT_2D),
    "laminate-2d": ("laminate1d(2+sin(2*pi*y1))", CONTRACT_2D),
    "checkerboard-2d": ("checkerboard2d(1, 4, 8)", CONTRACT_2D),
    "slow-2d": ("slow_modulated(checkerboard2d(1, 4, 8), amplitude=0.5, k1=1)",
                CONTRACT_2D),
    "expr-2d": ("expr(3+sin(2*pi*(x1+y1))*sin(2*pi*y2))", CONTRACT_2D),
    "matrix-2d": ("matrix2d(2+sin(2*pi*y1), 0.3*sin(2*pi*y2), 2+cos(2*pi*y2))",
                  CONTRACT_2D),
}


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_every_subcommand_exits_0_2_or_3_with_a_manifest(tmp_path, capsys, name):
    spec, keys = CONTRACT[name]
    cfg, _ = setup(tmp_path, f"field = {spec}\n{keys}")
    for command in ("cell", "cascade", "solve", "rate", "excess", "certify", "approx"):
        out = tmp_path / command
        code, _, err = run([command, "--config", cfg, "--out", str(out)], capsys)
        assert code in (0, 2, 3), (command, code, err)
        assert (out / f"manifest-{command}.json").exists(), (command, err)
        assert "Traceback" not in err


def test_certify_without_a_measurable_shrink_factor_exits_2(tmp_path, capsys):
    # at eps = 1/8 the 2D box is 128^2, and every shrunk ball of the
    # calibration holds too few nodes to measure an excess
    cfg, out = setup(tmp_path, "field = constant(2)\ndim = 2\neps = 1/8\n")
    code, _, err = run(["certify", "--config", cfg], capsys)
    assert code == 2
    failure = json.loads((out / "manifest-certify.json").read_text())["failure"]
    assert "radius 0.0078125" in failure and "128x128" in failure
    assert failure in err


@pytest.mark.parametrize("dim", [1, 2])
def test_non_finite_cell_coefficient_exits_2_with_a_manifest(tmp_path, capsys, dim):
    # the Kronecker range points miss y1 = 1/2, but a 16-node cell reads inf there
    cfg, out = setup(tmp_path, "field = expr(2+0.01*sin(2*pi*y1)/(y1-0.5))\n"
                     f"dim = {dim}\neps = 1/4\ncell.resolution = 16\n")
    code, _, err = run(["cascade", "--config", cfg], capsys)
    assert code == 2
    manifest = json.loads((out / "manifest-cascade.json").read_text())
    assert "not finite" in manifest["failure"]
    assert not (out / "cascade.json").exists()


def test_non_finite_coefficient_prints_no_numpy_warning(tmp_path):
    # the failure names the cause; numpy's divide warning would only add noise
    cfg, out = setup(tmp_path, "field = expr(2+0.01*sin(2*pi*y1)/(y1-0.5))\n"
                     "dim = 1\neps = 1/4\ncell.resolution = 16\n")
    proc = subprocess.run([sys.executable, "-m", "reiterate.cli", "cascade", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "not finite" in proc.stderr and "RuntimeWarning" not in proc.stderr


def test_parser_builds_only_the_named_subcommand():
    from reiterate.cli import SUBCOMMANDS, build_parser

    def choices(argv):
        (action,) = [a for a in build_parser(argv)._actions if a.dest == "command"]
        return list(action.choices)

    assert choices(["rate", "--config", "x"]) == ["rate"]
    for argv in ([], ["--help"], ["rat"], None):
        assert choices(argv) == list(SUBCOMMANDS)


def test_non_finite_right_hand_side_exits_2_with_a_manifest(tmp_path, capsys):
    cfg, out = setup(tmp_path, SINGLE + "bvp.rhs = 1/(x1-0.5)\n")
    code, _, err = run(["solve", "--config", cfg], capsys)
    assert code == 2
    manifest = json.loads((out / "manifest-solve.json").read_text())
    assert "not finite" in manifest["failure"]
    assert not (out / "norms.csv").exists()


@pytest.mark.parametrize("spec", ["constant(nan)", "constant(inf)",
                                  "laminate1d(1e400+0*y1)"])
def test_non_finite_coefficient_fails_validation(tmp_path, capsys, spec):
    cfg, _ = setup(tmp_path, f"field = {spec}\ndim = 1\neps = 1/8\n")
    code, _, err = run(["solve", "--config", cfg], capsys)
    assert code == 2
    assert "key 'field'" in err
