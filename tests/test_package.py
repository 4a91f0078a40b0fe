import ast
import importlib
import io
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import reiterate


def test_import_loads_no_numpy_until_a_name_is_used():
    script = ("import json, sys, reiterate\n"
              "loaded = sorted(m for m in sys.modules\n"
              "                if m.split('.')[0] in ('numpy', 'reiterate'))\n"
              "print(json.dumps([loaded, reiterate.grid.Grid is reiterate.Grid]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["reiterate"], True]


@pytest.mark.parametrize("name", [n for n in reiterate.__all__ if n != "__version__"])
def test_public_name_is_its_module_object(name):
    value = getattr(reiterate, name)
    assert value.__module__.startswith("reiterate.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_version_and_dir_list_every_public_name():
    assert reiterate.__version__ == "0.1.0"
    assert set(reiterate.__all__) <= set(dir(reiterate))


def test_every_library_module_is_a_lazy_submodule():
    # cli is left out: importing it sets the process's thread variables
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    modules = {p.stem for p in root.glob("*.py")} - {"__init__", "cli"}
    # a fresh process: an imported submodule is in dir() whether listed or not
    script = "import json, reiterate\nprint(json.dumps(dir(reiterate)))\n"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert modules <= set(json.loads(proc.stdout))
    assert all(getattr(reiterate, m).__name__ == f"reiterate.{m}" for m in modules)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        reiterate.no_such_name
    with pytest.raises(ImportError):
        from reiterate import no_such_name  # noqa: F401


def _unread_imports(path: Path) -> list[str]:
    """Names a module's top-level imports bind and nothing in it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_no_module_imports_a_name_it_never_reads():
    root = Path(__file__).resolve().parent.parent
    paths = sorted((root / "src" / "reiterate").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    unread = {str(p.relative_to(root)): names for p in paths
              if (names := _unread_imports(p))}
    assert unread == {}


def test_benchmark_tracer_installs_on_the_package():
    # perfbench/tracer.py wraps package functions by name; a source change
    # that deletes one makes every traced benchmark op fail at start-up
    root = Path(__file__).resolve().parent.parent
    script = ("import sys\n"
              f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
              "import tracer\n"
              "tracer.Tracer().install()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_books_the_cascade_cell_solves_as_cell_time():
    # the tracer's cell spans wrap cell.solve_corrector and cell.effective_tensor;
    # a cascade that solved its cells by another name would report none
    root = Path(__file__).resolve().parent.parent
    script = ("import sys\n"
              f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
              "import tracer\n"
              "t = tracer.Tracer()\n"
              "t.install()\n"
              "from reiterate import builtin_family, homogenize_all\n"
              "homogenize_all(builtin_family("
              "'laminate1d(2+sin(2*pi*y1), 2+sin(2*pi*y2))', 1), resolution=16)\n"
              "print(t.report()['cell.solves'])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) == 2  # one slab per level


def test_benchmark_tracer_books_a_collapsed_level_as_one_cell_solve():
    # the cascade-2d field is one cell problem scaled over 33^2 x-samples:
    # the tracer sees one cell solve and still counts every table entry
    root = Path(__file__).resolve().parent.parent
    script = ("import sys\n"
              f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
              "import tracer\n"
              "t = tracer.Tracer()\n"
              "t.install()\n"
              "from reiterate import builtin_family\n"
              "from reiterate.cascade import descend\n"
              "descend(builtin_family('slow_modulated(checkerboard2d(1, 4, 8), "
              "amplitude=0.5, k1=1, k2=1)', 2), resolution=8)\n"
              "report = t.report()\n"
              "print(report['cell.solves'], report['cascade.samples'])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [float(v) for v in proc.stdout.split()] == [1, 1089]


def test_benchmark_tracer_books_box_solves_across_the_stencil_module():
    # the solvers live in stencil, but the tracer's grid spans name them on
    # grid, whose solve_box_dirichlet calls them through its own bindings
    root = Path(__file__).resolve().parent.parent
    script = ("import sys\n"
              f"sys.path[:0] = [{str(root / 'src')!r}, {str(root / 'perfbench')!r}]\n"
              "import tracer\n"
              "t = tracer.Tracer()\n"
              "t.install()\n"
              "import numpy as np\n"
              "from reiterate.grid import Grid, GridFunction, solve_box_dirichlet\n"
              "for d in (2, 1):\n"
              "    g = Grid.box((0.0,) * d, (1.0,) * d, 8)\n"
              "    a = GridFunction.from_callable(\n"
              "        g, lambda x: (2 + np.sin(x.sum(axis=1)))[:, None, None] * np.eye(d))\n"
              "    solve_box_dirichlet(a, GridFunction.constant(g, 1.0), 0.0)\n"
              "    report = t.report()\n"
              "    print(report['grid.pcg_solves'], report['grid.direct_solves'])\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert [[float(v) for v in line.split()] for line in proc.stdout.splitlines()] == [
        [1, 0], [1, 1]]


# CPython's parser grows its token array in steps (4,096, 8,192 tokens),
# and compile() of a module past a step peaks higher.  Every CLI op
# compiles src/reiterate when no bytecode can be written
# (PYTHONDONTWRITEBYTECODE=1), so the largest module's compile peak sets
# part of the op's peak RSS: 8,315 tokens peaked at 3.3 MB
TOKEN_CAP = 6000


def test_every_module_stays_under_the_token_cap():
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    counts = {}
    for path in sorted(root.glob("*.py")):
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline)
        counts[path.name] = sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)
    over = {name: n for name, n in counts.items() if n >= TOKEN_CAP}
    assert over == {}, (
        f"modules of {TOKEN_CAP} tokens or more: {over}.  Compiling a module "
        "that large raises the peak RSS of every CLI op run without bytecode; "
        "split it")


RECORDS = {
    "grid": ("Grid", "GridFunction"),
    "cell": ("EffectiveTensor", "FluxData", "CellStack"),
    "coeff": ("ScaleLadder", "CoefficientSpec", "CoefficientField"),
    "cascade": ("Axis", "CorrectorTable", "CascadeLevel", "CascadeResult"),
    "config": ("ExperimentConfig",),
    "dirichlet": ("BVP",),
    "probes": ("RateRow", "RateSweep"),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in RECORDS.items()
                                          for n in names])
def test_records_are_immutable(module, name):
    cls = getattr(importlib.import_module(f"reiterate.{module}"), name)
    record = cls._make([None] * len(cls._fields))
    for field in cls._fields + ("unknown_field",):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)


def test_cli_import_builds_no_dataclass():
    # dataclasses generate and compile each record's methods on every import
    proc = subprocess.run([sys.executable, "-c", "import reiterate.cli, sys; "
                           "print('dataclasses' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# a cell, a cascade (cell solve, cache write) and a certify (box solves,
# probes) on the field each case names
GUARD_CONFIG = """dim = 2
eps = 1/16
cell.resolution = 8
bvp.rhs = 1
bvp.boundary = sin(pi*x1)
"""

# hashlib loads OpenSSL's libcrypto and numpy.random its bit generators (and
# hashlib with them), resident for the rest of the process
FORBIDDEN_MODULES = ("hashlib", "_hashlib", "numpy.random")


@pytest.mark.parametrize("field", [
    "laminate1d(2+sin(2*pi*y1))",  # declares its ranges
    "expr(2+sin(2*pi*y1)*sin(2*pi*y2))",  # ranged at the Kronecker points
], ids=["laminate", "expr"])
def test_cli_ops_load_no_forbidden_module(tmp_path, field):
    # a subprocess, since pytest itself imports hashlib
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"field = {field}\n" + GUARD_CONFIG
                   + f"out = {tmp_path / 'out'}\ncache = {tmp_path / 'cache'}\n")
    script = ("import json, os, sys\n"
              "from reiterate import cli\n"
              "codes = [cli.main([c, '--config', sys.argv[1]])\n"
              "         for c in ('cell', 'cascade', 'certify')]\n"
              "maps = '/proc/self/maps'\n"
              "crypto = None if not os.path.exists(maps) else "
              "any('libcrypto' in line for line in open(maps))\n"
              f"print(json.dumps([codes, [m for m in {FORBIDDEN_MODULES!r} if m in sys.modules],"
              " crypto]))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    codes, loaded, crypto = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []
    if crypto is not None:
        assert not crypto


def test_only_the_digest_fallback_imports_hashlib():
    # every digest goes through coeff.hex_digest, which imports hashlib
    # only where the interpreter lacks a built-in SHA-256
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
                found.append((path.name, [f.name for f in scopes
                                          if f.lineno <= node.lineno <= f.end_lineno]))
    assert found == [("coeff.py", ["_sha256"])]


def _dotted(node) -> str | None:
    """'np.linalg.eigvalsh' for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id] + parts[::-1]) if isinstance(node, ast.Name) else None


def test_no_module_draws_random_numbers_or_calls_an_eigensolver():
    # ranges are taken at Kronecker points and spectra in closed form
    # (coeff.spectrum), so no op loads numpy.random or calls LAPACK's eig*
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [_dotted(node) or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if re.match(r"(np|numpy)\.(random|linalg\.eig)", name)]
    assert found == []


def test_no_lstsq_call_and_two_pcg_callers():
    # the ball fits solve their normal equations by hand, and the flux
    # potentials take the exact torus inverse, so pcg serves only the 2D
    # cell correctors and the 2D box solves
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    found = {"lstsq": [], "pcg": []}
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = (_dotted(node.func) or "").split(".")[-1]
                if name in found:
                    found[name].append((path.name, [f.name for f in scopes
                                                    if f.lineno <= node.lineno <= f.end_lineno]))
    assert found == {"lstsq": [],
                     "pcg": [("cell.py", ["solve_corrector"]),
                             ("grid.py", ["solve_box_dirichlet"])]}


BLAS_NAMES = {"polyfit", "dot", "matmul", "inner", "vdot", "tensordot"}


def test_no_module_calls_blas_or_lapack():
    # numpy.linalg, polyfit (lstsq inside) and the matrix products go to
    # BLAS or LAPACK, whose first call maps the library's buffers and whose
    # digits may follow its thread pool; einsum stays off BLAS unless asked
    # to optimize
    root = Path(__file__).resolve().parent.parent / "src" / "reiterate"
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [_dotted(node) or node.attr]
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                names = ["@"] if isinstance(node.op, ast.MatMult) else []
            elif isinstance(node, ast.Call) and (_dotted(node.func) or "").endswith("einsum"):
                names = [f"einsum(optimize={ast.unparse(k.value)})"
                         for k in node.keywords if k.arg == "optimize"]
            else:
                continue
            found += [(path.name, node.lineno, name) for name in names
                      if re.match(r"(np|numpy)\.linalg\b|@|einsum", name)
                      or name.split(".")[-1] in BLAS_NAMES]
    assert found == []
