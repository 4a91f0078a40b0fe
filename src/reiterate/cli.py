"""Command line runner for homogenization experiments.

``reiterate <subcommand> --config <path> [--out <dir>] [--cache <dir>]``
executes one pipeline stage and persists its artifacts: CSV tables (RFC
4180, ``.`` decimal separator, 17 significant digits), serialized node
fields, and a JSON run manifest written atomically at the end.  Every
entry that can differ between identical runs lives under the manifest's
``timing`` block, so re-running a config reproduces every other byte.
Exit status: 0 on success, 2 on validation failure, 3 on solver failure.

``run()`` is the process entry point (``python -m reiterate.cli`` and the
``reiterate`` script): it ends the process with ``os._exit`` once ``main``
has written every artifact and the manifest, the console streams are
flushed and the ``atexit`` hooks have run, which skips interpreter
teardown.  Library callers and tests call ``main``, which returns the
status.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller set the variable: no solve path calls
# BLAS, so a larger pool only spins.  numpy reads these once, when it loads,
# so they are set before the first import of it (``import reiterate`` loads
# no numpy).  Manifests record them under timing.threads.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import atexit
import csv
import io
import json
import sys
import time
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, probes
from .cache import CorrectorCache, save_slab
from .cascade import tabulate_cells
from .cell import DEFAULT_RESOLUTION, CellStack, effective_tensor, solve_corrector
from .coeff import check_separation
from .config import ExperimentConfig, parse_config
from .dirichlet import solve_homogenized, solve_multiscale
from .errors import ConfigError, ResolutionError, SolverFailure
# perfbench/tracer.py times artifact writes under the name _atomic_bytes
from .grid import Grid, GridFunction, gradient, l2_norm, save_gridfunction
from .grid import atomic_bytes as _atomic_bytes


def _fmt(value) -> str:
    return "%.17g" % float(value)


def _say(text: str, err: bool = False) -> None:
    """Print one console line.  A reader that closed the pipe silences the
    stream instead of ending the run, so every artifact and the manifest
    are still written; the rest of the stream goes to the null device, as
    the SIGPIPE note of the signal module's docs shows."""
    stream = sys.stderr if err else sys.stdout
    try:
        print(text, file=stream)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def write_csv(path: Path, header, rows) -> None:
    """RFC 4180 table: CRLF records, '.' decimal, 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, (int, float, np.floating))
                         else str(v) for v in row])
    _atomic_bytes(path, buf.getvalue().encode("utf-8"))


class Manifest:
    """Run record; everything volatile lives under the timing block."""

    def __init__(self, command: str, cfg: ExperimentConfig):
        self.data = {
            "command": command,
            "config_digest": cfg.digest(),
            "version": __version__,
            "warnings": [],
            "residuals": {},
            "results": {},
        }
        self.timing = {"started": _now(), "stages": {},
                       "threads": {var: os.environ.get(var) for var in THREAD_VARS}}

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.timing["stages"][name] = round(time.perf_counter() - t0, 6)

    def write(self, out: Path, failure: str | None = None) -> Path:
        self.timing["finished"] = _now()
        payload = dict(self.data)
        if failure is not None:
            payload["failure"] = failure
        payload["timing"] = self.timing
        text = json.dumps(payload, indent=2, sort_keys=True)
        path = out / f"manifest-{self.data['command']}.json"
        _atomic_bytes(path, (text + "\n").encode("utf-8"))
        return path


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _count(n: int, noun: str) -> str:
    return f"{n} {noun}{'' if n == 1 else 's'}"


def _tensor_text(tensor: np.ndarray) -> str:
    rows = np.atleast_2d(tensor)
    return "; ".join(" ".join("%.6f" % v for v in row) for row in rows)


# ---------------------------------------------------------------------------
# subcommands


def cmd_cell(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    field = cfg.field
    level = field.n_scales
    if level < 1:
        raise ConfigError("field has no fast slots; nothing to solve")
    # one sample with every slower argument frozen at the origin
    frozen = np.zeros((1, field.d * level))
    grid = Grid.torus(field.d, cfg.cell_resolution or DEFAULT_RESOLUTION[field.d])
    with manifest.stage("cell"):
        stack = CellStack(grid, tabulate_cells(field, frozen, grid), frozen, cfg.cell_tol)
        chi, iterations, _ = solve_corrector(stack)
        tensors, spectra = effective_tensor(stack, chi, mu=field.mu)
    # the artifact is a one-sample cache slab, read by cache.load_correctors
    stem = out / f"cell-L{level}"
    save_slab(stem, stack, chi, iterations, tensors, spectra)
    manifest.data["residuals"]["cell_iterations"] = iterations[0].tolist()
    manifest.data["results"]["tensor"] = tensors[0].tolist()
    manifest.data["results"]["spectrum"] = spectra[0].tolist()
    _say(f"level {level} cell tensor at the origin: {_tensor_text(tensors[0])}")
    _say(f"correctors saved to {stem}.bin")


def cmd_cascade(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    ladder = cfg.ladders[0]
    if ladder.N is not None and ladder.n > 1:
        satisfied, slack = check_separation(ladder)
        manifest.data["results"]["separation"] = {
            "satisfied": satisfied, "slack": list(slack)}
        if not satisfied:
            manifest.data["warnings"].append(
                f"scales {list(ladder.scales)} fail the order-{ladder.N} "
                "separation check")
    with manifest.stage("cascade"):
        result = cfg.homogenize(cache)
    summary = result.summary()
    hits = sum(lv["cache_hits"] for lv in summary["levels"])
    total = hits + sum(lv["cache_misses"] for lv in summary["levels"])
    summary["cache_hit_rate"] = hits / total if total else 0.0
    _atomic_bytes(out / "cascade.json",
                  (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    manifest.data["residuals"]["levels"] = {
        str(lv["level"]): {key: lv[key] for key in
                           ("method", "distinct_solves", "iterations", "max_residual")}
        for lv in summary["levels"]}
    # hit counts vary between fresh and replayed runs: volatile block only
    manifest.timing["cache_hit_rate"] = summary["cache_hit_rate"]
    if result.effective is not None:
        manifest.data["results"]["effective_tensor"] = result.effective.tensor.tolist()
        # 1D cells are solved exactly; 2D cells to cell.tol
        tol = f" +/- {cfg.cell_tol:g}" if cfg.d == 2 else ""
        _say(f"A_hat = {_tensor_text(result.effective.tensor)}{tol}")
    else:
        _say("effective coefficient keeps a slow dependence; "
             "tabulated field written to the cascade summary")
    for lv in summary["levels"]:
        _say(f"  level {lv['level']}: {_count(lv['samples'], 'sample')}, "
             f"{_count(lv['distinct_solves'], 'distinct cell solve')} "
             f"({lv['method']}), {lv['cache_hits']} cache hits")
    _say(f"cache hit rate {100.0 * summary['cache_hit_rate']:.1f}% "
         f"({hits}/{total})")


def cmd_solve(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    rows = []
    for idx, ladder in enumerate(cfg.ladders):
        _, u = _solve_box(cfg, ladder, manifest, f"solve-{idx}")
        path = out / f"u-{idx}.bin"
        save_gridfunction(u, path)
        l2 = l2_norm(u)
        h1 = float(np.sqrt(l2**2 + l2_norm(gradient(u))**2))
        rows.append((ladder.scales[0], ladder.finest,
                     cfg.resolution_for(ladder), l2, h1))
        _say(f"eps={ladder.scales[0]:g}: {u.grid.shape} cells, "
             f"L2={l2:.6g}, H1={h1:.6g} -> {path.name}")
    write_csv(out / "norms.csv",
              ("eps", "finest", "resolution", "l2_norm", "h1_norm"), rows)
    manifest.data["results"]["solves"] = len(rows)


def _ladder_map(cfg: ExperimentConfig):
    """(eps list, eps -> ladder) for sweeps, from the config's ladders.

    A sweep labels each ladder by its eps; explicit scales give one ladder,
    labelled by its coarsest scale.
    """
    eps_values = list(cfg.eps_values) or [cfg.ladders[0].scales[0]]
    return eps_values, dict(zip(eps_values, cfg.ladders)).__getitem__


def _record_solve(manifest: Manifest, stage: str, layer: str,
                  u: GridFunction) -> None:
    """Append one box solve's method, iterations and final residual."""
    info = u.meta
    manifest.data["residuals"].setdefault("solves", []).append({
        "stage": stage, "layer": layer, "grid": list(u.grid.shape),
        "preconditioner": info["preconditioner"],
        "iterations": info["iterations"],
        "residual": info["residuals"][-1] if info["residuals"] else 0.0})


def _solve_box(cfg: ExperimentConfig, ladder, manifest: Manifest, stage: str):
    """The oscillating box solve for one ladder, timed and ledgered under
    stage; returns (bvp, u)."""
    bvp = cfg.bvp_for(cfg.grid_for(ladder))
    with manifest.stage(stage):
        u = solve_multiscale(bvp, cfg.field, ladder, tol=cfg.solver_tol)
    _record_solve(manifest, stage, "box", u)
    return bvp, u


def _require_unit_box(cfg: ExperimentConfig, command: str, keys) -> None:
    """Reject keys that a sweep of the unit box would silently ignore."""
    given = {"domain": cfg.domain != (0.0, 1.0),
             "resolution": cfg.resolution is not None,
             "probe.center": cfg.probe["center"] is not None}
    for key in keys:
        if given[key]:
            raise ConfigError(f"key {key!r}: {command} sweeps the unit box "
                              "[0, 1]^d, sized by cells_per_scale and probed "
                              "at its centre; remove the key")


def cmd_rate(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    _require_unit_box(cfg, "rate", ("domain", "resolution"))
    eps_values, ladder_for = _ladder_map(cfg)
    with manifest.stage("rate"):
        effective = cfg.homogenize(cache).homogenized
        sweep = probes.rate_sweep(
            cfg.field, eps_values, ladder_for, effective=effective,
            rhs=cfg.pointwise(cfg.rhs_source),
            boundary=cfg.pointwise(cfg.boundary_source),
            cells_per_scale=cfg.cells_per_scale, tol=cfg.solver_tol)
    write_csv(out / "rate.csv",
              ("eps", "eps_rate_expr", "l2_error", "slope_so_far"),
              [(r.eps, r.rate_expr, r.l2_error, r.slope_so_far)
               for r in sweep.rows])
    manifest.data["warnings"].extend(sweep.warnings)
    manifest.data["results"]["exponent"] = sweep.exponent
    for row in sweep.rows:
        _say(f"eps={row.eps:<10g} rate_expr={row.rate_expr:<12g} "
             f"l2_error={row.l2_error:<12.6g} slope={row.slope_so_far:.4f}")
    _say(f"fitted slope = {sweep.exponent:.4f}")
    for warning in sweep.warnings:
        _say(f"warning: {warning}", err=True)


def cmd_excess(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    ladder = cfg.ladders[0]
    bvp, u = _solve_box(cfg, ladder, manifest, "solve")
    center = cfg.probe_center()
    top = cfg.probe_radius()
    radii = probes.dyadic_radii(top, max(ladder.finest, 8 * max(u.grid.spacing)))
    with manifest.stage("excess"):
        rows = probes.excess_rows(u, center, radii, theta=cfg.probe["theta"],
                                  p=cfg.probe["p"], forcing=bvp.rhs)
    write_csv(out / "excess.csv", ("r", "H", "Phi", "G", "h"),
              [(row["r"], row["H"], row["Phi"], row["G"], row["h"])
               for row in rows])
    manifest.data["results"]["radii"] = [row["r"] for row in rows]
    for row in rows:
        _say(f"r={row['r']:<10g} H={row['H']:<12.6g} Phi={row['Phi']:<12.6g} "
             f"G={row['G']:<12.6g} h={row['h']:.6g}")


def cmd_certify(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    center = cfg.probe_center()
    top = cfg.probe_radius()
    t_shrink = cfg.probe["t"]
    rows = []
    for idx, ladder in enumerate(cfg.ladders):
        bvp, u = _solve_box(cfg, ladder, manifest, f"solve-{idx}")
        if t_shrink is None:
            # shrink factor comes from homogenized solutions of the same data
            with manifest.stage("calibrate"):
                grid = bvp.grid
                effective = cfg.homogenize(cache).homogenized
                u0 = solve_homogenized(bvp, effective, tol=cfg.solver_tol)
                lift = type(bvp).on(grid, 0.0, lambda p: p[..., 0])
                u0_lift = solve_homogenized(lift, effective, tol=cfg.solver_tol)
                _record_solve(manifest, "calibrate", "homogenized", u0)
                _record_solve(manifest, "calibrate", "homogenized", u0_lift)
                corpus = [(u0, center), (u0_lift, center)]
                report = probes.calibrate_t(corpus, [top / 2, top],
                                            theta=cfg.probe["theta"], p=cfg.probe["p"])
            manifest.data["results"]["calibrated_t"] = report.get("t")
            manifest.data["results"]["calibration_ratios"] = {
                _fmt(k): v for k, v in report["ratios"].items()}
            if report["worst_ratio"] is None:
                t, r = max(report["ratios"]), top / 2
                raise ResolutionError(
                    "cannot calibrate the shrink factor: the largest shrunk ball, "
                    f"radius {t * r:g} (t = {t:g}, r = {r:g}), holds too few nodes "
                    f"of the {'x'.join(map(str, grid.shape))} calibration grid; refine "
                    "the box or set probe.t")
            if not report["ok"]:
                manifest.data["warnings"].append(
                    "no candidate shrink factor contracts the excess; worst "
                    f"ratio {report['worst_ratio']:.4g}")
                t_shrink = min(t for t, ratio in report["ratios"].items()
                               if ratio is not None)
            else:
                t_shrink = report["t"]
            _say(f"calibrated shrink factor t = {t_shrink:g}")
        with manifest.stage(f"certificate-{idx}"):
            rep = probes.lipschitz_certificate(
                u, center, top, eps_floor=ladder.finest, forcing=bvp.rhs,
                p=cfg.probe["p"])
        rows.append((ladder.scales[0], rep["certificate"]))
        _say(f"eps={ladder.scales[0]:<10g} certificate={rep['certificate']:.6g}")
    write_csv(out / "certificate.csv", ("eps", "certificate"), rows)
    manifest.data["results"]["calibrated_t"] = t_shrink
    manifest.data["results"]["certificates"] = [c for _, c in rows]


def cmd_approx(cfg: ExperimentConfig, cache, out: Path, manifest: Manifest) -> None:
    _require_unit_box(cfg, "approx", ("domain", "resolution", "probe.center"))
    eps_values, ladder_for = _ladder_map(cfg)
    with manifest.stage("approx"):
        kwargs = dict(effective=cfg.homogenize(cache).homogenized,
                      r=cfg.probe_radius(), rho=cfg.probe["rho"],
                      rhs=cfg.pointwise(cfg.rhs_source),
                      boundary=cfg.pointwise(cfg.boundary_source),
                      cells_per_scale=cfg.cells_per_scale, tol=cfg.solver_tol)
        if len(eps_values) >= 2:
            outcome = probes.approximation_sweep(cfg.field, eps_values,
                                                 ladder_for, **kwargs)
            reports = outcome["reports"]
            manifest.data["results"]["exponent"] = outcome["exponent"]
        else:
            reports = [probes.approximate_by_homogenized(
                cfg.field, ladder_for(eps_values[0]), **kwargs)]
    write_csv(out / "approx.csv", ("eps", "r", "discrepancy", "bound_ratio"),
              [(rep["eps"], rep["r"], rep["discrepancy"], rep["bound_ratio"])
               for rep in reports])
    for rep in reports:
        _say(f"eps={rep['eps']:<10g} discrepancy={rep['discrepancy']:<12.6g} "
             f"bound_ratio={rep['bound_ratio']:.6g}")
    if "exponent" in manifest.data["results"]:
        _say(f"fitted exponent = {manifest.data['results']['exponent']:.4f}")


def cmd_clean_cache(cfg: ExperimentConfig, cache, out: Path,
                    manifest: Manifest) -> None:
    removed = cache.clean()
    manifest.data["results"]["entries_removed"] = removed
    _say(f"removed {removed} cache entries from {cache.root}")


# name -> (handler, help line), in the order --help lists them
SUBCOMMANDS = {
    "cell": (cmd_cell, "solve the finest-level cell problem at the origin"),
    "cascade": (cmd_cascade, "integrate out every fast scale and report the tensor"),
    "solve": (cmd_solve, "solve the oscillating Dirichlet problem per ladder"),
    "rate": (cmd_rate, "homogenization error sweep and fitted convergence rate"),
    "excess": (cmd_excess, "tilt-excess table at the probe center"),
    "certify": (cmd_certify, "large-scale gradient bound certificates per scale"),
    "approx": (cmd_approx, "local approximation by the homogenized operator"),
    "clean-cache": (cmd_clean_cache, "remove every cached cell solve"),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI parser.  When argv[0] names a subcommand, only that
    subparser is built; otherwise (--help, a typo) all of them are, so
    every usage and error message lists the full choice."""
    parser = argparse.ArgumentParser(
        prog="reiterate",
        description="Cascaded periodic homogenization: cell problems, "
                    "effective tensors, and certificate probes.")
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in SUBCOMMANDS else SUBCOMMANDS
    for name in names:
        p = sub.add_parser(name, help=SUBCOMMANDS[name][1])
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--cache", help="cache directory (beats REITERATE_CACHE)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    try:
        cfg = parse_config(args.config)
        cfg = cfg.with_overrides(out=args.out)
    except ConfigError as exc:
        _say(f"error: {exc}", err=True)
        return 2
    cache_root = args.cache or cfg.resolved_cache_dir()
    cache = CorrectorCache(cache_root)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(args.command, cfg)
    failure = None
    try:
        SUBCOMMANDS[args.command][0](cfg, cache, out, manifest)
    except (ConfigError, ResolutionError, ValueError) as exc:
        failure, status, label = exc, 2, "error"
    except SolverFailure as exc:
        failure, status, label = exc, 3, "solver failure"
    manifest.timing["cache"] = {"hits": cache.hits, "misses": cache.misses,
                                "stores": cache.stores, "root": str(cache.root)}
    if failure is not None:
        manifest.write(out, failure=str(failure))
        _say(f"{label}: {failure}", err=True)
        return status
    path = manifest.write(out)
    _say(f"manifest: {path}")
    return 0


def run(argv=None) -> None:
    """Run main() and end the process without interpreter teardown.

    Every artifact lands through atomic_bytes before main returns, so once
    the console streams are flushed and the atexit hooks have run, module
    teardown and the final garbage collection have nothing left to save.
    SystemExit (argparse, --help) and uncaught exceptions still leave
    through the normal exit.
    """
    status = main(argv)
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # a closed pipe or stream: nothing to save
            pass
    atexit._run_exitfuncs()
    os._exit(status)


if __name__ == "__main__":
    run()
