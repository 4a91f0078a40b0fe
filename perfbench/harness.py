"""Closed-loop op runner: one ``reiterate`` subcommand per fresh interpreter.

Every op runs in its own temporary directory under ``.perfbench/`` in the
checkout, with explicit ``--out`` and ``--cache`` and without
``REITERATE_CACHE`` in its environment (that variable beats the config's
``cache`` key).  The next op starts when the previous one has been
reaped; wall time, CPU time and peak RSS of each op come from
``os.wait4`` on the child.  Ops that exit nonzero, crash, time out or
miss an anchor count as failed and the run goes on.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Workload

TRACER = Path(__file__).resolve().parent / "tracer.py"
SETUP_REPEATS = 5
OP_TIMEOUT_S = 150.0

SETUP_CODE = ("import sys\n"
              "from reiterate.cli import parse_config\n"
              "parse_config(sys.argv[1])\n")

ENV_CODE = r"""
import ctypes, json, os, platform, sys
import numpy, scipy
import reiterate
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for path in sorted({line.split()[-1] for line in open("/proc/self/maps")
                    if "openblas" in line.lower()}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
            break
print(json.dumps({
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "numba": numba_version,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "blas_config": blas.get("openblas configuration"),
    "blas_threads": threads,
    "reiterate_file": reiterate.__file__,
}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, wrong package on the path)."""


@dataclass
class Checkout:
    """The checkout under test and the scratch area the benchmark writes."""

    root: Path

    @property
    def src(self) -> Path:
        return self.root / "src"

    @property
    def scratch(self) -> Path:
        return self.root / ".perfbench"

    def require_sources(self) -> None:
        if not (self.src / "reiterate" / "cli.py").is_file():
            raise BenchError(f"no reiterate sources under {self.src}")

    def child_env(self) -> dict:
        env = dict(os.environ)
        env.pop("REITERATE_CACHE", None)
        path = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + path if path else "")
        return env

    def commit(self) -> str | None:
        """The checkout's commit id; None outside a git repository."""
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=self.root,
                                  capture_output=True, text=True)
        except OSError:
            return None
        return done.stdout.strip() if done.returncode == 0 else None


def read_steal_s() -> float | None:
    """CPU steal time of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _spawn(argv, *, cwd, env, stdout, stderr, timeout: float):
    """Run argv to completion; returns (exit code, wall s, rusage, timed out)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, wall >= timeout


def environment(checkout: Checkout, workload: Workload, scratch: Path) -> dict:
    """Machine, interpreter, library and BLAS record, as a child sees them.

    The probe also imports the CLI and parses the workload's config, so it
    byte-compiles the sources before any set-up sample is timed.
    """
    cfg = scratch / "setup.cfg"
    cfg.write_text(workload.config)
    out = scratch / "env.json"
    with open(out, "wb") as fh:
        code, _, _, _ = _spawn([sys.executable, "-c", SETUP_CODE + ENV_CODE, str(cfg)],
                               cwd=scratch, env=checkout.child_env(), stdout=fh,
                               stderr=subprocess.DEVNULL, timeout=60.0)
    if code != 0:
        raise BenchError("importing reiterate.cli, numpy and scipy and parsing "
                         "the config failed in a child")
    record = json.loads(out.read_text())
    src = str(checkout.src.resolve())
    if not str(Path(record.pop("reiterate_file")).resolve()).startswith(src):
        raise BenchError(f"children import reiterate from outside {src}")
    record.update(
        nproc=os.cpu_count(),
        affinity=sorted(os.sched_getaffinity(0)),
        machine=platform.machine(),
        blas_env={k: os.environ[k] for k in
                  ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "REITERATE_NUMBA") if k in os.environ},
        commit=checkout.commit())
    return record


def setup_times(checkout: Checkout, scratch: Path) -> list[float]:
    """Wall time of fresh interpreters importing the CLI and parsing the config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(scratch / "setup.cfg")]
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _, _ = _spawn(argv, cwd=scratch, env=checkout.child_env(),
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL, timeout=60.0)
        if code != 0:
            raise BenchError("importing reiterate.cli and parsing the config failed")
        times.append(wall)
    return times


def run_op(checkout: Checkout, workload: Workload, scratch: Path, *,
           traced: bool, cache: Path | None = None) -> dict:
    """One CLI invocation in a fresh directory, its anchors, and its costs."""
    op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=scratch))
    try:
        cfg = op_dir / "exp.cfg"
        cfg.write_text(workload.config)
        out = op_dir / "out"
        flags = [workload.subcommand, "--config", str(cfg), "--out", str(out),
                 "--cache", str(cache or op_dir / "cache")]
        layers = op_dir / "layers.json"
        argv = [sys.executable] + (
            [str(TRACER), str(layers)] if traced else ["-m", "reiterate.cli"]) + flags
        steal0 = read_steal_s()
        with open(op_dir / "stdout", "wb") as so, open(op_dir / "stderr", "wb") as se:
            code, wall, usage, timed_out = _spawn(
                argv, cwd=op_dir, env=checkout.child_env(), stdout=so, stderr=se,
                timeout=OP_TIMEOUT_S)
        steal1 = read_steal_s()
        record = {
            "traced": traced,
            "exit": code,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
            "anchors": [],
        }
        error = None
        if timed_out:
            error = f"killed after {OP_TIMEOUT_S:g} s"
        elif code != 0:
            tail = (op_dir / "stderr").read_text(errors="replace").strip()
            error = f"exit {code}: " + (tail.splitlines()[-1] if tail else "")
        else:
            try:
                record["anchors"] = workload.anchors(out)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                error = f"anchor output unreadable: {type(exc).__name__}: {exc}"
            else:
                missed = [a["name"] for a in record["anchors"] if not a["ok"]]
                if missed:
                    error = "anchor missed: " + "; ".join(missed)
        if traced and layers.is_file():
            record["layers"] = json.loads(layers.read_text())
        record["ok"] = error is None
        if error is not None:
            record["error"] = error
        return record
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def run(checkout: Checkout, workload: Workload, *, seed: int, seconds: float,
        trace: bool) -> dict:
    """One timed run of a workload: set-up samples, then ops for ``seconds``.

    Untimed preparation (environment probe, set-up samples, the cache
    fill of warm-cache workloads) comes first.  Ops then start back to
    back while the next one, at the median length so far, still ends
    inside the window; at least one op runs.  A traced run spends the
    first half of its window on untraced ops, the rest on traced ones,
    and reports the difference as the tracing overhead.
    """
    checkout.require_sources()
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    checkout.scratch.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{workload.name}-",
                                    dir=checkout.scratch))
    try:
        env = environment(checkout, workload, scratch)
        setup = [] if trace else setup_times(checkout, scratch)
        cache = fill = None
        if workload.warm_cache:
            # a failed fill shows up as ops missing their cache-hit anchor
            cache = scratch / "cache"
            fill = run_op(checkout, workload, scratch, traced=False, cache=cache)
        ops = []
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            # stop when the next op, at the median length so far, would overrun
            typical = _median([op["wall_s"] for op in ops])
            if ops and elapsed + typical > seconds and \
                    (not trace or any(op["traced"] for op in ops)):
                break
            traced = trace and bool(ops) and elapsed + typical / 2 >= seconds / 2
            ops.append(run_op(checkout, workload, scratch, traced=traced,
                              cache=cache))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(not op["ok"] for op in ops)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "started": started,
        "env": env,
        "config": workload.config,
        "setup_s": setup,
        "cache_fill": fill,
        "ops": ops,
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "steal_s": _median([op["steal_s"] for op in ops
                            if op["steal_s"] is not None]),
    }
    record["metrics"] = layer_metrics(ops) if trace else end_to_end(ops, setup)
    return record


def end_to_end(ops: list[dict], setup: list[float]) -> dict:
    """Medians over the ops that passed (over all ops if none did)."""
    good = [op for op in ops if op["ok"]] or ops
    return {
        "wall_s": _median([op["wall_s"] for op in good]),
        "cpu_s": _median([op["cpu_s"] for op in good]),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([op["peak_rss_mb"] for op in good]),
    }


def layer_metrics(ops: list[dict]) -> dict:
    """Per-layer medians over traced ops, plus the tracing overhead."""
    traced = [op for op in ops if op["traced"] and "layers" in op]
    untraced = [op for op in ops if not op["traced"]]
    plain = [op["wall_s"] for op in [op for op in untraced if op["ok"]] or untraced]
    names = traced[0]["layers"] if traced else {}
    metrics = {name: _median([op["layers"][name] for op in traced])
               for name in names}
    if traced and plain:
        metrics["trace.overhead_s"] = (
            _median([op["wall_s"] for op in traced]) - _median(plain))
    return metrics
