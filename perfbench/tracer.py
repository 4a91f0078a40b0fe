"""Run one ``reiterate`` CLI command with layer timers installed from outside.

Usage: ``python tracer.py <layers.json> <subcommand> --config ... [flags]``

The wrappers replace every binding of a traced function that any loaded
``reiterate`` module holds (``cli`` imports ``homogenize_all`` by name,
``grid`` reaches the kernels through the module attribute), so each call
lands in exactly one span whichever route it takes.  Spans nest on a
stack: a span's self time is its duration minus the time of the traced
spans it called.  Only per-layer totals are kept in memory; they are
written to ``layers.json`` when the command ends, also when it crashes.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

KERNELS = ("matvec_periodic_1d", "matvec_periodic_2d", "matvec_box_1d",
           "matvec_box_2d")

# (module, attribute, layer); the layer collects self time and calls
SPANS = (
    ("grid", "pcg", "grid.pcg"),
    ("grid", "FluxStencil.__init__", "grid.setup"),
    ("grid", "FluxStencil.diagonal", "grid.setup"),
    ("grid", "_tridiagonal_box_solve", "grid.direct"),
    ("cache", "CorrectorCache.lookup", "cache.read"),
    ("cache", "load_correctors", "cache.load"),
    ("cache", "CorrectorCache.store", "cache.write"),
    ("coeff", "CoefficientField.__call__", "coeff"),
    ("cell", "solve_corrector", "cell"),
    ("cell", "effective_tensor", "cell.tensor"),
    ("cascade", "homogenize_all", "cascade.all"),
    ("cascade", "descend", "cascade"),
    ("cascade", "multilinear", "cascade.interp"),
    ("dirichlet", "solve_multiscale", "dirichlet"),
    ("dirichlet", "solve_homogenized", "dirichlet"),
    ("cli", "_atomic_bytes", "cli.write"),
    ("config", "parse_config", "config"),
)


def _file_bytes(stem) -> int:
    return sum(os.path.getsize(f"{stem}{suffix}") for suffix in (".bin", ".json"))


class Tracer:
    """Per-layer call counts, self times and work counters for one process."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.stack = [[0.0]]  # child time accumulated by each open span
        self.matvec = [0, 0.0, 0, 0]  # calls, seconds, nodes, bytes touched

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, layer: str, hook=None):
        stats, stack = self.stats, self.stack

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][0] += dt
                stats[layer + ".self"] += dt - frame[0]
                stats[layer + ".calls"] += 1
            if hook is not None:
                hook(out, args)
            return out

        return span

    def _kernel(self, fn):
        counters, stack = self.matvec, self.stack
        ndarray = np.ndarray

        # leaf span on the hot path: a clock pair and four counters
        def matvec(*args):
            t0 = perf_counter()
            out = fn(*args)
            dt = perf_counter() - t0
            stack[-1][0] += dt
            counters[0] += 1
            counters[1] += dt
            counters[2] += out.size
            counters[3] += out.nbytes + sum(a.nbytes for a in args
                                            if type(a) is ndarray)
            return out

        return matvec

    # -- hooks reading counts from return values -----------------------------

    def _pcg_done(self, out, args):
        info = out[1]
        self.stats["grid.pcg.iterations"] += info["iterations"]
        if info["residuals"]:
            self.stats["grid.pcg.max_residual"] = max(
                self.stats["grid.pcg.max_residual"], info["residuals"][-1])

    def _lookup_done(self, out, args):
        self.stats["cache.read.hits"] += out is not None

    def _load_done(self, out, args):
        self.stats["cache.read.bytes"] += _file_bytes(args[0])

    def _store_done(self, out, args):
        self.stats["cache.write.bytes"] += _file_bytes(out)

    def _eval_done(self, out, args):
        self.stats["coeff.points"] += out.size // (out.shape[-1] * out.shape[-2])

    def _descend_done(self, out, args):
        self.stats["cascade.samples"] += out[1].samples

    def _write_done(self, out, args):
        self.stats["cli.write.bytes"] += len(args[1])

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under each name any module binds it to."""
        from reiterate import cli  # noqa: F401  (loads every module cli needs)

        modules = [m for name, m in sys.modules.items()
                   if name == "reiterate" or name.startswith("reiterate.")]
        hooks = {"grid.pcg": self._pcg_done, "cache.read": self._lookup_done,
                 "cache.load": self._load_done, "cache.write": self._store_done,
                 "coeff": self._eval_done, "cascade": self._descend_done,
                 "cli.write": self._write_done}
        kernels = importlib.import_module("reiterate.kernels")
        for name in KERNELS:
            self._rebind(modules, getattr(kernels, name),
                         self._kernel(getattr(kernels, name)))
        probes = importlib.import_module("reiterate.probes")
        public = [name for name, fn in vars(probes).items()
                  if inspect.isfunction(fn) and fn.__module__ == probes.__name__
                  and not name.startswith("_")]
        spans = list(SPANS) + [("probes", name, "probes") for name in public]
        for module_name, attr, layer in spans:
            module = importlib.import_module(f"reiterate.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method,
                        self._span(vars(cls)[method], layer, hooks.get(layer)))
            else:
                orig = getattr(module, attr)
                self._rebind(modules, orig, self._span(orig, layer, hooks.get(layer)))

    @staticmethod
    def _rebind(modules, orig, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, name, wrapper)

    # -- report --------------------------------------------------------------

    def report(self) -> dict:
        s = self.stats
        calls, seconds, nodes, touched = self.matvec
        lookups = s["cache.read.calls"]
        return {
            "kernels.matvec_calls": calls,
            "kernels.matvec_nodes": nodes,
            "kernels.matvec_s": seconds,
            "kernels.ns_per_node": 1e9 * seconds / nodes if nodes else 0.0,
            "kernels.bytes_computed": touched,
            "grid.pcg_solves": s["grid.pcg.calls"],
            "grid.pcg_iterations": s["grid.pcg.iterations"],
            "grid.pcg_s": s["grid.pcg.self"],
            "grid.pcg_max_residual": s["grid.pcg.max_residual"],
            "grid.setup_s": s["grid.setup.self"],
            "grid.direct_solves": s["grid.direct.calls"],
            "grid.direct_s": s["grid.direct.self"],
            "cache.stores": s["cache.write.calls"],
            "cache.write_s": s["cache.write.self"],
            "cache.write_bytes": s["cache.write.bytes"],
            "cache.lookups": lookups,
            "cache.hit_ratio": s["cache.read.hits"] / lookups if lookups else 0.0,
            "cache.read_s": s["cache.read.self"] + s["cache.load.self"],
            "cache.read_bytes": s["cache.read.bytes"],
            "coeff.eval_calls": s["coeff.calls"],
            "coeff.eval_points": s["coeff.points"],
            "coeff.eval_s": s["coeff.self"],
            "cell.solves": s["cell.calls"],
            "cell.s": s["cell.self"] + s["cell.tensor.self"],
            "cascade.samples": s["cascade.samples"],
            "cascade.s": s["cascade.self"] + s["cascade.all.self"],
            "cascade.interp_s": s["cascade.interp.self"],
            "dirichlet.solves": s["dirichlet.calls"],
            "dirichlet.s": s["dirichlet.self"],
            "probes.calls": s["probes.calls"],
            "probes.s": s["probes.self"],
            "cli.write_s": s["cli.write.self"],
            "cli.write_bytes": s["cli.write.bytes"],
            "config.parse_s": s["config.self"],
        }


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from reiterate import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
