"""Disk cache for cell-problem solves, one entry per slab.

A cascade level solves its samples in fixed slabs (cascade._SLAB_NODES),
and an entry holds one whole slab: a stacked .bin of its correctors,
shaped (samples, *cell nodes, d), and a JSON sidecar with the stack shape
and, for every sample, the frozen row, tensor, spectrum and iterations.
Entries are keyed by the coefficient field digest, the cascade level, the
slab's frozen rows, the cell resolution, the solver tolerance and d, so a
repeated run replays tensors and correctors instead of solving again.
They live at slab-<bound>/<field digest>/L<level>/<key>: the slab bound
decides which frozen rows share an entry, so entries of another bound
are never reached, and clean counts only those of the current bound.
A slab hits or misses as a whole; the hit and miss counters count the
samples an entry serves.  A collapsed cascade level (a field that
declares A = scale * fast) is one entry: the single cell of its fast
factor, keyed by that factor's digest, sha256("<field digest>|fast")
truncated to 16 hex digits for every family, and looked up with serves
set to the level's sample count.
Each file of an entry lands whole through a temporary file and
os.replace, and the sidecar lands last, so a reader either sees a
complete entry or none.  Corrupt or truncated entries, and sidecars that
disagree with the request, are evicted on lookup and count as misses.
``reiterate cell`` writes its artifact with the same writer, save_slab, as
a slab of one sample, so load_correctors reads it too.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from . import cascade
from .coeff import hex_digest
from .grid import atomic_bytes


def _entry_key(level: int, frozen_rows, resolution, tol: float, d: int) -> str:
    payload = json.dumps({
        "level": level,
        "frozen": [["%.17g" % float(v) for v in row] for row in frozen_rows],
        "resolution": list(np.atleast_1d(resolution).tolist()),
        "tol": "%.17g" % tol,
        "d": d,
    }, sort_keys=True)
    return hex_digest(payload, 24)


def save_slab(stem, stack, chi, iterations, tensors, spectra) -> None:
    """Write one slab at stem: the CellStack with the correctors
    (samples, *cell nodes, d) and iterations (samples, d) that
    cell.solve_corrector returns for it, and its (samples, d, d) tensors
    and (samples, 2) spectra from cell.effective_tensor.  stem.bin holds
    the correctors as raw little-endian f8; the stem.json sidecar lands
    last and marks the slab complete."""
    grid = stack.grid
    chi = np.ascontiguousarray(chi, dtype="<f8")
    atomic_bytes(f"{stem}.bin", chi.tobytes())
    sidecar = {
        "frozen": np.asarray(stack.frozen, dtype=float).tolist(),
        "tol": stack.tol,
        "resolution": list(grid.shape),
        "shape": list(chi.shape),
        "iterations": iterations.tolist(),
        "tensor": tensors.tolist(),
        "spectrum": spectra.tolist(),
    }
    atomic_bytes(f"{stem}.json", json.dumps(sidecar, sort_keys=True).encode())


def load_correctors(stem):
    """(chi stack, sidecar) of one slab; ValueError when the .bin does not
    hold exactly the stack shape the sidecar gives."""
    with open(f"{stem}.json") as fh:
        sidecar = json.load(fh)
    with open(f"{stem}.bin", "rb") as fh:
        raw = fh.read()
    chi = np.frombuffer(raw, dtype="<f8").reshape([int(n) for n in sidecar["shape"]])
    return chi.copy(), sidecar


class CorrectorCache:
    """Content-addressed store of slab solves under a root directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.hits = 0  # samples
        self.misses = 0  # samples
        self.stores = 0  # entries

    def _reachable(self) -> Path:
        """The directory of the current slab bound's entries."""
        return self.root / f"slab-{cascade._SLAB_NODES}"

    def _stem(self, field_digest: str, level: int, key: str) -> Path:
        return self._reachable() / field_digest / f"L{level}" / key

    def lookup(self, field_digest: str, level: int, frozen_rows, resolution,
               tol: float, d: int, serves: int | None = None):
        """Return (chi stack, sidecar) for a slab or None; evicts entries
        that are unreadable or describe another slab.  The counters book
        the samples the entry serves: serves when given (a collapsed
        level's one cell serves the whole level), else its rows."""
        rows = np.asarray(frozen_rows, dtype=float).tolist()
        served = len(rows) if serves is None else serves
        resolution = list(np.atleast_1d(resolution).tolist())
        stem = self._stem(field_digest, level,
                          _entry_key(level, rows, resolution, tol, d))
        if not (stem.with_suffix(".json").exists() and stem.with_suffix(".bin").exists()):
            self.misses += served
            return None
        try:
            chi, sidecar = load_correctors(stem)
            ok = (sidecar["frozen"] == rows and sidecar["resolution"] == resolution
                  and sidecar["tol"] == tol
                  and list(chi.shape) == [len(rows)] + resolution + [d]
                  and all(len(sidecar[k]) == len(rows)
                          for k in ("tensor", "spectrum", "iterations")))
        except (ValueError, OSError, KeyError, TypeError):
            ok = False
        if not ok:
            self.evict(stem)
            self.misses += served
            return None
        self.hits += served
        return chi, sidecar

    def store(self, field_digest: str, level: int, stack, chi, iterations, tensors,
              spectra) -> Path:
        """Write one slab entry through save_slab; returns its stem."""
        grid = stack.grid
        rows = np.asarray(stack.frozen, dtype=float).tolist()
        stem = self._stem(field_digest, level,
                          _entry_key(level, rows, grid.shape, stack.tol, grid.d))
        stem.parent.mkdir(parents=True, exist_ok=True)
        save_slab(stem, stack, chi, iterations, tensors, spectra)
        self.stores += 1
        return stem

    def evict(self, stem: Path) -> None:
        for suffix in (".json", ".bin"):
            try:
                os.remove(stem.with_suffix(suffix))
            except OSError:
                pass

    def clean(self) -> int:
        """Remove the cache root; returns the number of entries discarded
        that a request could still reach, those of the current slab bound."""
        removed = len(list(self._reachable().rglob("*.json")))
        shutil.rmtree(self.root, ignore_errors=True)
        return removed
