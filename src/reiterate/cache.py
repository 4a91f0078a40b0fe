"""Disk cache for cell-problem solves.

Entries are keyed by the coefficient field digest, the cascade level, the
frozen slow arguments, the cell resolution, and the solver tolerance, so a
repeated run replays tensors and correctors instead of solving again.
Each file of an entry lands whole through a temporary file and
os.replace, and the JSON sidecar lands last, so a reader either sees a
complete entry or none.  Corrupt or truncated entries are evicted on
lookup and count as misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np

from .cell import load_correctors, save_correctors


def _entry_key(level: int, frozen, resolution, tol: float, d: int) -> str:
    payload = json.dumps({
        "level": level,
        "frozen": ["%.17g" % float(v) for v in frozen],
        "resolution": list(np.atleast_1d(resolution).tolist()),
        "tol": "%.17g" % tol,
        "d": d,
    }, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


class CorrectorCache:
    """Content-addressed store of corrector solves under a root directory."""

    def __init__(self, root: str | os.PathLike | None = None):
        root = root or os.environ.get("REITERATE_CACHE") or ".reiterate-cache"
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _stem(self, field_digest: str, level: int, key: str) -> Path:
        return self.root / field_digest / f"L{level}" / key

    def lookup(self, field_digest: str, level: int, frozen, resolution, tol: float, d: int):
        """Return (chi, tensor, sidecar) or None; evicts unreadable entries."""
        key = _entry_key(level, frozen, resolution, tol, d)
        stem = self._stem(field_digest, level, key)
        if not (stem.with_suffix(".json").exists() and stem.with_suffix(".bin").exists()):
            self.misses += 1
            return None
        try:
            chi, tensor, sidecar = load_correctors(stem)
        except (ValueError, OSError, json.JSONDecodeError):
            self.evict(stem)
            self.misses += 1
            return None
        self.hits += 1
        return chi, tensor, sidecar

    def store(self, field_digest: str, level: int, correctors, tensor) -> Path:
        problem = correctors.problem
        key = _entry_key(level, problem.frozen, problem.grid.shape, problem.tol,
                         problem.grid.d)
        stem = self._stem(field_digest, level, key)
        stem.parent.mkdir(parents=True, exist_ok=True)
        # save_correctors writes the sidecar last: it marks the entry complete
        save_correctors(correctors, tensor, stem)
        self.stores += 1
        return stem

    def evict(self, stem: Path) -> None:
        for suffix in (".json", ".bin"):
            try:
                os.remove(stem.with_suffix(suffix))
            except OSError:
                pass

    def clean(self) -> int:
        """Remove the cache root; returns the number of entries discarded."""
        removed = len(list(self.root.rglob("*.json"))) if self.root.exists() else 0
        shutil.rmtree(self.root, ignore_errors=True)
        return removed
