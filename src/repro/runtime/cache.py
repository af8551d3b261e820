"""Content-addressed on-disk cache for expensive simulation artifacts.

The self-consistent device tables behind every circuit-level experiment
take seconds-to-minutes to build but depend only on (geometry, bias
grids, mode count, engine version).  This module persists them as
compressed ``.npz`` payloads keyed by a stable content hash, so a fresh
process — a new CLI invocation, a test run, a benchmark worker — reuses
tables computed by any earlier one.

Layout and protocol
-------------------
* Default root: ``~/.cache/repro-gnrfet`` (override with
  ``REPRO_CACHE_DIR``; disable entirely with ``REPRO_NO_CACHE=1``).
* One file per artifact: ``<root>/<namespace>/<sha256-hex>.npz``.
* Writes are atomic (write to a same-directory temp file, then
  ``os.replace``), so concurrent workers never observe torn files; the
  last writer wins with an identical payload.
* Keys hash a canonical string form of the inputs: dataclasses are
  flattened field-by-field (sorted), floats go through ``repr`` (full
  precision), arrays through their dtype/shape/bytes.  Any change to
  geometry, grids, mode count or the engine version tag changes the key.
* Invalidation is by construction: nothing is ever mutated in place.
  Bump the relevant ``*_VERSION`` tag when an engine's physics changes
  so stale artifacts are orphaned rather than reused.  ``repro cache
  clear`` (or deleting the directory) reclaims space.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro import obs

#: Environment variable overriding the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the disk cache entirely (any non-empty
#: value).
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Version tag of the fast SBFET table engine.  Bump when the engine's
#: physics or numerics change so previously cached tables are not reused.
#: v2: warm-start continuation along V_D rows (converged midgaps move
#: within the bisection tolerance relative to cold-started v1 tables).
#: v3: semianalytic WKB kernel with shared ``(E - u)**2``, matvec gap
#: integrals and CDF band masks (currents move in the last bits).  Cells
#: are cold-started again without a tag bump: dropping the warm-start
#: flag from the table key already changed every digest.
TABLE_ENGINE_VERSION = "sbfet-v3"


def cache_enabled() -> bool:
    """True unless ``REPRO_NO_CACHE`` is set (to any non-empty value)."""
    return not os.environ.get(NO_CACHE_ENV)


def cache_root() -> Path:
    """Cache root directory (not created until first write)."""
    override = os.environ.get(CACHE_DIR_ENV, "").strip()
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "repro-gnrfet"


def canonical_repr(value: Any) -> str:
    """Stable, content-complete string form of a cache-key component.

    Handles the types that appear in simulation specifications:
    dataclasses (flattened field-by-field), mappings/sequences
    (recursively), numpy arrays (dtype + shape + raw bytes), floats
    (``repr``: full precision) and None.  Unknown objects raise rather
    than silently hashing an address-based ``repr``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = sorted(dataclasses.fields(value), key=lambda f: f.name)
        inner = ",".join(
            f"{f.name}={canonical_repr(getattr(value, f.name))}"
            for f in fields)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        return (f"ndarray(dtype={arr.dtype.str},shape={arr.shape},"
                f"sha={hashlib.sha256(arr.tobytes()).hexdigest()})")
    if isinstance(value, np.generic):
        return canonical_repr(value.item())
    if isinstance(value, dict):
        inner = ",".join(f"{canonical_repr(k)}:{canonical_repr(v)}"
                         for k, v in sorted(value.items(),
                                            key=lambda kv: repr(kv[0])))
        return f"dict({inner})"
    if isinstance(value, (list, tuple)):
        inner = ",".join(canonical_repr(v) for v in value)
        return f"{type(value).__name__}({inner})"
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}")


def content_key(*parts: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``parts``."""
    text = "|".join(canonical_repr(p) for p in parts)
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactCache:
    """One namespace of the on-disk artifact store.

    Payloads are dictionaries of numpy arrays, stored as compressed
    ``.npz`` files under ``<root>/<namespace>/``.  A disabled cache
    (``REPRO_NO_CACHE``) degrades every operation to a no-op / miss.
    """

    def __init__(self, namespace: str, root: Path | None = None,
                 enabled: bool | None = None):
        self.namespace = namespace
        self._root = root
        self._enabled = enabled

    @property
    def enabled(self) -> bool:
        return cache_enabled() if self._enabled is None else self._enabled

    @property
    def directory(self) -> Path:
        return (self._root if self._root is not None
                else cache_root()) / self.namespace

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """Load a payload, or None on miss / disabled / corrupt file."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        if not path.is_file():
            if obs.ACTIVE:
                obs.incr("cache.artifact_misses")
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                payload = {name: data[name] for name in data.files}
        except (OSError, ValueError, KeyError):
            # Torn or foreign file: treat as a miss; the rebuilt artifact
            # will atomically replace it.
            if obs.ACTIVE:
                obs.incr("cache.artifact_misses")
            return None
        if obs.ACTIVE:
            obs.incr("cache.artifact_hits")
        return payload

    def put(self, key: str, **arrays: np.ndarray) -> Path | None:
        """Atomically persist a payload; returns the path (None if
        disabled)."""
        if not self.enabled:
            return None
        directory = self.directory
        directory.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez_compressed(handle, **arrays)
            os.replace(tmp, final)  # atomic on POSIX
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        if obs.ACTIVE:
            obs.incr("cache.artifact_writes")
        return final

    def keys(self) -> list[str]:
        """Keys currently present on disk (empty if disabled/missing)."""
        if not self.enabled or not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.npz"))

    def size_bytes(self) -> int:
        """Total bytes of all payloads in this namespace."""
        if not self.directory.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.directory.glob("*.npz"))

    def clear(self) -> int:
        """Delete every payload in this namespace; returns count removed."""
        removed = 0
        if self.directory.is_dir():
            for p in list(self.directory.glob("*.npz")):
                p.unlink(missing_ok=True)
                removed += 1
            for p in list(self.directory.glob("*.tmp")):
                p.unlink(missing_ok=True)
        return removed


def clear_all(namespaces: Iterable[str] = ("tables",)) -> int:
    """Clear the listed namespaces of the active cache root."""
    return sum(ArtifactCache(ns).clear() for ns in namespaces)
