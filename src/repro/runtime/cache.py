"""Content-addressed on-disk cache for expensive simulation artifacts.

The self-consistent device tables behind every circuit-level experiment
take seconds-to-minutes to build but depend only on (geometry, bias
grids, mode count, engine version).  This module persists them as
compressed ``.npz`` payloads keyed by a stable content hash, so a fresh
process — a new CLI invocation, a test run, a benchmark worker — reuses
tables computed by any earlier one.  Three producers share the store
through :func:`load_or_build`, one namespace each: the device tables
(``tables``), Fig. 5's NEGF+Poisson bias points (``negf``) and the
edge-roughness transmission ensembles (``roughness``).

Layout and protocol
-------------------
* Root and on/off switch come from the run's
  :class:`~repro.config.RunConfig` (``cache_root`` / ``use_cache``:
  ``~/.cache/repro-gnrfet`` unless ``REPRO_CACHE_DIR`` says otherwise,
  off with ``REPRO_NO_CACHE=1``).
* One file per artifact: ``<root>/<namespace>/<sha256-hex>.npz``.
* Writes are atomic (write to a same-directory temp file, then
  ``os.replace``), so concurrent workers never observe torn files; the
  last writer wins with an identical payload.
* Keys hash a canonical string form of the inputs: dataclasses are
  flattened field-by-field (sorted), floats go through ``repr`` (full
  precision), arrays through their dtype/shape/bytes.  Any change to
  an artifact's inputs (a table's geometry, grids, mode count or engine
  version tag) changes its key.
* A corrupt or truncated payload reads as a miss, and the rebuilt
  artifact replaces it.
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
import zipfile
import zlib
from pathlib import Path
from typing import Any, Callable, TypeVar

import numpy as np

from repro import obs
from repro.config import RunConfig

#: Version tag of the fast SBFET table engine.  Bump when the engine's
#: physics or numerics change so previously cached tables are not reused.
#: v2: warm-start continuation along V_D rows (converged midgaps move
#: within the bisection tolerance relative to cold-started v1 tables).
#: v3: semianalytic WKB kernel with shared ``(E - u)**2``, matvec gap
#: integrals and CDF band masks (currents move in the last bits).  Cells
#: are cold-started again without a tag bump: dropping the warm-start
#: flag from the table key already changed every digest.
#: v4: breakpoint Landauer grid in ``SBFETModel.current_a`` (currents
#: move by up to ~5e-4 relative; midgaps and charges are bitwise).
#: v5: p-branch currents of mirror-symmetric models are their canonical
#: n-branch twins' integrals (move by up to 2.6e-12 relative; midgaps,
#: charges and n-branch currents are bitwise).
TABLE_ENGINE_VERSION = "sbfet-v5"

T = TypeVar("T")


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
    degrades every operation to a no-op / miss.  ``root`` / ``enabled``
    left at ``None`` come from :meth:`RunConfig.from_env`, resolved once
    here.
    """

    def __init__(self, namespace: str, root: Path | None = None,
                 enabled: bool | None = None):
        if root is None or enabled is None:
            config = RunConfig.from_env()
            root = config.cache_root if root is None else root
            enabled = config.use_cache if enabled is None else enabled
        self.namespace = namespace
        self.enabled = enabled
        self.directory = Path(root) / namespace

    @classmethod
    def for_config(cls, namespace: str, config: RunConfig) -> "ArtifactCache":
        """The ``namespace`` store under ``config``'s root and switch."""
        return cls(namespace, config.cache_root, config.use_cache)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    def get(self, key: str) -> dict[str, np.ndarray] | None:
        """Load a payload, or None on miss / disabled / corrupt file."""
        if not self.enabled:
            return None
        path = self.path_for(key)
        payload = None
        if path.is_file():
            try:
                with np.load(path, allow_pickle=False) as data:
                    payload = {name: data[name] for name in data.files}
            except (OSError, ValueError, KeyError, EOFError,
                    zipfile.BadZipFile, zlib.error):
                # Torn or foreign file: a miss, and the rebuilt artifact
                # atomically replaces it.  A truncated zip raises
                # BadZipFile, an empty file EOFError, a bit-flipped
                # member zlib.error, and bytes that are no zip at all
                # ValueError (np.load refuses them as a pickle).
                pass
        if obs.ACTIVE:
            outcome = "misses" if payload is None else "hits"
            obs.incr(f"cache.artifact_{outcome}")
            obs.incr(f"cache.{self.namespace}.{outcome}")
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
            obs.incr(f"cache.{self.namespace}.writes")
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


def cache_namespaces(root: Path) -> list[str]:
    """Names of the namespaces present under a cache root, sorted."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p.name for p in root.iterdir() if p.is_dir())


def load_or_build(
    store: ArtifactCache,
    key: str,
    decode: Callable[[dict[str, np.ndarray]], T],
    build: Callable[[], T],
    encode: Callable[[T], dict[str, np.ndarray] | None],
) -> T:
    """The artifact under ``key`` in ``store``, built on a miss.

    A stored payload is turned back into a value by ``decode``; one that
    fails to decode (``KeyError`` / ``ValueError``: a member missing or
    malformed) counts as a miss.  On a miss ``build()`` computes the
    value, and ``encode`` gives the arrays to persist under ``key``, or
    None for a value that must not outlive this process (a table with
    quarantined cells, an unconverged solve), which is then not written.
    A disabled store never reads or writes, so every call builds.
    """
    payload = store.get(key)
    if payload is not None:
        try:
            return decode(payload)
        except (KeyError, ValueError):
            pass  # foreign or stale layout: rebuild and replace it
    value = build()
    arrays = encode(value)
    if arrays is not None:
        store.put(key, **arrays)
    return value

