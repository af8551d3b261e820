"""One resolved run configuration: the six ``REPRO_*`` knobs, read once.

Layer: cross-cutting utility below :mod:`repro.obs` (imports nothing
from :mod:`repro`).  Responsibility: turn the environment — and, at
the CLI, the flags that override it — into one frozen
:class:`RunConfig`, and be the only code that reads ``os.environ``.

Every knob is execution policy: it changes how a run executes (worker
count, failure policy, cache location, tracing, the sanitizer), never
a finite result.  That is why no cache key ever sees a
:class:`RunConfig`: the keys hash only the explicit inputs of the
artifact they name.

Entry points resolve the config once (``repro run``, ``repro
characterize`` and ``repro cache`` with their flags taking precedence)
and pass it down explicitly; library functions take ``config:
RunConfig | None = None`` where ``None`` means :meth:`RunConfig.from_env`,
resolved once per call.  A malformed value fails at resolution, naming
the variable, before any work starts.

Boolean knobs share one grammar: ``""``, ``0``, ``false``, ``off`` and
``no`` (any case) mean false, anything else true.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Any, Mapping

WORKERS_ENV = "REPRO_WORKERS"
STRICT_ENV = "REPRO_STRICT"
NO_CACHE_ENV = "REPRO_NO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
TRACE_ENV = "REPRO_TRACE"
SANITIZE_ENV = "REPRO_SANITIZE"

#: Words a boolean knob reads as false (compared case-insensitively).
FALSE_WORDS = ("", "0", "false", "off", "no")

#: Cache root used when ``REPRO_CACHE_DIR`` is unset.
DEFAULT_CACHE_DIR = Path("~/.cache/repro-gnrfet")


def _parse_flag(raw: str) -> bool:
    """The boolean-knob grammar: false words are false, anything else true."""
    return raw.strip().lower() not in FALSE_WORDS


def _parse_workers(raw: str) -> int:
    try:
        return int(raw.strip() or "1")
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """How a run executes; never what it computes.

    A config built directly reads no environment: ``RunConfig(workers=2)``
    caches under :data:`DEFAULT_CACHE_DIR` whatever ``REPRO_CACHE_DIR``
    says, and ``RunConfig.from_env().override(workers=2)`` keeps it.

    Attributes
    ----------
    workers:
        Experiments run in parallel worker processes (``<= 1`` is
        serial); the sweeps inside an experiment always run in-process.
    strict:
        Raise on the first failed sweep cell instead of quarantining it.
    use_cache:
        Use the on-disk device-table store; ``False`` neither reads nor
        writes it.
    cache_dir:
        Cache root; ``None`` is :data:`DEFAULT_CACHE_DIR`.
    trace:
        Switch on :mod:`repro.obs` tracing.
    sanitize:
        Switch on the numerical sanitizer (:mod:`repro.sanitize`).
    """

    workers: int = 1
    strict: bool = False
    use_cache: bool = True
    cache_dir: Path | None = None
    trace: bool = False
    sanitize: bool = False

    def __post_init__(self) -> None:
        for name in ("strict", "use_cache", "trace", "sanitize"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a bool, got "
                                 f"{getattr(self, name)!r}")
        if (isinstance(self.workers, bool)
                or not isinstance(self.workers, int)):
            raise ValueError(
                f"workers must be an integer, got {self.workers!r}")
        if self.cache_dir is not None and not isinstance(self.cache_dir,
                                                         Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    @property
    def cache_root(self) -> Path:
        """The cache root directory (not created until first write)."""
        root = DEFAULT_CACHE_DIR if self.cache_dir is None else self.cache_dir
        return root.expanduser()

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None
                 ) -> "RunConfig":
        """Resolve every knob from ``environ`` (default ``os.environ``).

        Raises ``ValueError`` naming the variable for a malformed value.
        """
        env = os.environ if environ is None else environ

        def parsed(name: str, parse, default: Any) -> Any:
            raw = env.get(name)
            if raw is None:
                return default
            try:
                return parse(raw)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

        cache_dir = env.get(CACHE_DIR_ENV, "").strip()
        return cls(
            workers=parsed(WORKERS_ENV, _parse_workers, 1),
            strict=parsed(STRICT_ENV, _parse_flag, False),
            use_cache=not parsed(NO_CACHE_ENV, _parse_flag, False),
            cache_dir=Path(cache_dir) if cache_dir else None,
            trace=parsed(TRACE_ENV, _parse_flag, False),
            sanitize=parsed(SANITIZE_ENV, _parse_flag, False),
        )

    def override(self, **values: Any) -> "RunConfig":
        """This config with every non-``None`` value replaced (CLI flags)."""
        return dataclasses.replace(
            self, **{k: v for k, v in values.items() if v is not None})

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, every field included (the manifest block)."""
        data = dataclasses.asdict(self)
        data["cache_dir"] = (None if self.cache_dir is None
                             else str(self.cache_dir))
        return data


__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_CACHE_DIR",
    "FALSE_WORDS",
    "NO_CACHE_ENV",
    "RunConfig",
    "SANITIZE_ENV",
    "STRICT_ENV",
    "TRACE_ENV",
    "WORKERS_ENV",
]
