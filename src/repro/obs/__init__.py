"""Observability layer: opt-in span tracing, metrics, and run manifests.

Layer: cross-cutting utility (imports nothing above :mod:`repro.errors`;
importable from runtime, negf, device, circuit, exploration and cli).
Responsibility: answer "where did this run spend its time and
iterations" without changing any numerical result.

The recorder is process-local: one module-level :class:`Recorder`
accumulates spans, counters, gauges and histograms; hot call sites
guard with ``if obs.ACTIVE:`` so the disabled path is one attribute
load and an untaken branch (the same pattern — and the same overhead
benchmark methodology — as :mod:`repro.sanitize`, pinned by
``benchmarks/bench_obs_overhead.py``).  Entry points switch tracing on
from their :class:`~repro.config.RunConfig` (``REPRO_TRACE`` /
``--trace``).  Worker processes started by
:func:`repro.runtime.parallel_map` get the parent's flag from the pool
initializer, record into their own recorder, and ship a
:func:`drain`-ed payload back with their chunk results; the parent
:func:`absorb`-s those payloads in chunk order, so aggregation is
deterministic at any worker count.

Spans aggregate by *path*: a span named ``b`` opened inside a span
named ``a`` contributes to the key ``"a/b"``.  Durations use
``time.perf_counter`` (interval timing only — manifests deliberately
carry no wall-clock timestamps, keeping the determinism contract of
RPA103 intact).

Submodules: :mod:`repro.obs.manifest` (per-run JSON manifests, written
atomically) and :mod:`repro.obs.summary` (text/JSON reporters behind
``repro trace summarize``); both are re-exported here.

The flag, the recorder, and the recording helpers live directly in this
``__init__`` — not a submodule — so ``obs.ACTIVE`` is the *defining*
attribute: :func:`enable`, ``monkeypatch.setattr(obs, "ACTIVE", ...)``
and every ``if obs.ACTIVE:`` guard all touch the same binding.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

#: Raw observations retained per histogram; count/total/min/max stay
#: exact beyond the cap, only the stored sample list saturates.
HISTOGRAM_VALUE_CAP = 4096

#: Structured failure records retained per run; a counter
#: (``resilience.failures_dropped``) keeps the overflow visible.
FAILURE_RECORD_CAP = 1024


#: Module-level guard flag read by every instrumented call site
#: (``if obs.ACTIVE:``).  Off until :func:`enable`.
ACTIVE: bool = False


def enable() -> None:
    """Switch tracing on for this process and the workers it starts."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Switch tracing off."""
    global ACTIVE
    ACTIVE = False


def active() -> bool:
    """Current tracing state (prefer reading :data:`ACTIVE` in hot paths)."""
    return ACTIVE


class Recorder:
    """Process-local accumulator for spans, counters, gauges, histograms.

    All state is plain dictionaries keyed by metric/span name so a
    :meth:`snapshot` is directly JSON-serializable and :meth:`merge`
    (used to absorb worker payloads) is pure dictionary arithmetic.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, Any]] = {}
        self.spans: dict[str, dict[str, Any]] = {}
        self.failures: list[dict[str, Any]] = []
        self.stack: list[str] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def incr(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            hist = {"count": 0, "total": 0.0, "min": value, "max": value,
                    "values": []}
            self.histograms[name] = hist
        hist["count"] += 1
        hist["total"] += value
        hist["min"] = min(hist["min"], value)
        hist["max"] = max(hist["max"], value)
        if len(hist["values"]) < HISTOGRAM_VALUE_CAP:
            hist["values"].append(value)

    def record_span(self, path: str, duration_s: float,
                    attrs: Mapping[str, Any]) -> None:
        span = self.spans.get(path)
        if span is None:
            span = {"count": 0, "total_s": 0.0, "min_s": duration_s,
                    "max_s": duration_s, "attrs": {}}
            self.spans[path] = span
        span["count"] += 1
        span["total_s"] += duration_s
        span["min_s"] = min(span["min_s"], duration_s)
        span["max_s"] = max(span["max_s"], duration_s)
        if attrs:
            span["attrs"].update(attrs)

    def record_failure(self, record: Mapping[str, Any]) -> None:
        """Append one structured quarantine record (JSON-safe mapping).

        Records past :data:`FAILURE_RECORD_CAP` are dropped but counted
        under ``resilience.failures_dropped`` so saturation is visible.
        """
        if len(self.failures) < FAILURE_RECORD_CAP:
            self.failures.append(dict(record))
        else:
            self.incr("resilience.failures_dropped")

    def current_path(self) -> str:
        """Path of the innermost open span (empty string at top level)."""
        return self.stack[-1] if self.stack else ""

    # ------------------------------------------------------------------ #
    # Export / merge
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict[str, Any]:
        """Deep-copied, JSON-serializable view of the recorded state."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {"count": h["count"], "total": h["total"],
                       "min": h["min"], "max": h["max"],
                       "values": list(h["values"])}
                for name, h in sorted(self.histograms.items())},
            "spans": {
                path: {"count": s["count"], "total_s": s["total_s"],
                       "min_s": s["min_s"], "max_s": s["max_s"],
                       "attrs": dict(s["attrs"])}
                for path, s in sorted(self.spans.items())},
            "failures": [dict(f) for f in self.failures],
        }

    def merge(self, payload: Mapping[str, Any], prefix: str = "") -> None:
        """Fold a :meth:`snapshot` payload into this recorder.

        ``prefix`` re-roots the payload's span paths (used to nest worker
        spans under the parent's currently open span).  Counter and
        histogram merges are order-independent; gauges are last-writer-
        wins, which is deterministic because callers merge payloads in
        chunk order.
        """
        for name, value in payload.get("counters", {}).items():
            self.incr(name, value)
        for name, value in payload.get("gauges", {}).items():
            self.gauge(name, value)
        for name, h in payload.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = {"count": 0, "total": 0.0, "min": h["min"],
                        "max": h["max"], "values": []}
                self.histograms[name] = hist
            hist["count"] += h["count"]
            hist["total"] += h["total"]
            hist["min"] = min(hist["min"], h["min"])
            hist["max"] = max(hist["max"], h["max"])
            room = HISTOGRAM_VALUE_CAP - len(hist["values"])
            if room > 0:
                hist["values"].extend(h["values"][:room])
        for path, s in payload.get("spans", {}).items():
            full = f"{prefix}/{path}" if prefix else path
            span = self.spans.get(full)
            if span is None:
                span = {"count": 0, "total_s": 0.0, "min_s": s["min_s"],
                        "max_s": s["max_s"], "attrs": {}}
                self.spans[full] = span
            span["count"] += s["count"]
            span["total_s"] += s["total_s"]
            span["min_s"] = min(span["min_s"], s["min_s"])
            span["max_s"] = max(span["max_s"], s["max_s"])
            span["attrs"].update(s.get("attrs", {}))
        for record in payload.get("failures", []):
            self.record_failure(record)

    def reset(self) -> None:
        """Drop all recorded state (open-span stack included)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.spans.clear()
        self.failures.clear()
        self.stack.clear()


#: The process-wide recorder every module-level helper writes into.
_RECORDER = Recorder()


class _Span:
    """Context manager timing one traced region (enabled path)."""

    __slots__ = ("name", "attrs", "_path", "_start")

    def __init__(self, name: str, attrs: dict[str, Any]):
        self.name = name
        self.attrs = attrs
        self._path = ""
        self._start = 0.0

    def __enter__(self) -> "_Span":
        parent = _RECORDER.current_path()
        self._path = f"{parent}/{self.name}" if parent else self.name
        _RECORDER.stack.append(self._path)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        if _RECORDER.stack and _RECORDER.stack[-1] == self._path:
            _RECORDER.stack.pop()
        _RECORDER.record_span(self._path, duration, self.attrs)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: Singleton no-op context manager: ``span(...)`` returns this exact
#: object whenever :data:`ACTIVE` is false, so the disabled path
#: allocates nothing.
NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any) -> "_Span | _NullSpan":
    """Open a traced region: ``with obs.span("scf.solve", vg=0.4): ...``.

    Nested spans aggregate under slash-joined paths
    (``"device.sweep_iv/runtime.parallel_map"``).  Keyword attributes are
    attached to the aggregate (last occurrence wins) — use them for
    small identifying facts (device index, bias), not bulk data.
    """
    if not ACTIVE:
        return NULL_SPAN
    return _Span(name, attrs)


def incr(name: str, value: float = 1) -> None:
    """Add ``value`` to a counter (no-op while disabled)."""
    if ACTIVE:
        _RECORDER.incr(name, value)


def gauge(name: str, value: float) -> None:
    """Set a gauge to its latest value (no-op while disabled)."""
    if ACTIVE:
        _RECORDER.gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation (no-op while disabled)."""
    if ACTIVE:
        _RECORDER.observe(name, float(value))


def record_failure(record: Mapping[str, Any]) -> None:
    """Record one structured failure record (no-op while disabled)."""
    if ACTIVE:
        _RECORDER.record_failure(record)


def current_recorder() -> Recorder:
    """The process-wide recorder (mainly for tests and manifests)."""
    return _RECORDER


def snapshot() -> dict[str, Any]:
    """JSON-serializable copy of everything recorded so far."""
    return _RECORDER.snapshot()


def reset() -> None:
    """Clear the process-wide recorder."""
    _RECORDER.reset()


def drain() -> dict[str, Any]:
    """Snapshot the recorder and clear it (the worker-side handoff)."""
    payload = _RECORDER.snapshot()
    _RECORDER.reset()
    return payload


def absorb(payload: Mapping[str, Any] | None, nest: bool = True) -> None:
    """Merge a worker payload into this process's recorder.

    With ``nest=True`` the payload's spans are re-rooted under the
    currently open span, so spans recorded inside worker processes keep
    a correct parent chain across the :func:`repro.runtime.parallel_map`
    process boundary.
    """
    if payload is None:
        return
    prefix = _RECORDER.current_path() if nest else ""
    _RECORDER.merge(payload, prefix=prefix)


from repro.obs.manifest import (  # noqa: E402
    MANIFEST_SCHEMA,
    build_manifest,
    compute_rollups,
    git_revision,
    load_manifest,
    write_manifest,
)
from repro.obs.summary import (  # noqa: E402
    DEFAULT_TOP_SPANS,
    summarize_json,
    summarize_text,
    top_spans,
)

__all__ = [
    "ACTIVE",
    "FAILURE_RECORD_CAP",
    "HISTOGRAM_VALUE_CAP",
    "NULL_SPAN",
    "Recorder",
    "absorb",
    "active",
    "current_recorder",
    "disable",
    "drain",
    "enable",
    "gauge",
    "incr",
    "observe",
    "record_failure",
    "reset",
    "snapshot",
    "span",
    "MANIFEST_SCHEMA",
    "build_manifest",
    "compute_rollups",
    "git_revision",
    "load_manifest",
    "write_manifest",
    "DEFAULT_TOP_SPANS",
    "summarize_json",
    "summarize_text",
    "top_spans",
]
