"""Render a run manifest for humans (text) and machines (JSON).

``obs`` sits below :mod:`repro.reporting` in the layer DAG, so the text
renderer here is deliberately self-contained: plain column alignment
and an ASCII bar histogram, no table helpers imported from higher
layers.  The JSON summary is the same information with raw histogram
sample lists reduced to count/mean/min/max — small enough to diff or
feed to a dashboard.
"""

from __future__ import annotations

from typing import Any, Mapping

#: Default number of spans shown in "top spans by total time".
DEFAULT_TOP_SPANS = 10

_HIST_BINS = 8
_HIST_BAR_WIDTH = 24


def top_spans(manifest: Mapping[str, Any],
              top: int = DEFAULT_TOP_SPANS) -> list[dict[str, Any]]:
    """Spans sorted by cumulative time, heaviest first."""
    spans = manifest.get("spans", {})
    ranked = sorted(spans.items(),
                    key=lambda item: (-item[1].get("total_s", 0.0), item[0]))
    return [
        {"path": path,
         "count": stats.get("count", 0),
         "total_s": stats.get("total_s", 0.0),
         "mean_s": (stats.get("total_s", 0.0) / stats["count"]
                    if stats.get("count") else 0.0),
         "attrs": stats.get("attrs", {})}
        for path, stats in ranked[:top]
    ]


def _histogram_lines(name: str, hist: Mapping[str, Any]) -> list[str]:
    count = hist.get("count", 0)
    lo, hi = hist.get("min", 0), hist.get("max", 0)
    mean = hist.get("total", 0.0) / count if count else 0.0
    lines = [f"  {name}: n={count} min={lo:g} mean={mean:.3g} max={hi:g}"]
    values = hist.get("values", [])
    if not values or lo == hi:
        return lines
    n_bins = min(_HIST_BINS, max(1, len(set(values))))
    width = (hi - lo) / n_bins
    bins = [0] * n_bins
    for v in values:
        idx = min(int((v - lo) / width), n_bins - 1)
        bins[idx] += 1
    peak = max(bins)
    for i, n in enumerate(bins):
        bar = "#" * max(1 if n else 0,
                        round(_HIST_BAR_WIDTH * n / peak))
        lines.append(f"    [{lo + i * width:>10.4g}, "
                     f"{lo + (i + 1) * width:>10.4g})  "
                     f"{bar:<{_HIST_BAR_WIDTH}} {n}")
    return lines


def _rollup_value(value: Any) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:g}" if value.is_integer() else f"{value:.4g}"
    return str(value)


def summarize_text(manifest: Mapping[str, Any],
                   top: int = DEFAULT_TOP_SPANS) -> str:
    """Multi-section plain-text summary of a run manifest."""
    lines: list[str] = []
    label = manifest.get("label", "<unlabeled>")
    lines.append(f"run manifest: {label}")
    git_rev = manifest.get("git_rev")
    if git_rev:
        lines.append(f"  git: {git_rev}")
    timing = manifest.get("timing", {})
    wall, cpu = timing.get("wall_s"), timing.get("cpu_s")
    children = timing.get("cpu_children_s")
    if wall is not None:
        cpu_text = f", cpu {cpu:.3f} s" if cpu is not None else ""
        if children is not None:
            cpu_text += f", children cpu {children:.3f} s"
        lines.append(f"  timing: wall {wall:.3f} s{cpu_text}")
    run_config = manifest.get("run_config")
    if run_config is not None:
        fields = " ".join(f"{k}={v}" for k, v in run_config.items())
        lines.append(f"  run config: {fields}")
    env = manifest.get("env", {})  # written before the run_config block
    if env:
        knobs = " ".join(f"{k}={v}" for k, v in sorted(env.items()))
        lines.append(f"  env: {knobs}")
    seed = manifest.get("seed")
    if seed is not None:
        lines.append(f"  seed: {seed}")

    rollups = manifest.get("rollups", {})
    if rollups:
        lines.append("")
        lines.append("rollups")
        for key, value in rollups.items():
            if isinstance(value, Mapping):
                # Per-namespace cache traffic: one line per namespace.
                lines.append(f"  {key}")
                for name, fields in value.items():
                    rendered = " ".join(f"{field}={_rollup_value(v)}"
                                        for field, v in fields.items())
                    lines.append(f"    {name:<30} {rendered}")
                continue
            lines.append(f"  {key:<32} {_rollup_value(value)}")

    ranked = top_spans(manifest, top=top)
    if ranked:
        lines.append("")
        lines.append(f"top spans by total time (top {len(ranked)})")
        path_w = max(len(s["path"]) for s in ranked)
        lines.append(f"  {'span':<{path_w}}  {'count':>7}  "
                     f"{'total (s)':>10}  {'mean (s)':>10}")
        for s in ranked:
            lines.append(f"  {s['path']:<{path_w}}  {s['count']:>7}  "
                         f"{s['total_s']:>10.4f}  {s['mean_s']:>10.6f}")

    counters = manifest.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        name_w = max(len(n) for n in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{name_w}}  {value:g}")

    histograms = manifest.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms")
        for name, hist in sorted(histograms.items()):
            lines.extend(_histogram_lines(name, hist))

    return "\n".join(lines) + "\n"


def summarize_json(manifest: Mapping[str, Any],
                   top: int = DEFAULT_TOP_SPANS) -> dict[str, Any]:
    """Machine-readable summary: rollups, ranked spans, histogram stats."""
    histograms = {}
    for name, hist in manifest.get("histograms", {}).items():
        count = hist.get("count", 0)
        histograms[name] = {
            "count": count,
            "min": hist.get("min"),
            "max": hist.get("max"),
            "mean": (hist.get("total", 0.0) / count) if count else None,
        }
    summary = {
        "schema": "repro-obs-summary/1",
        "label": manifest.get("label"),
        "git_rev": manifest.get("git_rev"),
        "timing": manifest.get("timing", {}),
        "run_config": manifest.get("run_config"),
        "seed": manifest.get("seed"),
        "rollups": manifest.get("rollups", {}),
        "top_spans": top_spans(manifest, top=top),
        "counters": manifest.get("counters", {}),
        "gauges": manifest.get("gauges", {}),
        "histograms": histograms,
    }
    if "env" in manifest:  # written before the run_config block
        summary["env"] = manifest["env"]
    return summary
