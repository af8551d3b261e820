"""Text and JSON rendering of an analysis report."""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisReport


def render_text(report: AnalysisReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.render() for finding in report.findings]
    summary = (f"{len(report.findings)} finding(s) in "
               f"{report.n_files} file(s)")
    suppressed = []
    if report.n_noqa_suppressed:
        suppressed.append(f"{report.n_noqa_suppressed} noqa-suppressed")
    if report.n_baseline_suppressed:
        suppressed.append(
            f"{report.n_baseline_suppressed} baseline-suppressed")
    if suppressed:
        summary += f" ({', '.join(suppressed)})"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: AnalysisReport) -> str:
    """Machine-readable report (stable key order, one document)."""
    document = {
        "findings": [
            {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "message": f.message,
                "symbol": f.symbol,
            }
            for f in report.findings
        ],
        "summary": {
            "files": report.n_files,
            "findings": len(report.findings),
            "noqa_suppressed": report.n_noqa_suppressed,
            "baseline_suppressed": report.n_baseline_suppressed,
        },
    }
    return json.dumps(document, indent=2)

