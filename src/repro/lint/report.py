"""Reporters: render a :class:`~repro.lint.engine.LintReport` as
human-readable text, machine-readable JSON, or SARIF 2.1.0.

The SARIF document follows the OASIS 2.1.0 schema closely enough for
GitHub code scanning: one run, a ``tool.driver`` carrying the full rule
catalog (id, short/full description, default severity), and one
``result`` per finding with logical locations (rank / event) plus a
physical location when the linted trace set is file-backed.  Text
traces are line-addressable (header line 1, event ``seq`` on line
``seq + 2``), so findings on ``.jsonl`` traces land on the exact line.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Mapping

from repro.lint.engine import LintReport
from repro.lint.model import Finding, Severity
from repro.lint.registry import all_rules

__all__ = [
    "render_text",
    "report_to_dict",
    "render_json",
    "report_to_sarif",
    "render_sarif",
    "write_report",
]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_URI = "https://github.com/repro/repro"  # project home for SARIF metadata


def _tool_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # pragma: no cover - missing dist metadata
        return "0"


# -- text -------------------------------------------------------------------


def render_text(report: LintReport, verbose: bool = False) -> str:
    """GCC-style one-line-per-finding rendering plus a summary."""
    lines = []
    for f in report.findings:
        where = f"{f.path}: " if f.path else ""
        lines.append(
            f"{where}{f.location}: {f.severity.name.lower()} {f.rule_id} "
            f"[{f.code}]: {f.message}"
        )
    lines.append(report.summary())
    if verbose:
        lines.append(f"rules run: {', '.join(report.rules_run)}")
    return "\n".join(lines)


# -- JSON -------------------------------------------------------------------


def report_to_dict(report: LintReport) -> dict:
    return {
        "schema": "repro-lint-report/1",
        "summary": {
            "nprocs": report.nprocs,
            "events": report.event_count,
            "graph_checked": report.graph_checked,
            "errors": len(report.errors),
            "warnings": len(report.warnings),
            "notes": len(report.notes),
            "by_rule": report.counts(),
        },
        "rules_run": list(report.rules_run),
        "findings": [f.as_dict() for f in report.findings],
    }


def render_json(report: LintReport, to_dict: Callable[..., dict] = report_to_dict) -> str:
    """``to_dict(report)`` as indented, key-sorted JSON (diagnosis and
    verify reports pass their own ``to_dict``)."""
    return json.dumps(to_dict(report), indent=2, sort_keys=True)


# -- SARIF 2.1.0 ------------------------------------------------------------


def _sarif_rules() -> list[dict]:
    out = []
    for r in all_rules():
        out.append(
            {
                "id": r.id,
                "name": r.code.replace("-", " ").title().replace(" ", ""),
                "shortDescription": {"text": r.summary},
                "fullDescription": {"text": r.rationale},
                "defaultConfiguration": {"level": r.severity.sarif_level},
                "properties": {"category": r.category, "code": r.code},
            }
        )
    return out


def _sarif_location(f: Finding) -> dict:
    logical = []
    if f.rank is not None:
        logical.append({"name": f"rank {f.rank}", "kind": "process"})
    if f.seq is not None:
        logical.append({"name": f"event #{f.seq}", "kind": "object"})
    if f.node is not None:
        logical.append({"name": f"node {f.node}", "kind": "object"})
    location: dict = {}
    if f.path is not None:
        physical: dict = {"artifactLocation": {"uri": f.path}}
        if f.seq is not None and f.path.endswith(".jsonl"):
            # text traces: header on line 1, event seq s on line s + 2
            physical["region"] = {"startLine": f.seq + 2}
        location["physicalLocation"] = physical
    if logical:
        location["logicalLocations"] = logical
    return location


def report_to_sarif(report: LintReport) -> dict:
    rule_index = {r.id: i for i, r in enumerate(all_rules())}
    results = []
    for f in report.findings:
        result = {
            "ruleId": f.rule_id,
            "level": f.severity.sarif_level,
            "message": {"text": f.message},
        }
        if f.rule_id in rule_index:
            result["ruleIndex"] = rule_index[f.rule_id]
        loc = _sarif_location(f)
        if loc:
            result["locations"] = [loc]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": _tool_version(),
                        "informationUri": _TOOL_URI,
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
                "columnKind": "utf16CodeUnits",
            }
        ],
    }


def render_sarif(report: LintReport) -> str:
    return json.dumps(report_to_sarif(report), indent=2, sort_keys=True)


FORMATS = {"text": render_text, "json": render_json, "sarif": render_sarif}


def write_report(
    report: LintReport,
    fmt: str,
    stream: IO[str],
    renderers: Mapping[str, Callable[..., str]] = FORMATS,
) -> None:
    """Render ``report`` in ``fmt`` ('text' | 'json' | 'sarif') onto
    ``stream``; ``renderers`` maps each format to its renderer."""
    try:
        renderer = renderers[fmt]
    except KeyError:
        raise ValueError(f"unknown lint report format {fmt!r}") from None
    stream.write(renderer(report))
    stream.write("\n")


def severity_histogram(report: LintReport) -> dict[str, int]:
    """Severity -> count mapping (CLI summaries, metrics)."""
    out = {s.name.lower(): 0 for s in Severity}
    for f in report.findings:
        out[f.severity.name.lower()] += 1
    return out
