"""Rule-based static analysis of traces and message-passing graphs.

A pre-flight pass over the paper's silent input assumptions: per-rank
monotone timestamps, order-based matching that actually pairs up, and a
graph that is a DAG (§4.1, §4.3).  The rule pack spans both layers —
``MPG0xx`` rules inspect raw per-rank event streams, ``MPG1xx`` rules
the built graph — and every rule shares its diagnostic ``code`` with
the runtime error vocabulary of :mod:`repro.core.diagnostics`, so a
lint finding and a builder crash name the same defect.

Typical use::

    from repro import lint

    report = lint.lint_run(trace_set)
    if not report.ok:
        print(lint.render_text(report))

The ``repro-lint`` CLI renders reports as text, JSON, or SARIF 2.1.0
(for GitHub code scanning).  ``repro-analyze``, ``repro-sweep``,
``repro-diagnose``, ``repro-verify`` and ``repro-dot`` run the
trace-level rules before every graph build and refuse a trace set with
ERROR findings; ``--lint {off,warn,strict}`` chooses whether findings
are logged and whether the graph-level rules gate too.
"""

from repro.lint.engine import LintContext, LintReport, lint_build, lint_run, lint_traces
from repro.lint.model import Finding, LintConfig, Rule, Severity
from repro.lint.registry import all_rules, get_rule, rule_for_code
from repro.lint.report import (
    render_json,
    render_sarif,
    render_text,
    report_to_dict,
    report_to_sarif,
    severity_histogram,
    write_report,
)

__all__ = [
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "Rule",
    "Severity",
    "all_rules",
    "get_rule",
    "lint_build",
    "lint_run",
    "lint_traces",
    "render_json",
    "render_sarif",
    "render_text",
    "report_to_dict",
    "report_to_sarif",
    "rule_for_code",
    "severity_histogram",
    "write_report",
]
