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
(for GitHub code scanning).  :func:`open_run` is the one front door for
trace input: every trace-reading CLI and ``repro-serve`` open a trace
set through it, it runs the trace-level rules once and refuses a set
with ERROR findings, and it builds the graph at most once — the graph
the graph-level rules checked, when they ran.
"""

from repro.lint.engine import (
    CheckedRun,
    LintContext,
    LintReport,
    RunRefused,
    error_line,
    lint_build,
    lint_run,
    lint_traces,
    open_run,
)
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
    "CheckedRun",
    "Finding",
    "LintConfig",
    "LintContext",
    "LintReport",
    "Rule",
    "RunRefused",
    "Severity",
    "all_rules",
    "error_line",
    "get_rule",
    "lint_build",
    "lint_run",
    "lint_traces",
    "open_run",
    "render_json",
    "render_sarif",
    "render_text",
    "report_to_dict",
    "report_to_sarif",
    "rule_for_code",
    "severity_histogram",
    "write_report",
]
