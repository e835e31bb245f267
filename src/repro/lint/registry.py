"""Rule registry.

Rules self-register at import time through the :func:`rule` decorator;
:func:`all_rules` returns the catalog in id order.  Importing the rule
packs here keeps registration a package-level invariant — any consumer
that can see the registry sees the full rule set.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from repro.core.diagnostics import CODES
from repro.lint.model import Finding, LintConfig, Rule, Severity

__all__ = ["rule", "all_rules", "get_rule", "rule_for_code"]

_REGISTRY: dict[str, Rule] = {}


def rule(
    id: str,
    code: str,
    severity: Severity,
    category: str,
    summary: str,
    rationale: str,
) -> Callable:
    """Register the decorated generator function as a lint rule."""
    if id in _REGISTRY:
        raise ValueError(f"duplicate rule id {id!r}")
    if code not in CODES:
        raise ValueError(f"rule {id}: code {code!r} not in repro.core.diagnostics.CODES")
    if category not in ("trace", "graph", "diagnosis", "verify"):
        raise ValueError(
            f"rule {id}: category must be 'trace', 'graph', 'diagnosis' or 'verify', "
            f"got {category!r}"
        )

    def register(fn: Callable) -> Rule:
        r = Rule(
            id=id,
            code=code,
            severity=severity,
            category=category,
            summary=summary,
            rationale=rationale,
            check=fn,
        )
        _REGISTRY[id] = r
        return r

    return register


def all_rules(category: str | None = None) -> list[Rule]:
    """The full rule catalog (optionally one category), in id order."""
    _ensure_loaded()
    rules = sorted(_REGISTRY.values(), key=lambda r: r.id)
    if category is not None:
        rules = [r for r in rules if r.category == category]
    return rules


def get_rule(rule_id: str) -> Rule:
    _ensure_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(f"unknown lint rule {rule_id!r}; known: {sorted(_REGISTRY)}") from None


def rule_for_code(code: str) -> Rule | None:
    """The rule owning a diagnostics code (None if no rule covers it)."""
    _ensure_loaded()
    for r in sorted(_REGISTRY.values(), key=lambda r: r.id):
        if r.code == code:
            return r
    return None


def _ensure_loaded() -> None:
    """Import the rule packs (idempotent; resolves circular imports)."""
    from repro.diagnose import rules as diagnose_rules  # noqa: F401
    from repro.lint import graph_rules, trace_rules  # noqa: F401
    from repro.verify import rules as verify_rules  # noqa: F401


def run_rule(r: Rule, found: Iterable[Finding], config: LintConfig) -> Iterator[Finding]:
    """Apply severity overrides and the emission cap to the findings
    ``found`` by rule ``r`` (the same mechanics for every category)."""
    severity = config.severity_for(r.id, r.severity)
    emitted = 0
    for f in found:
        if emitted >= config.max_findings_per_rule:
            yield Finding(
                rule_id=r.id,
                code=r.code,
                severity=severity,
                message=(
                    f"further {r.id} findings suppressed after "
                    f"{config.max_findings_per_rule} (raise max_findings_per_rule to see all)"
                ),
            )
            return
        emitted += 1
        yield f.with_severity(severity)
