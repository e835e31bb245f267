"""Lint engine: run the rule pack over traces and built graphs.

The analyzer is a *pre-flight* pass: it inspects raw per-rank event
streams and (when they are coherent enough to build) the resulting
message-passing graph, **without executing the perturbation engine**.
Entry points:

:func:`lint_run`
    The full pass — trace rules, then a guarded graph build, then
    graph rules.  A build failure is converted into the finding of the
    rule owning the error's diagnostic code instead of crashing, so a
    malformed trace produces a report, never a stack trace.
:func:`lint_traces`
    Trace-level rules only (no graph is ever built).
:func:`lint_build`
    Graph-level rules over an existing
    :class:`~repro.core.builder.BuildResult` (or a hand-built
    :class:`~repro.core.graph.MessagePassingGraph`).

All three, and the diagnosis (MPG2xx) and verification (MPG3xx)
engines, run their rules through the one :func:`run_rules`.

:func:`open_run` is the one front door for trace input: every
trace-reading CLI and the serving daemon open, check and build a trace
set through it; :func:`lint_traces` and :func:`lint_run` are its
report-only forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

from repro import obs
from repro.core.builder import BuildResult, build_graph
from repro.core.diagnostics import DiagnosticError
from repro.core.graph import MessagePassingGraph
from repro.core.primitives import BuildConfig
from repro.lint.model import Finding, LintConfig, Severity
from repro.lint.registry import all_rules, rule_for_code, run_rule
from repro.trace.events import EventRecord, TraceMeta
from repro.trace.reader import TraceSet, TraceSource, rank_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.columns import EventColumns

__all__ = [
    "CheckedRun",
    "LintContext",
    "LintReport",
    "RunRefused",
    "build_error_finding",
    "error_line",
    "lint_build",
    "lint_run",
    "lint_traces",
    "open_run",
    "run_rules",
]


def _span(frame: EventColumns) -> float:
    """A rank's trace span: first event START to last event END."""
    return float(frame.t_end[-1]) - float(frame.t_start[0])


class _TraceView:
    """Some ranks of a trace set as the trace rules see them: their
    columns (:meth:`ranks`), headers (:meth:`meta`) and :attr:`spans`."""

    def __init__(
        self,
        ctx: LintContext,
        ranks: list[tuple[int, EventColumns]],
        spans: list[tuple[int, float]],
    ):
        self._ranks = ranks
        self.meta = ctx.meta
        self.spans = spans

    def ranks(self) -> Iterator[tuple[int, EventColumns]]:
        return iter(self._ranks)


class LintContext:
    """Everything a rule may inspect, loaded lazily.

    ``per_rank`` materializes the event lists on first use (rules share
    the one copy); ``graph`` is the built message-passing graph or
    ``None`` when no build was possible — graph rules that need it must
    tolerate its absence.  Trace rules read only :meth:`ranks` (each
    rank's :class:`~repro.trace.columns.EventColumns`), :meth:`meta` and
    :attr:`spans`, so :meth:`views` can hand them a trace set still on
    disk one rank at a time.  With ``keep_decoded`` a trace set on disk
    keeps each rank's decode for the build (:meth:`TraceSet.columns`).
    """

    def __init__(
        self,
        trace_set: TraceSource | None = None,
        per_rank: list[list[EventRecord]] | None = None,
        build: BuildResult | None = None,
        graph: MessagePassingGraph | None = None,
        build_config: BuildConfig | None = None,
        keep_decoded: bool = False,
    ) -> None:
        if trace_set is None and per_rank is None and build is None and graph is None:
            raise ValueError("LintContext needs a trace_set, events, a build, or a graph")
        self.trace_set = trace_set
        self._per_rank = per_rank
        self.build = build
        self._graph = graph
        self.build_config = build_config
        self.keep_decoded = keep_decoded
        self.build_error: DiagnosticError | None = None

    @classmethod
    def from_build(cls, build: BuildResult) -> "LintContext":
        return cls(per_rank=build.events, build=build, build_config=build.config)

    @cached_property
    def per_rank(self) -> list[list[EventRecord]]:
        """Per-rank event lists (empty when only a graph was supplied)."""
        if self._per_rank is not None:
            return self._per_rank
        if self.build is not None:
            return self.build.events
        if self.trace_set is not None:
            return self.trace_set.load_all()
        return []

    @property
    def _on_disk(self) -> TraceSource | None:
        """The trace source the trace rules read rank by rank; None when
        the events are (or come from) lists already in memory."""
        if self._per_rank is not None or self.build is not None:
            return None
        return self.trace_set

    @cached_property
    def _frames(self) -> list[EventColumns]:
        from repro.trace.columns import EventColumns

        return [EventColumns.from_events(evs) for evs in self.per_rank]

    def ranks(self) -> Iterator[tuple[int, EventColumns]]:
        """``(rank, columns)`` of every rank, in rank order."""
        return enumerate(self._frames)

    def meta(self, rank: int) -> TraceMeta | None:
        """Rank ``rank``'s trace header (None without a trace set)."""
        if self.trace_set is not None and hasattr(self.trace_set, "meta"):
            return self.trace_set.meta(rank)
        return None

    @cached_property
    def spans(self) -> list[tuple[int, float]]:
        """``(rank, span)`` of every rank holding events."""
        return [(r, _span(frame)) for r, frame in self.ranks() if len(frame)]

    @cached_property
    def nprocs(self) -> int:
        source = self._on_disk
        return len(self.per_rank) if source is None else source.nprocs

    @cached_property
    def event_count(self) -> int:
        return sum(len(evs) for evs in self.per_rank)

    def _decode(self, source: TraceSource, rank: int) -> EventColumns:
        if self.keep_decoded and isinstance(source, TraceSet):
            return source.columns(rank, keep=True)
        return rank_columns(source, rank)

    def views(self) -> Iterator[LintContext | _TraceView]:
        """What the trace rules run over, in order.

        An in-memory context is its own one view.  A trace set on disk
        is decoded once, one rank at a time: a view per rank, then one
        holding only the per-rank spans for the cross-rank rule (MPG007),
        so the trace pack holds at most one rank's columns itself.
        """
        source = self._on_disk
        if source is None:
            yield self
            return
        spans: list[tuple[int, float]] = []
        count = 0
        for rank in range(source.nprocs):
            frame = self._decode(source, rank)
            count += len(frame)
            if len(frame):
                spans.append((rank, _span(frame)))
            yield _TraceView(self, [(rank, frame)], [])
        self.spans, self.event_count = spans, count
        yield _TraceView(self, [], spans)

    @cached_property
    def paths(self) -> list[str | None]:
        """Per-rank trace file paths (None for in-memory traces)."""
        readers = getattr(self.trace_set, "readers", None)
        if readers:
            return [str(r.path) for r in readers]
        return [None] * self.nprocs

    @property
    def graph(self) -> MessagePassingGraph | None:
        if self._graph is not None:
            return self._graph
        if self.build is not None:
            return self.build.graph
        return None

    def path_of(self, rank: int | None) -> str | None:
        if rank is None or not 0 <= rank < len(self.paths):
            return None
        return self.paths[rank]

    def try_build(self) -> None:
        """Attempt the graph build, capturing structured failures.

        Only called by the engine after trace rules ran; any
        :class:`DiagnosticError` (including ``MatchError``) is recorded
        on ``build_error`` for conversion into a finding.
        """
        if self.build is not None or self._graph is not None:
            return
        source = self.trace_set
        if source is None:
            from repro.trace.reader import MemoryTrace

            source = MemoryTrace(self.per_rank) if self.per_rank else None
        if source is None:
            return
        try:
            self.build = build_graph(source, self.build_config)
        except DiagnosticError as exc:
            self.build_error = exc


@dataclass
class LintReport:
    """All findings of one lint pass, plus enough context to render."""

    findings: list[Finding] = field(default_factory=list)
    nprocs: int = 0
    event_count: int = 0
    rules_run: tuple[str, ...] = ()
    graph_checked: bool = False

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.WARNING]

    @property
    def notes(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == Severity.INFO]

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity findings were reported."""
        return not self.errors

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule_id] = out.get(f.rule_id, 0) + 1
        return out

    def summary(self) -> str:
        scope = f"{self.nprocs} ranks, {self.event_count} events"
        if self.graph_checked:
            scope += ", graph checked"
        return (
            f"{scope}: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s), {len(self.notes)} note(s)"
        )


def build_error_finding(err: DiagnosticError, config: LintConfig | None = None) -> Finding:
    """The finding a structured build failure stands for: a finding of
    the rule owning ``err.code`` (at its configured severity), or of
    ``MPG000`` when no enabled rule owns it."""
    config = config or LintConfig()
    owner = rule_for_code(err.code)
    message = f"graph build failed: {err}"
    if owner is not None and config.enabled(owner):
        severity = config.severity_for(owner.id, owner.severity)
        return owner.finding(message, rank=err.rank, seq=err.seq).with_severity(severity)
    return Finding(
        rule_id="MPG000",
        code=err.code,
        severity=Severity.ERROR,
        message=message,
        rank=err.rank,
        seq=err.seq,
    )


def run_rules(
    ctx: LintContext,
    config: LintConfig,
    categories: tuple[str, ...],
    surface: str = "lint",
    report: type[LintReport] = LintReport,
    stop_on_error: bool = False,
    **artifacts,
) -> LintReport:
    """The one rule runner: every enabled rule of ``categories`` over
    ``ctx``, findings sorted and counted as ``<surface>.findings.<severity>``.

    Trace rules run over :meth:`LintContext.views` (views outer, rules
    inner, so a trace set on disk is read once, one rank at a time);
    each rule keeps its findings in whole-trace order, one past the cap
    :func:`run_rule` applies.  Graph rules get a guarded build first (a
    no-op when ``ctx`` already holds one); a build failure whose code no
    finding covers becomes a finding itself, so the report never hides
    why the graph could not be checked.  With ``stop_on_error`` no
    category runs after one that found an ERROR, so a trace set that
    will be refused pays no build.  ``report``/``artifacts`` let
    diagnose and verify return their :class:`LintReport` subclasses.
    """
    findings: list[Finding] = []
    rules_run: list[str] = []
    keep = config.max_findings_per_rule + 1
    for category in categories:
        if stop_on_error and any(f.severity == Severity.ERROR for f in findings):
            break
        if category == "graph":
            ctx.try_build()
        rules = [r for r in all_rules(category) if config.enabled(r)]
        found: dict[str, list[Finding]] = {r.id: [] for r in rules}
        for view in ctx.views() if category == "trace" else (ctx,):
            for r in rules:
                found[r.id] += islice(r.check(view, config), keep - len(found[r.id]))
        for r in rules:
            rules_run.append(r.id)
            findings.extend(run_rule(r, found[r.id], config))
    err = ctx.build_error
    if err is not None and err.code not in {f.code for f in findings}:
        findings.append(build_error_finding(err, config))

    ordered = sorted(
        (f.with_path(ctx.path_of(f.rank)) for f in findings),
        key=lambda f: (
            -int(f.severity),
            f.rule_id,
            f.rank if f.rank is not None else -1,
            f.seq if f.seq is not None else -1,
            f.node if f.node is not None else -1,
        ),
    )
    for f in ordered:
        obs.add(f"{surface}.findings.{f.severity.name.lower()}")
    return report(
        findings=ordered,
        nprocs=ctx.nprocs,
        event_count=ctx.event_count,
        rules_run=tuple(rules_run),
        graph_checked=ctx.graph is not None,
        **artifacts,
    )


def lint_traces(trace_set: TraceSource, config: LintConfig | None = None) -> LintReport:
    """Run the trace-level rules only (MPG0xx); no graph is built."""
    return open_run(trace_set, config=config, refuse=False, keep_decoded=False).report


def lint_build(
    build: BuildResult | MessagePassingGraph, config: LintConfig | None = None
) -> LintReport:
    """Run the graph-level rules (MPG1xx) over an existing build.

    Accepts a :class:`BuildResult` or a bare
    :class:`MessagePassingGraph` (hand-built graphs in tests have no
    trace events; event-based graph rules then report nothing).
    """
    if isinstance(build, MessagePassingGraph):
        ctx = LintContext(graph=build, per_rank=[])
    else:
        ctx = LintContext.from_build(build)
    with obs.span("lint", layer="graph"):
        return run_rules(ctx, config or LintConfig(), ("graph",))


def lint_run(
    trace_set: TraceSource,
    config: LintConfig | None = None,
    build_config: BuildConfig | None = None,
) -> LintReport:
    """The full pre-flight pass: trace rules, guarded build, graph rules."""
    return open_run(trace_set, None, build_config, graph=True, config=config, refuse=False).report


# -- the front door ----------------------------------------------------------


class RunRefused(DiagnosticError):
    """The check found ERROR findings in a trace set: one message naming
    every failing rule, located at and coded as the first finding."""

    def __init__(self, report: LintReport) -> None:
        errors = report.errors
        first = errors[0]
        super().__init__(
            f"repro-lint found {len(errors)} ERROR finding(s) "
            f"({', '.join(sorted({f.rule_id for f in errors}))}); refusing to "
            f"build the graph — first: {_line(first, first.message)} "
            f"(run repro-lint for the full report)",
            code=first.code,
            rank=first.rank,
            seq=first.seq,
        )


def _line(f: Finding, message: str) -> str:
    """A finding named the one way: ``rule_id [code] location: message``."""
    return f"{f.rule_id} [{f.code}] {f.location}: {message}"


def error_line(err: DiagnosticError) -> str:
    """The one line a front end stops a run with: a refusal's own
    message, any other failure as its rule, code, location and message."""
    if isinstance(err, RunRefused):
        return str(err)
    return _line(build_error_finding(err), " ".join(str(err).split()))


@dataclass
class CheckedRun:
    """A trace set the check admitted, handed to the tool: the traces,
    the check's report, and the graph, built at most once — on first
    use of :attr:`build`, or by the check itself when it ran the graph
    rules."""

    traces: TraceSource
    report: LintReport
    build_config: BuildConfig
    _build: BuildResult | None = None

    @property
    def build(self) -> BuildResult:
        if self._build is None:
            self._build = build_graph(self.traces, self.build_config)
        return self._build


def open_run(
    traces: TraceSource | str | Path,
    stem: str | None = None,
    build_config: BuildConfig | None = None,
    *,
    graph: bool = False,
    config: LintConfig | None = None,
    refuse: bool = True,
    log: Callable[[LintReport], None] | None = None,
    keep_decoded: bool = True,
) -> CheckedRun:
    """The one front door for trace input.

    Opens ``traces`` (a directory, with ``stem``; or takes an open trace
    source), runs the trace pack (MPG0xx) once — reading one rank at a
    time — plus, with ``graph``, the graph pack over a guarded build
    that the run then keeps, and hands ``log`` the report.  An ERROR
    finding raises :class:`RunRefused` unless ``refuse`` is off (the
    builder assumes a run that completed correctly, §4.3); a refusing
    door skips the graph pack, and its build, once the trace pack found
    an ERROR.  ``repro-lint`` turns ``refuse`` off to report every
    finding instead.  Every failure to open or read is a
    :class:`DiagnosticError`, so a front end can end any of them with
    one line (:func:`error_line`).

    A trace set on disk is decoded once: with ``keep_decoded`` (the
    default) it keeps each rank's columns for ``trace_stats`` and the
    build, which takes them over (:meth:`TraceSet.take_columns`).  A
    tool that never builds in core (``--engine streaming``, replay, a
    trace-only lint) turns it off, so the check holds one rank at a
    time.
    """
    if isinstance(traces, (str, Path)):
        if stem is None:
            raise TypeError("open_run: a trace directory needs its stem")
        try:
            traces = TraceSet.open(traces, stem)
        except DiagnosticError:  # a file that does not decode names itself
            raise
        except OSError as exc:  # names the directory or file itself
            raise DiagnosticError(str(exc)) from None
        except ValueError as exc:  # rank files that do not form one run
            raise DiagnosticError(f"trace set {stem!r} in {traces}: {exc}") from None
    build_config = build_config or BuildConfig()
    with obs.span("lint", layer="all" if graph else "trace"):
        ctx = LintContext(trace_set=traces, build_config=build_config, keep_decoded=keep_decoded)
        categories = ("trace", "graph") if graph else ("trace",)
        report = run_rules(ctx, config or LintConfig(), categories, stop_on_error=refuse)
    if log is not None:
        log(report)
    if refuse and not report.ok:
        raise RunRefused(report)
    return CheckedRun(traces, report, build_config, ctx.build)
