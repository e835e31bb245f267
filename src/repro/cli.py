"""Command-line tools.

Entry points mirroring the paper's workflow:

``repro-trace``
    Run a bundled application on a preset simulated machine, writing
    per-rank trace files (the PMPI-tracing step, §4).
``repro-microbench``
    Run the microbenchmark suite against a preset machine and save the
    resulting machine signature (§5).
``repro-analyze``
    Build the message-passing graph from traces and propagate sampled
    perturbations from a signature, reporting runtime impact, critical
    path attribution, absorption, and correctness warnings (§4.2, §6).
``repro-sweep``
    Noise-scale ladder over one trace set (§6's "varying degrees").
``repro-dot``
    Export the graph as Graphviz DOT (Fig. 5).
``repro-replay``
    Dimemas-style deterministic replay under target machine parameters
    (the §1.1 baseline) — what-if for base network / CPU changes.
``repro-lint``
    Rule-based static analysis of traces and built graphs
    (:mod:`repro.lint`): text, JSON, or SARIF 2.1.0 reports, no
    perturbation engine involved.
``repro-diagnose``
    Automated bottleneck & faulty-rank diagnosis (:mod:`repro.diagnose`):
    critical-path extraction, makespan attribution, and anomalous-rank
    detection, reported through the lint reporters (text / JSON / SARIF)
    with the same ``--fail-on`` CI gate.  ``repro-analyze --diagnose``
    appends the same report to an analysis run.
``repro-metrics``
    Time-resolved POP-style efficiency metrics (:mod:`repro.metrics`):
    parallel efficiency, load balance, communication efficiency — whole
    run and per time window — from an mpisim trace set or an imported
    Chrome trace-event file, with ``--fail-below`` CI gating.
    ``repro-analyze --pop-metrics`` appends the same report.
``repro-verify``
    Static verification (:mod:`repro.verify`): certified makespan
    bounds by interval abstract interpretation (no sampling) and
    match-nondeterminism / deadlock-potential analysis of wildcard
    receives, reported as MPG3xx findings through the lint reporters
    (text / JSON / SARIF) with the same ``--fail-on`` CI gate.
    ``repro-analyze --verify`` runs the same pass as a pre-flight and
    arms the Monte-Carlo containment cross-check.
``repro-serve``
    Long-running analysis daemon (:mod:`repro.serve`): the analyses
    above as HTTP endpoints with a coalescing build cache — concurrent
    requests sharing a trace set pay for one graph build and one plan
    compile.  Responses are bit-identical to the CLI/library results.
``repro-client``
    Client for ``repro-serve``: submits jobs and renders responses in
    the exact byte formats of the corresponding CLI tools (CI diffs
    daemon output against CLI output with ``cmp``).

Every tool that reads traces — analyze, sweep, dot, lint, diagnose,
verify, metrics and replay — takes them through one front door,
:func:`repro.lint.open_run`: it opens the trace set, runs the
trace-level lint rules (MPG0xx) once and refuses a set with ERROR
findings (``repro-lint`` reports them instead), and builds the graph at
most once.  ``--lint {off,warn,strict}`` (analyze and sweep) logs the
findings and can add the graph-level rules, whose build the tool then
analyzes.  A trace that cannot be opened or decoded, a check's
refusal, or a defect only the build or a traversal can see ends the
run with exit status 1 and one stderr line naming the rule or the
file, never a traceback.  A flag two tools share is declared once, in
:data:`_FLAGS`.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from repro import obs
from repro._util import atomic_write_text
from repro.core import (
    BuildConfig,
    ExperimentHistory,
    FaultPolicy,
    PerturbationSpec,
    StreamingTraversal,
    absorption_map,
    check_correctness,
    compiled_plan,
    critical_path,
    monte_carlo,
    runtime_impact,
    sweep_scales,
    to_dot,
)
from repro.lint.report import FORMATS, render_json, write_report
from repro.metrics import (
    build_report,
    gate_report,
    ideal_runtime,
    import_chrome_trace,
    pop_metrics,
    pop_timeline,
    publish_obs_metrics,
    render_text,
    trace_frame,
)
from repro.noise import MachineSignature
from repro.trace.stats import trace_stats

__all__ = [
    "main_trace",
    "main_analyze",
    "main_dot",
    "main_sweep",
    "main_microbench",
    "main_replay",
    "main_lint",
    "main_diagnose",
    "main_metrics",
    "main_verify",
    "main_serve",
    "main_client",
]

# Two output channels, never mixed: results go to stdout (bare lines,
# pipeable), diagnostics/warnings go to stderr through ``logging`` with
# levels controlled by ``-v``/``--quiet``.
_LOG = logging.getLogger("repro.cli")
_RESULTS = logging.getLogger("repro.cli.results")


def _add_logging_args(ap: argparse.ArgumentParser) -> None:
    ap.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (repeatable)",
    )
    ap.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress diagnostics on stderr (errors only); results still print",
    )


def _configure_logging(args) -> None:
    """(Re)install the stderr diagnostics and stdout results handlers.

    Reinstalling per invocation keeps in-process callers (tests, driver
    scripts) bound to the *current* ``sys.stdout``/``sys.stderr``.
    """
    root = logging.getLogger("repro")
    for h in list(root.handlers):
        root.removeHandler(h)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    root.addHandler(handler)
    if getattr(args, "quiet", False):
        root.setLevel(logging.ERROR)
    elif getattr(args, "verbose", 0) >= 1:
        root.setLevel(logging.DEBUG)
    else:
        root.setLevel(logging.INFO)

    for h in list(_RESULTS.handlers):
        _RESULTS.removeHandler(h)
    out = logging.StreamHandler(sys.stdout)
    out.setFormatter(logging.Formatter("%(message)s"))
    _RESULTS.addHandler(out)
    _RESULTS.setLevel(logging.INFO)
    _RESULTS.propagate = False


def _say(message: str) -> None:
    """Emit one result line on stdout."""
    _RESULTS.info(message)


def _start_observability(args, label: str):
    """Activate an obs session when ``--profile``/``--metrics-out`` ask
    for one; returns the session or None."""
    if getattr(args, "profile", None) or getattr(args, "metrics_out", None):
        return obs.start(label)
    return None


def _finish_observability(args, session) -> None:
    if session is None:
        return
    obs.stop()
    _LOG.debug(f"observability: {session.summary()}")
    if args.profile:
        obs.write_chrome_trace(session, args.profile)
        _LOG.info(
            f"profile written to {args.profile} "
            f"({len(session.completed_spans())} spans; view at https://ui.perfetto.dev)"
        )
    if args.metrics_out:
        obs.write_metrics(session, args.metrics_out)
        _LOG.info(f"metrics written to {args.metrics_out}")


def _parse_params(pairs: list[str]) -> dict:
    """``k=v`` strings -> kwargs dict with int/float/bool coercion."""
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--param expects k=v, got {pair!r}")
        key, value = pair.split("=", 1)
        if value.lower() in ("true", "false"):
            out[key] = value.lower() == "true"
        else:
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def _parse_jobs(value: str) -> int | None:
    """``--jobs`` values: 0 = serial, N >= 2 = pool of N, ``auto`` (or a
    negative count) = one worker per core (see repro.core.parallel)."""
    if value.strip().lower() == "auto":
        return None
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--jobs expects an integer or 'auto', got {value!r}"
        ) from None
    return None if jobs < 0 else jobs


def _presets() -> dict:
    """The machine presets.  They import the simulator, so only the tools
    that simulate or measure load them."""
    from repro.machines import PRESETS

    return PRESETS


#: Every flag two tools share, declared once.  Tools add them by name
#: through :func:`_add`, overriding a field where theirs differs.  A
#: callable entry is resolved when a parser is built.
_FLAGS: dict[str, dict | Callable[[], dict]] = {
    "--traces": dict(help="directory containing trace files"),
    "--stem": dict(help="trace file stem"),
    "--out": dict(metavar="FILE", help="write the report to FILE instead of stdout"),
    "--nprocs": dict(type=int),
    "--machine": lambda: dict(choices=sorted(_presets())),
    "--seed": dict(type=int, default=0),
    "--scale": dict(type=float, default=1.0),
    "--mode": dict(choices=("additive", "threshold"), default="additive"),
    "--signature": dict(help="machine signature JSON (from repro-microbench)"),
    "--measure": dict(help="measure a preset machine instead of loading a signature"),
    "--measure-nprocs": dict(type=int, default=2),
    "--collective-mode": dict(choices=("hub", "butterfly"), default="hub"),
    "--eager-threshold": dict(
        type=int, default=None, help="largest send modeled as buffered (default: none)"
    ),
    "--replicates": dict(type=int, default=0),
    "--scales": dict(default="0,0.25,0.5,1,2,4", help="comma-separated scale factors"),
    "--windows": dict(
        type=int,
        default=16,
        metavar="N",
        help="time windows for the efficiency timeline (default 16)",
    ),
    "--quantile": dict(
        type=float,
        default=None,
        metavar="Q",
        help="finite-support cut for unbounded distribution families: intervals "
        "are sound up to this per-draw quantile (default 1 - 1e-12; bounded "
        "families are always exact)",
    ),
    "--no-matches": dict(
        action="store_true",
        help="skip the match-nondeterminism / deadlock-potential analysis",
    ),
    "--engine": dict(
        choices=("compiled", "streaming"),
        default="compiled",
        help="propagation engine: the vectorized compiled plan (default), or the "
        "windowed streaming traversal for traces too large for memory — same "
        "per-rank delays on the same seed",
    ),
    "--lint": dict(
        choices=("off", "warn", "strict"),
        default="warn",
        help="pre-flight static analysis (repro.lint): the trace-level rules always "
        "run and an ERROR finding always refuses the run; 'warn' (default) also "
        "logs every finding, 'strict' also runs the graph-level rules and analyzes "
        "the graph they checked, 'off' logs nothing",
    ),
    "--jobs": dict(
        type=_parse_jobs,
        default=0,
        metavar="N",
        help="worker processes for independent traversals: 0 = serial (default), "
        "N >= 2 = process pool, 'auto'/-1 = one per core; results are "
        "bit-identical regardless of N",
    ),
    "--checkpoint": dict(
        metavar="DIR",
        help="persist one shard per replicate/point into DIR as results are "
        "computed (see repro.core.checkpoint)",
    ),
    "--resume": dict(
        action="store_true",
        help="with --checkpoint: read existing shards first and compute only "
        "the missing rows — bit-identical to an uninterrupted run",
    ),
    "--chunk-timeout": dict(
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-chunk deadline for pooled execution; past-deadline chunks are "
        "speculatively resubmitted (default: no timeout)",
    ),
    "--retries": dict(
        type=int,
        default=None,
        metavar="N",
        help="re-submissions per failed chunk before the failure policy applies "
        "(default: 2)",
    ),
    "--on-failure": dict(
        choices=("fail", "degrade", "skip"),
        default=None,
        help="what to do with a chunk that exhausts its retries: fail the run "
        "(default), degrade to in-process serial execution, or skip it "
        "(its rows become NaN)",
    ),
    "--profile": dict(
        metavar="FILE",
        help="record the analyzer's own execution and write a Chrome trace-event "
        "JSON (open in https://ui.perfetto.dev)",
    ),
    "--metrics-out": dict(
        metavar="FILE", help="write pipeline metrics (counters/gauges/timers) as JSON"
    ),
    "--format": dict(
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (sarif = SARIF 2.1.0 for GitHub code scanning)",
    ),
    "--list-rules": dict(action="store_true", help="print the rule catalog and exit"),
    "--disable": dict(
        action="append",
        default=[],
        metavar="RULE[,RULE...]",
        help="rule ids to skip (repeatable or comma-separated)",
    ),
    "--severity": dict(
        action="append",
        default=[],
        metavar="RULE=LEVEL",
        help="override a rule's severity, e.g. MPG007=error (repeatable)",
    ),
    "--max-findings": dict(type=int, default=100, help="per-rule finding cap in the report"),
    "--fail-on": dict(
        choices=("error", "warning", "never"),
        default="error",
        help="exit nonzero when findings at/above this severity exist (default: error)",
    ),
}

_TRACE_FLAGS = ("--traces", "--stem")
_BUILD_FLAGS = ("--collective-mode", "--eager-threshold")
_SIGNATURE_FLAGS = ("--signature", "--measure", "--measure-nprocs")
_SPEC_FLAGS = ("--seed", "--scale", "--mode")
_POLICY_FLAGS = ("--chunk-timeout", "--retries", "--on-failure")
_OBS_FLAGS = ("--profile", "--metrics-out")
_REPORT_FLAGS = (
    "--format", "--out", "--list-rules", "--disable", "--severity", "--max-findings", "--fail-on"
)


def _add(ap: argparse.ArgumentParser, *flags: str, **override) -> None:
    """Add the shared ``flags`` to ``ap``, each as :data:`_FLAGS`
    declares it with ``override`` applied."""
    for flag in flags:
        spec = _FLAGS[flag]
        ap.add_argument(flag, **{**(spec() if callable(spec) else spec), **override})


def _fault_policy(args) -> FaultPolicy | None:
    """A FaultPolicy when any fault flag was given, else None (defaults)."""
    if args.chunk_timeout is None and args.retries is None and args.on_failure is None:
        return None
    defaults = FaultPolicy()
    return FaultPolicy(
        timeout=args.chunk_timeout,
        retries=defaults.retries if args.retries is None else args.retries,
        on_failure=args.on_failure or defaults.on_failure,
    )


def _checkpoint_args(args) -> dict:
    """The checkpoint/resume kwargs for analysis entry points."""
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint DIR")
    return {"checkpoint": args.checkpoint, "resume": args.resume}


def _machine(name: str, nprocs: int, seed: int):
    presets = _presets()
    if name not in presets:
        raise SystemExit(f"unknown machine preset {name!r}; choose from {sorted(presets)}")
    return presets[name](nprocs, seed=seed)


def _read_file(load: Callable, path: str, what: str):
    """``load(path)``, ending the run with one line naming the file when
    it cannot be read or is not a valid ``what``."""
    try:
        return load(path)
    except KeyError as exc:
        raise SystemExit(f"cannot read {what} {path}: no field {exc}") from None
    except (OSError, ValueError, TypeError) as exc:
        raise SystemExit(f"cannot read {what} {path}: {exc}") from None


def _load_signature(args) -> MachineSignature:
    if args.signature:
        return _read_file(MachineSignature.load, args.signature, "machine signature")
    if args.measure:
        from repro.microbench import measure_machine

        machine = _machine(args.measure, max(args.measure_nprocs, 2), args.seed)
        with obs.span("measure_machine", preset=args.measure):
            report = measure_machine(machine, seed=args.seed)
        _LOG.info(report.summary())
        return report.to_signature()
    raise SystemExit("provide --signature FILE or --measure PRESET")


def _build_config(args) -> BuildConfig:
    """The graph semantics the build flags ask for; the defaults for a
    tool without them (replay's ``--eager-threshold`` describes the
    target machine, not the graph)."""
    if not hasattr(args, "collective_mode"):
        return BuildConfig()
    return BuildConfig(
        collective_mode=args.collective_mode,
        eager_threshold=args.eager_threshold,
    )


def _log_lint(mode: str, report) -> None:
    """``--lint warn|strict``: every finding through the structured
    :func:`repro.core.diagnostics.warn` channel (so each is also counted
    as a ``warnings.lint.<rule>`` metric), then the summary."""
    from repro.core.diagnostics import warn

    for f in report.findings:
        message = warn(f"lint {f.rule_id}: {f.message}", f"lint.{f.rule_id}", f.rank, f.seq)
        _LOG.warning(str(message))
    _LOG.info(f"lint ({mode}): {report.summary()}")


@contextlib.contextmanager
def _door(args, source=None, **check):
    """The tool's trace set through the one front door,
    :func:`repro.lint.open_run`: ``--traces``/``--stem``, or an already
    open ``source``, checked the way ``--lint`` says (a tool without it
    checks as ``off``); ``check`` overrides the door's options.

    Any :class:`DiagnosticError` raised opening or checking the traces,
    or in the block — a defect only the build or a traversal can see —
    ends the run with its one line (:func:`repro.lint.error_line`)
    instead of a traceback.
    """
    from repro import lint
    from repro.core.diagnostics import DiagnosticError

    mode = getattr(args, "lint", "off")
    log = None if mode == "off" else functools.partial(_log_lint, mode)
    check = {"graph": mode == "strict", "log": log, **check}
    traces, stem = (args.traces, args.stem) if source is None else (source, None)
    try:
        yield lint.open_run(traces, stem, _build_config(args), **check)
    except DiagnosticError as exc:
        raise SystemExit(lint.error_line(exc)) from None


def _add_analysis_args(ap: argparse.ArgumentParser) -> None:
    """The flags analyze and sweep share."""
    _add(ap, *_TRACE_FLAGS, required=True)
    _add(ap, *_SIGNATURE_FLAGS, *_SPEC_FLAGS, *_BUILD_FLAGS)
    _add(ap, "--jobs", "--checkpoint", "--resume", *_POLICY_FLAGS, *_OBS_FLAGS)
    _add(ap, "--lint", "--engine")
    _add_logging_args(ap)


def main_trace(argv: list[str] | None = None) -> int:
    from repro.apps import ALL_APPS
    from repro.mpisim import run_to_files

    ap = argparse.ArgumentParser(
        prog="repro-trace", description="Run a bundled app on a simulated machine and trace it."
    )
    ap.add_argument("--app", required=True, choices=sorted(ALL_APPS))
    _add(ap, "--nprocs", required=True)
    _add(ap, "--machine", default="quiet")
    _add(ap, "--out", required=True, metavar=None, help="output directory for trace files")
    _add(ap, "--stem", help="trace file stem (default: app name)")
    _add(ap, "--seed")
    ap.add_argument("--binary", action="store_true", help="write binary traces")
    ap.add_argument("--buffer-events", type=int, default=4096)
    ap.add_argument(
        "--param", action="append", default=[], help="app parameter override, k=v (repeatable)"
    )
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)

    factory, params_cls = ALL_APPS[args.app]
    params = params_cls(**_parse_params(args.param))
    machine = _machine(args.machine, args.nprocs, args.seed)
    stem = args.stem or args.app
    result = run_to_files(
        factory(params),
        args.out,
        stem,
        machine=machine,
        seed=args.seed,
        program_name=args.app,
        binary=args.binary,
        buffer_events=args.buffer_events,
    )
    _say(
        f"traced {args.app} on {machine.name} p={args.nprocs}: "
        f"makespan {result.makespan:.0f} cy, {result.events_processed} engine events"
    )
    _say(f"trace files: {args.out}/{stem}.rank*.trace.{'bin' if args.binary else 'jsonl'}")
    return 0


def main_microbench(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-microbench",
        description="Measure a preset machine's signature via microbenchmarks.",
    )
    _add(ap, "--machine", required=True)
    _add(ap, "--nprocs", default=2)
    _add(ap, "--seed")
    ap.add_argument("--method", choices=("empirical", "fit"), default="empirical")
    _add(ap, "--out", required=True, help="signature JSON output path")
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)
    from repro.microbench import measure_machine

    machine = _machine(args.machine, max(args.nprocs, 2), args.seed)
    report = measure_machine(machine, seed=args.seed)
    _say(report.summary())
    sig = report.to_signature(method=args.method)
    sig.save(args.out)
    _say(f"signature written to {args.out}")
    return 0


def main_analyze(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-analyze",
        description="Build the message-passing graph and propagate perturbations.",
    )
    _add_analysis_args(ap)
    ap.add_argument("--window", type=int, default=4096)
    ap.add_argument("--history", help="append the experiment to this history JSONL")
    ap.add_argument("--name", default="analysis", help="experiment name for the history")
    ap.add_argument(
        "--show-path",
        action="store_true",
        help="print the critical path's top contributing edges (compiled engine only)",
    )
    _add(
        ap,
        "--replicates",
        help="Monte-Carlo replicates for the runtime-delay distribution "
        "(0 = single propagation only; compiled engine)",
    )
    ap.add_argument(
        "--diagnose",
        action="store_true",
        help="run the repro.diagnose pass (critical path, attribution, anomalous "
        "ranks) on the built graph and report MPG2xx findings",
    )
    ap.add_argument(
        "--diagnose-format",
        choices=("text", "json", "sarif"),
        default="text",
        help="format for the --diagnose report",
    )
    ap.add_argument(
        "--diagnose-out",
        metavar="FILE",
        help="write the --diagnose report to this file instead of stdout",
    )
    ap.add_argument(
        "--pop-metrics",
        action="store_true",
        help="append POP-style efficiency metrics (repro.metrics): parallel "
        "efficiency, load balance, communication efficiency, whole-run and "
        "per time window",
    )
    ap.add_argument(
        "--pop-windows",
        type=int,
        default=12,
        metavar="N",
        help="time windows for the --pop-metrics timeline (default 12)",
    )
    ap.add_argument(
        "--verify",
        action="store_true",
        help="run the repro.verify pass as a pre-flight: certified makespan "
        "bounds + match-nondeterminism analysis (MPG3xx findings), and "
        "cross-check every Monte-Carlo replicate against the static bounds",
    )
    ap.add_argument(
        "--verify-format",
        choices=("text", "json", "sarif"),
        default="text",
        help="format for the --verify report",
    )
    ap.add_argument(
        "--verify-out",
        metavar="FILE",
        help="write the --verify report to this file instead of stdout",
    )
    ap.add_argument(
        "--verify-quantile",
        type=float,
        default=None,
        metavar="Q",
        help="finite-support cut for unbounded distribution families in the "
        "--verify bounds (default 1 - 1e-12)",
    )
    args = ap.parse_args(argv)
    _configure_logging(args)
    engine = args.engine
    for flag in ("replicates", "diagnose", "verify"):
        if getattr(args, flag) and engine == "streaming":
            raise SystemExit(f"--{flag} requires the compiled engine, not streaming")

    session = _start_observability(args, "repro-analyze")
    with obs.span("analyze", engine=engine, mode=args.mode), _door(
        args, keep_decoded=engine != "streaming"
    ) as run:
        traces, config = run.traces, run.build_config
        sig = _load_signature(args)
        spec = PerturbationSpec(sig, seed=args.seed, scale=args.scale)

        with obs.span("trace_stats"):
            stats = trace_stats(traces)
        _say(f"trace: {stats.summary()}")
        if args.pop_metrics:
            with obs.span("pop_metrics", windows=args.pop_windows):
                event_frame = trace_frame(traces)
                pop_report = build_report(
                    pop_metrics(event_frame),
                    pop_timeline(event_frame, args.pop_windows),
                    source=f"{args.traces}/{args.stem}",
                    program=traces.meta(0).program,
                )
            publish_obs_metrics(pop_report)
            _say(render_text(pop_report))
        if engine == "streaming":
            result = StreamingTraversal(
                spec, config=config, mode=args.mode, window=args.window
            ).run(traces)
            _say(f"streaming traversal ({args.mode}):")
            for r, d in enumerate(result.final_delay):
                _say(f"  rank {r}: +{d:.1f} cy")
            _say(f"  max delay: {result.max_delay:.1f} cy")
            for w in result.warnings:
                _LOG.warning(str(w))
        else:
            build = run.build
            vbounds = None
            if args.verify:
                from repro.verify import (
                    DEFAULT_QUANTILE,
                    VerifyConfig,
                    render_verify_text,
                    verify_build,
                    verify_to_dict,
                )

                vconfig = VerifyConfig(
                    quantile=(
                        DEFAULT_QUANTILE
                        if args.verify_quantile is None
                        else args.verify_quantile
                    ),
                    scale=args.scale,
                    mode=args.mode,
                    seed=args.seed,
                )
                vreport = verify_build(build, vconfig, signature=sig, trace_set=traces)
                vbounds = vreport.bounds
                _write_report(
                    vreport,
                    args.verify_format,
                    args.verify_out,
                    "verify: ",
                    _ReportTool(
                        "verify", "verification report", render_verify_text, verify_to_dict
                    ),
                    verbose=args.verbose >= 1,
                )
                if vreport.errors:
                    raise SystemExit(
                        f"repro-verify found {len(vreport.errors)} ERROR finding(s) "
                        f"({', '.join(sorted({f.rule_id for f in vreport.errors}))}); "
                        f"refusing to analyze — run repro-verify for the full report"
                    )
            plan = compiled_plan(build)
            result = plan.propagate_one(spec, mode=args.mode)
            with obs.span("analysis"):
                correctness = check_correctness(build, result)
                impact = runtime_impact(build, result)
                cp = critical_path(build, result)
                am = absorption_map(build, result)
            _say(f"graph: {build.graph}")
            _say(impact.table())
            _say(
                f"critical path (rank {cp.rank}): {cp.total_delay:.1f} cy total; "
                f"dominant class {cp.dominant_class()}; per-class {cp.by_delta_kind}"
            )
            if args.show_path:
                _say(cp.describe(build))
            _say(f"absorption ratio (overall): {am.overall_ratio():.2%}")
            _say(f"correctness: {correctness.summary()}")
            for w in correctness.warnings:
                _LOG.warning(str(w))
            if args.replicates:
                dist = monte_carlo(
                    build,
                    spec,
                    replicates=args.replicates,
                    mode=args.mode,
                    jobs=args.jobs,
                    policy=_fault_policy(args),
                    bounds=vbounds,
                    **_checkpoint_args(args),
                )
                _say(f"monte carlo: {dist.summary()}")
                _say(
                    f"  P(makespan delay > 2x mean) = "
                    f"{dist.exceedance_probability(2 * dist.mean()):.2%}"
                )
            if args.diagnose:
                from repro.diagnose import (
                    DiagnoseConfig,
                    diagnose_build,
                    diagnosis_to_dict,
                    render_diagnosis_text,
                )

                dconfig = DiagnoseConfig(
                    replicates=args.replicates,
                    seed=args.seed,
                    scale=args.scale,
                    mode=args.mode,
                )
                diag = diagnose_build(build, dconfig, signature=sig, trace_set=traces)
                _write_report(
                    diag,
                    args.diagnose_format,
                    args.diagnose_out,
                    "diagnosis: ",
                    _ReportTool(
                        "diagnosis", "diagnosis report", render_diagnosis_text, diagnosis_to_dict
                    ),
                    verbose=args.verbose >= 1,
                )
        if args.history:
            rec = ExperimentHistory(args.history).record(args.name, spec, result, config)
            _say(f"recorded experiment {rec.name!r} in {args.history}")
    _finish_observability(args, session)
    return 0


def main_sweep(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-sweep", description="Noise-scale ladder over one trace set."
    )
    _add_analysis_args(ap)
    _add(ap, "--scales")
    args = ap.parse_args(argv)
    _configure_logging(args)

    session = _start_observability(args, "repro-sweep")
    with _door(args, keep_decoded=args.engine != "streaming") as run:
        sig = _load_signature(args)
        spec = PerturbationSpec(sig, seed=args.seed, scale=args.scale)
        scales = [float(s) for s in args.scales.split(",") if s.strip()]
        result = sweep_scales(
            run.traces,
            spec,
            scales,
            mode=args.mode,
            engine=args.engine,
            config=run.build_config,
            jobs=args.jobs,
            policy=_fault_policy(args),
            build=None if args.engine == "streaming" else run.build,
            **_checkpoint_args(args),
        )
    _say(result.table())
    with contextlib.suppress(ValueError):  # slope undefined for a single scale
        _say(f"slope (max delay per unit scale): {result.slope():.1f} cy")
    _finish_observability(args, session)
    return 0


def main_dot(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-dot", description="Export the message-passing graph as Graphviz DOT."
    )
    _add(ap, *_TRACE_FLAGS, required=True)
    _add(ap, "--out", help="write the .dot file to FILE instead of stdout")
    ap.add_argument("--max-nodes", type=int, default=4000)
    ap.add_argument(
        "--seq-range",
        help="export only events with LO:HI sequence numbers (window view)",
    )
    _add(ap, *_BUILD_FLAGS)
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)

    with _door(args) as run:
        graph = run.build.graph
        if args.seq_range:
            from repro.core import extract_window

            lo, hi = (int(x) for x in args.seq_range.split(":", 1))
            graph = extract_window(run.build, lo, hi).graph
    dot = to_dot(graph, name=args.stem, max_nodes=args.max_nodes)
    if args.out:
        Path(args.out).write_text(dot)
        _LOG.info(f"wrote {args.out} ({len(dot.splitlines())} lines)")
    else:
        _say(dot)
    return 0


def _gate_exit(fail_on: str, errors: int, warnings: int = 0) -> int:
    """The one CI-gate exit policy: 1 when findings at/above ``fail_on``
    exist, 0 otherwise (``never`` always passes).  Every gating tool
    (lint / diagnose / metrics / verify) funnels through here so exit
    codes mean the same thing across the suite."""
    if fail_on == "never":
        return 0
    if errors or (fail_on == "warning" and warnings):
        return 1
    return 0


class _ReportTool(NamedTuple):
    """What sets lint, diagnose and verify apart in their one body: the
    rule category ``--list-rules`` prints (None: every rule), the
    report's name in the log, and its text and JSON renderings (None:
    lint's own)."""

    rules: str | None
    noun: str
    text: Callable | None = None
    to_dict: Callable | None = None


def _report_main(ap: argparse.ArgumentParser, argv, tool: _ReportTool, setup) -> int:
    """The one body of lint, diagnose and verify: list the rules, or
    open and check the trace set, run the tool, write its report and
    gate the exit status.  ``ap`` holds the tool's own flags;
    ``setup(args)`` returns the door's options and the run function,
    which turns the checked run into the report."""
    from repro import lint

    _add(ap, *_TRACE_FLAGS, *_REPORT_FLAGS, *_BUILD_FLAGS, *_OBS_FLAGS)
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)

    if args.list_rules:
        for r in lint.all_rules(tool.rules):
            _say(f"{r.id}  {r.severity.name.lower():<7} {r.category:<5} [{r.code}] {r.summary}")
        return 0
    if not args.traces or not args.stem:
        ap.error("--traces and --stem are required (unless --list-rules)")

    check, run_tool = setup(args)
    session = _start_observability(args, ap.prog)
    with obs.span(ap.prog.replace("-", "_")), _door(args, **check) as run:
        report = run_tool(run)
    _finish_observability(args, session)

    _write_report(report, args.format, args.out, "", tool, verbose=args.verbose >= 1)
    return _gate_exit(args.fail_on, len(report.errors), len(report.warnings))


def main_lint(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-lint",
        description="Rule-based static analysis of traces and message-passing graphs.",
    )
    ap.add_argument(
        "--trace-only",
        action="store_true",
        help="run only the trace-level rules (never builds a graph)",
    )
    ap.add_argument("--skew-tolerance", type=float, default=0.5, help="MPG007 threshold")

    def setup(args):
        check = dict(
            graph=not args.trace_only,
            config=_lint_flag_config(args),
            refuse=False,
            keep_decoded=not args.trace_only,
        )
        return check, lambda run: run.report

    return _report_main(ap, argv, _ReportTool(None, "lint report"), setup)


def _lint_flag_config(args) -> "object":
    """Shared --disable/--severity/--max-findings parsing (lint, diagnose,
    verify); ``--skew-tolerance`` rides along where the tool defines it."""
    from repro import lint

    overrides = {}
    for pair in args.severity:
        if "=" not in pair:
            raise SystemExit(f"--severity expects RULE=LEVEL, got {pair!r}")
        rule_id, level = pair.split("=", 1)
        overrides[rule_id.strip().upper()] = lint.Severity.parse(level)
    disabled = [r.strip().upper() for spec in args.disable for r in spec.split(",") if r.strip()]
    kwargs = {}
    if getattr(args, "skew_tolerance", None) is not None:
        kwargs["skew_tolerance"] = args.skew_tolerance
    return lint.LintConfig(
        disabled=tuple(disabled),
        severity_overrides=overrides,
        max_findings_per_rule=args.max_findings,
        **kwargs,
    )


def _write_report(
    report, fmt: str, out: str | None, summary_prefix: str, tool: _ReportTool, verbose: bool
) -> None:
    """Write a lint-shaped report through :func:`repro.lint.write_report`
    in the renderings ``tool`` brings (lint's where it brings none;
    SARIF is one shape for every report).  With ``out`` the report goes
    to that file and stdout gets its one-line summary; otherwise the
    report itself goes to stdout.
    """
    renderers = dict(FORMATS)
    if tool.text is not None:
        renderers["text"] = functools.partial(tool.text, verbose=verbose)
    if tool.to_dict is not None:
        renderers["json"] = functools.partial(render_json, to_dict=tool.to_dict)
    if not out:
        write_report(report, fmt, sys.stdout, renderers)
        return
    with open(out, "w") as fh:
        write_report(report, fmt, fh, renderers)
    _LOG.info(f"{tool.noun} ({fmt}) written to {out}")
    _say(summary_prefix + report.summary())


def _diagnose_config(args):
    from repro.diagnose import DiagnoseConfig

    return DiagnoseConfig(
        replicates=args.replicates,
        seed=args.seed,
        scale=args.scale,
        mode=args.mode,
        z_threshold=args.z_threshold,
        rel_excess=args.rel_excess,
        min_peers=args.min_peers,
        bottleneck_rank_share=args.bottleneck_rank_share,
        serialization_margin=args.serialization_margin,
        bottleneck_primitive_share=args.bottleneck_primitive_share,
        imbalance_ratio=args.imbalance_ratio,
        top_edges=args.top_edges,
        lint=_lint_flag_config(args),
    )


def main_diagnose(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-diagnose",
        description="Automated bottleneck & faulty-rank diagnosis over one trace set.",
    )
    _add(
        ap,
        "--replicates",
        help="Monte-Carlo replicates for the replicate-delay anomaly metric "
        "(0 = off; needs --signature or --measure)",
    )
    _add(ap, *_SIGNATURE_FLAGS, *_SPEC_FLAGS)
    ap.add_argument("--z-threshold", type=float, default=3.5, help="MPG210/212 robust-z floor")
    ap.add_argument(
        "--rel-excess",
        type=float,
        default=1.2,
        help="MPG210/212 minimum value/peer-median ratio",
    )
    ap.add_argument(
        "--min-peers", type=int, default=2, help="peers a rank needs before it can be judged"
    )
    ap.add_argument(
        "--bottleneck-rank-share",
        type=float,
        default=0.95,
        help="MPG201: critical-path share one rank must carry",
    )
    ap.add_argument(
        "--serialization-margin",
        type=float,
        default=0.8,
        help="MPG201: runner-up rank's path must be below this fraction of the makespan",
    )
    ap.add_argument(
        "--bottleneck-primitive-share",
        type=float,
        default=0.6,
        help="MPG202: share of non-compute path time one primitive must carry",
    )
    ap.add_argument(
        "--imbalance-ratio",
        type=float,
        default=2.0,
        help="MPG211: peak/mean compute ratio",
    )
    ap.add_argument(
        "--top-edges", type=int, default=10, help="costliest path edges kept in the report"
    )
    from repro.diagnose import diagnose_build, diagnosis_to_dict, render_diagnosis_text

    def setup(args):
        config = _diagnose_config(args)
        signature = _load_signature(args) if args.replicates > 0 else None
        return {}, lambda run: diagnose_build(
            run.build, config, signature=signature, trace_set=run.traces
        )

    tool = _ReportTool("diagnosis", "diagnosis report", render_diagnosis_text, diagnosis_to_dict)
    return _report_main(ap, argv, tool, setup)


def _parse_fail_below(specs: list[str]) -> dict[str, float]:
    """``METRIC=VALUE`` strings -> thresholds dict for gate_report."""
    out: dict[str, float] = {}
    for spec in specs:
        if "=" not in spec:
            raise SystemExit(f"--fail-below expects METRIC=VALUE, got {spec!r}")
        key, _, value = spec.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"--fail-below {spec!r}: {value!r} is not a number") from None
    return out


def main_metrics(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-metrics",
        description="Time-resolved POP-style efficiency metrics (parallel efficiency, "
        "load balance, communication efficiency) over a trace set.",
    )
    _add(ap, *_TRACE_FLAGS)
    ap.add_argument(
        "--import",
        dest="import_file",
        metavar="FILE",
        help="import an external Chrome trace-event JSON file instead of "
        "--traces/--stem (see docs/METRICS.md for the mapping)",
    )
    _add(ap, "--windows")
    ap.add_argument(
        "--ideal",
        action="store_true",
        help="also replay the trace on an ideal network (Dimemas, zero latency / "
        "near-infinite bandwidth) and split CommE into serialization x transfer "
        "efficiency; requires a complete mpisim trace set",
    )
    _add(ap, "--format", choices=("text", "json"), help=None)
    _add(ap, "--out")
    ap.add_argument(
        "--fail-below",
        action="append",
        default=[],
        metavar="METRIC=VALUE",
        help="exit 1 if METRIC is below VALUE; metrics: pe, lb, comm_eff, ser_eff, "
        "transfer_eff, window_pe, window_lb, window_comm_eff (window_* gate the "
        "worst window). Repeatable.",
    )
    _add_logging_args(ap)
    _add(ap, *_OBS_FLAGS)
    args = ap.parse_args(argv)
    _configure_logging(args)
    if bool(args.import_file) == bool(args.traces):
        raise SystemExit("provide either --traces DIR --stem STEM or --import FILE")
    if args.traces and not args.stem:
        raise SystemExit("--traces requires --stem")
    if args.import_file and args.ideal:
        raise SystemExit("--ideal replays the message protocol and requires an mpisim "
                         "trace set (--traces/--stem)")
    thresholds = _parse_fail_below(args.fail_below)
    from repro.metrics.report import GATEABLE

    unknown = sorted(set(thresholds) - set(GATEABLE))
    if unknown:
        raise SystemExit(
            f"--fail-below: unknown metric(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(GATEABLE))}"
        )

    session = _start_observability(args, "repro-metrics")
    with obs.span("repro_metrics", windows=args.windows):
        imported = None
        if args.import_file:
            with obs.span("import_chrome_trace"):
                imported = _read_file(import_chrome_trace, args.import_file, "Chrome trace")
            _LOG.info(
                f"imported {args.import_file}: {imported.nprocs} rank(s), "
                f"{sum(len(evs) for evs in imported.load_all())} event(s)"
            )
        with _door(args, imported, graph=bool(args.traces)) as run:
            traces = run.traces
            with obs.span("trace_frame"):
                frame = trace_frame(traces)
            ideal = None
            if args.ideal:
                with obs.span("ideal_replay"):
                    ideal = ideal_runtime(traces)
            with obs.span("pop_metrics"):
                pop = pop_metrics(frame, ideal=ideal)
                timeline = pop_timeline(frame, args.windows)
            report = build_report(
                pop,
                timeline,
                source=args.import_file or f"{args.traces}/{args.stem}",
                program=traces.meta(0).program,
            )
        publish_obs_metrics(report)
    _finish_observability(args, session)

    if args.format == "json":
        rendered = json.dumps(report, indent=2)
    else:
        rendered = render_text(report)
    if args.out:
        atomic_write_text(args.out, rendered + "\n")
        _LOG.info(f"POP metrics report ({args.format}) written to {args.out}")
        _say(
            f"pop: PE {report['parallel_efficiency']:.3f} "
            f"LB {report['load_balance']:.3f} "
            f"CommE {report['comm_efficiency']:.3f} "
            f"({len(report['windows'])} windows, worst-window "
            f"PE {report.get('window_pe_min', 0.0):.3f})"
        )
    else:
        _say(rendered)

    violations = gate_report(report, thresholds)
    for v in violations:
        _LOG.error(f"fail-below: {v}")
    return _gate_exit("error", len(violations))


def main_verify(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-verify",
        description="Static verification: certified makespan bounds (interval abstract "
        "interpretation, no sampling) and match-nondeterminism / deadlock-potential "
        "analysis of wildcard receives.",
    )
    _add(ap, *_SIGNATURE_FLAGS, *_SPEC_FLAGS)
    _add(ap, "--quantile")
    _add(
        ap,
        "--replicates",
        help="also propagate N actual Monte-Carlo replicates and cross-check "
        "every one against the certified bounds (0 = static only; needs "
        "--signature or --measure)",
    )
    _add(ap, "--no-matches")
    from repro.verify import (
        DEFAULT_QUANTILE,
        VerifyConfig,
        render_verify_text,
        verify_build,
        verify_to_dict,
    )

    def setup(args):
        config = VerifyConfig(
            quantile=DEFAULT_QUANTILE if args.quantile is None else args.quantile,
            scale=args.scale,
            mode=args.mode,
            replicates=args.replicates,
            seed=args.seed,
            matches=not args.no_matches,
            lint=_lint_flag_config(args),
        )
        signature = None
        if args.signature or args.measure:
            signature = _load_signature(args)
        elif args.replicates > 0:
            raise SystemExit("--replicates needs --signature FILE or --measure PRESET")
        return {}, lambda run: verify_build(
            run.build, config, signature=signature, trace_set=run.traces
        )

    tool = _ReportTool("verify", "verification report", render_verify_text, verify_to_dict)
    return _report_main(ap, argv, tool, setup)


def main_replay(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-replay",
        description="Dimemas-style deterministic replay under target machine parameters.",
    )
    _add(ap, *_TRACE_FLAGS, required=True)
    ap.add_argument("--latency", type=float, default=1000.0)
    ap.add_argument("--bandwidth", type=float, default=1.0)
    ap.add_argument("--send-overhead", type=float, default=200.0)
    ap.add_argument("--recv-overhead", type=float, default=200.0)
    _add(
        ap, "--eager-threshold", default=8192, help="target machine: largest message sent eagerly"
    )
    ap.add_argument("--cpu-factor", type=float, default=1.0)
    ap.add_argument(
        "--cpu-factors",
        help="comma-separated cpu_factor ladder: replay once per factor "
        "(parallelized by --jobs) and print a what-if table",
    )
    _add(ap, "--jobs")
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)

    from repro.baselines import ReplayParams, replay, replay_ladder

    def params_for(cpu_factor: float) -> ReplayParams:
        return ReplayParams(
            latency=args.latency,
            bandwidth=args.bandwidth,
            send_overhead=args.send_overhead,
            recv_overhead=args.recv_overhead,
            eager_threshold=args.eager_threshold,
            cpu_factor=cpu_factor,
        )

    with _door(args, keep_decoded=False) as run:
        if args.cpu_factors:
            factors = [float(f) for f in args.cpu_factors.split(",") if f.strip()]
            results = replay_ladder(run.traces, [params_for(f) for f in factors], jobs=args.jobs)
            _say(
                f"target machine: latency {args.latency:g} cy, bandwidth {args.bandwidth:g} "
                f"B/cy, {len(factors)}-point cpu-factor ladder"
            )
            _say(f"{'cpu factor':>11} {'makespan (cy)':>16} {'speedup':>9}")
            for f, res in zip(factors, results):
                _say(f"{f:>11g} {res.makespan:>16,.0f} {res.speedup:>8.2f}x")
            return 0

        params = params_for(args.cpu_factor)
        result = replay(run.traces, params)
    _say(
        f"target machine: latency {params.latency:g} cy, bandwidth {params.bandwidth:g} B/cy, "
        f"cpu factor {params.cpu_factor:g}"
    )
    _say(f"{'rank':>5} {'original (cy)':>16} {'replayed (cy)':>16}")
    for r, (a, b) in enumerate(zip(result.original_finish_times, result.finish_times)):
        _say(f"{r:>5} {a:>16,.0f} {b:>16,.0f}")
    _say(
        f"makespan: {result.original_makespan:,.0f} -> {result.makespan:,.0f} cy "
        f"(speedup {result.speedup:.2f}x)"
    )
    return 0


def main_serve(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-serve",
        description="Long-running analysis daemon: analyze / sweep / diagnose / metrics / "
        "verify as HTTP endpoints with a coalescing build cache (see docs/SERVING.md).",
    )
    ap.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    ap.add_argument(
        "--port", type=int, default=8765, help="bind port (default 8765; 0 = ephemeral)"
    )
    ap.add_argument(
        "--trace-root",
        metavar="DIR",
        help="confine request trace dirs under DIR (default: any server-side path)",
    )
    ap.add_argument(
        "--cache-size",
        type=int,
        default=8,
        metavar="N",
        help="live builds kept in the LRU cache (default 8)",
    )
    ap.add_argument(
        "--max-pending",
        type=int,
        default=32,
        metavar="N",
        help="jobs in flight before new requests get 429 (default 32)",
    )
    ap.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job deadline; past it the request gets a 504 (default: none)",
    )
    _add(ap, "--jobs")
    _add(
        ap,
        "--checkpoint",
        help="durable result cache: result shards persist in DIR, so repeated "
        "identical requests skip their propagations (see repro.core.checkpoint)",
    )
    _add(ap, *_POLICY_FLAGS)
    ap.add_argument(
        "--allow-fault-injection",
        action="store_true",
        help="accept the 'inject' request field (testing only: lets a request crash "
        "its handler or kill a pool worker to prove containment)",
    )
    ap.add_argument("--label", default="repro-serve", help="obs session label")
    _add_logging_args(ap)
    args = ap.parse_args(argv)
    _configure_logging(args)

    import asyncio

    from repro.serve import ServeConfig
    from repro.serve.daemon import serve as _serve

    config = ServeConfig(
        host=args.host,
        port=args.port,
        trace_root=args.trace_root,
        cache_size=args.cache_size,
        max_pending=args.max_pending,
        job_timeout=args.job_timeout,
        jobs=args.jobs,
        policy=_fault_policy(args),
        checkpoint=args.checkpoint,
        allow_fault_injection=args.allow_fault_injection,
        label=args.label,
    )

    def _ready(server) -> None:
        _say(f"repro-serve listening on http://{config.host}:{server.port}")

    try:
        asyncio.run(_serve(config, ready=_ready))
    except KeyboardInterrupt:
        _LOG.info("repro-serve interrupted; shutting down")
    return 0


def _client_payload(args, kind: str) -> dict:
    """Assemble the job kwargs for one repro-client invocation."""
    from repro.trace.reader import find_trace_files

    job: dict = {"stem": args.stem}
    if getattr(args, "upload", False):
        paths = find_trace_files(args.traces, args.stem)
        if not paths:
            raise SystemExit(f"no trace files for stem {args.stem!r} in {args.traces}")
        job["upload"] = {p.name: p.read_text() for p in paths}
    else:
        job["traces"] = args.traces
    if getattr(args, "signature", None):
        signature = _read_file(MachineSignature.load, args.signature, "machine signature")
        job["signature"] = signature.to_dict()
    params: dict = {}
    for key in ("seed", "scale", "mode", "replicates", "windows"):
        value = getattr(args, key, None)
        if value is not None:
            params[key] = value
    if getattr(args, "collective_mode", None) not in (None, "hub"):
        params["collective_mode"] = args.collective_mode
    if getattr(args, "eager_threshold", None) is not None:
        params["eager_threshold"] = args.eager_threshold
    if getattr(args, "quantile", None) is not None:
        params["quantile"] = args.quantile
    if getattr(args, "no_matches", False):
        params["matches"] = False
    if getattr(args, "scales", None):
        params["scales"] = [float(s) for s in args.scales.split(",") if s.strip()]
    if params:
        job["params"] = params
    if getattr(args, "inject", None):
        job["inject"] = args.inject
    return job


def main_client(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-client",
        description="Submit jobs to a repro-serve daemon; output formats are byte-identical "
        "to the corresponding CLI tools (repro-diagnose/-verify/-metrics --format json).",
    )
    ap.add_argument("--url", required=True, help="daemon base URL, e.g. http://127.0.0.1:8765")
    ap.add_argument("--timeout", type=float, default=300.0, help="HTTP timeout in seconds")
    _add_logging_args(ap)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("healthz", help="liveness probe")
    sub.add_parser("metricsz", help="aggregated daemon metrics and span histogram")

    def add_job(name: str, *flags: str) -> argparse.ArgumentParser:
        """A job subcommand; every parameter unset (None) by default, so
        the daemon applies its own defaults."""
        p = sub.add_parser(name, help=f"POST /v1/{name}")
        _add(p, *_TRACE_FLAGS, required=True)
        p.add_argument(
            "--upload",
            action="store_true",
            help="read the trace files locally and ship their contents inline "
            "(default: the daemon reads --traces server-side)",
        )
        _add(p, "--out", help="write the rendered result to FILE")
        p.add_argument("--inject", choices=("error", "kill-worker"), help=argparse.SUPPRESS)
        _add(p, *flags, *_BUILD_FLAGS, default=None)
        return p

    analysis = ("--signature", *_SPEC_FLAGS)
    add_job("analyze", *analysis, "--replicates")
    add_job("sweep", *analysis, "--scales")
    add_job("diagnose", *analysis, "--replicates")
    add_job("metrics", "--windows")
    _add(add_job("verify", *analysis, "--replicates", "--quantile"), "--no-matches")

    args = ap.parse_args(argv)
    _configure_logging(args)

    from repro.serve import ServeClient, ServeError
    from repro.serve.client import (
        render_analyze,
        render_diagnose,
        render_metrics,
        render_sweep,
        render_verify,
    )

    client = ServeClient(args.url, timeout=args.timeout)
    try:
        if args.command in ("healthz", "metricsz"):
            probe = client.healthz() if args.command == "healthz" else client.metricsz()
            _say(json.dumps(probe, indent=2, sort_keys=True))
            return 0
        envelope = client.job(args.command, **_client_payload(args, args.command))
    except ServeError as exc:
        _LOG.error(f"{exc.code}: {exc.message}")
        return 1

    render = {
        "analyze": render_analyze,
        "sweep": render_sweep,
        "diagnose": render_diagnose,
        "metrics": render_metrics,
        "verify": render_verify,
    }[args.command]
    rendered = render(envelope["result"])
    build = envelope.get("build", {})
    _LOG.info(
        f"{args.command}: build {build.get('digest', '?')} "
        f"({'cache hit' if build.get('cached') else 'built'})"
    )
    if args.out:
        atomic_write_text(args.out, rendered)
        _LOG.info(f"result written to {args.out}")
    else:
        _say(rendered.rstrip("\n"))
    return 0
