"""In-process measurement of one workload: timed passes, checks, layers.

Every pass calls the analyzer's public API exactly as the matching CLI
surface does, serially (``jobs=0``).  Each call into a layer is wrapped
in an ``obs.span("bench.<layer>")``: while no observability session is
active those spans are the library's shared no-op, so untraced and
traced passes run the same code.  A traced pass runs inside its own
``obs.observed()`` session, and the layer table is read from that
session's spans, together with the program's own spans for calls made
inside another public call (``read_traces`` and ``match_events`` inside
``build_graph``, the stages of ``diagnose_build``/``verify_build``, and
the sampler and kernel spans inside ``monte_carlo``).
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import (
    DiagnosticError,
    PerturbationSpec,
    absorption_map,
    build_graph,
    check_correctness,
    compiled_plan,
    critical_path,
    monte_carlo,
    runtime_impact,
)
from repro.diagnose import DiagnoseConfig, diagnose_build
from repro.noise import MachineSignature
from repro.trace import TraceSet
from repro.verify import VerifyConfig, verify_build
from calibration import calibration_s
from workloads import STEM, Workload

MIN_ROUNDS = 4  # untraced; a traced round is two passes of each group
MIN_TRACED_ROUNDS = 2
MB = 1024 * 1024

# Span name -> layer, per end-to-end group.  A layer's time is its self
# time: spans of another layer nested inside it are subtracted, so the
# layers and the ``unattributed`` remainder partition the group's time.
LAYERS = {
    "analyze": {
        "read_traces": "trace.read",
        "match_events": "matching.match",
        "bench.builder.build": "builder.build",
        "bench.compiled.compile": "compiled.compile",
        "bench.compiled.propagate_one": "compiled.propagate_one",
        "bench.analysis.run": "analysis.run",
    },
    "montecarlo": {
        "compiled.sample": "montecarlo.sample",
        "compiled.propagate": "montecarlo.propagate",
    },
    "diagnose_verify": {
        "diagnose.path": "diagnose.path",
        "diagnose.attribution": "diagnose.attribution",
        "diagnose.anomaly": "diagnose.anomaly",
        "verify.bounds": "verify.bounds",
        "verify.matches": "verify.matches",
    },
}
ROOTS = {"analyze": "bench.analyze", "montecarlo": "bench.mc", "diagnose_verify": "bench.dv"}


def _rss_bytes() -> int:
    """Current resident set size (Linux /proc)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


@contextmanager
def _rss_span(layer: str, into: dict):
    """The ``bench.<layer>`` span; also notes the call's RSS growth."""
    rss0 = _rss_bytes()
    with obs.span(f"bench.{layer}"):
        yield
    into[layer] = (_rss_bytes() - rss0) / MB


class Bench:
    """One workload's inputs plus the operation and failure accounting."""

    def __init__(self, workload: Workload, inputs: Path, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.signature = MachineSignature.load(inputs / "signature.json")
        self.spec = PerturbationSpec(self.signature, seed=seed)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._first: dict = {}
        self.rss_mb: dict = {}  # RSS growth of the last analyze pass, per layer

    # -- accounting ------------------------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def same_as_first(self, name: str, fingerprint) -> None:
        """Results must be identical across the in-run repetitions."""
        first = self._first.setdefault(name, fingerprint)
        self.check(f"{name} repeats", first == fingerprint, "differs from the first repetition")

    def operation(self, name: str, fn):
        """Run one analyzer operation; a DiagnosticError counts as failed."""
        try:
            return fn()
        except DiagnosticError as exc:
            self.check(name, False, f"{exc.code}: {exc}")
            return None

    # -- the three end-to-end passes ---------------------------------------------
    def analyze(self):
        """The one-shot ``repro-analyze`` path on the trace files."""
        with obs.span("bench.analyze"):
            traces = TraceSet.open(self.inputs, STEM)
            with _rss_span("builder.build", self.rss_mb):
                build = build_graph(traces)
            with _rss_span("compiled.compile", self.rss_mb):
                plan = compiled_plan(build)
            with obs.span("bench.compiled.propagate_one"):
                result = plan.propagate_one(self.spec)
            with obs.span("bench.analysis.run"):
                correctness = check_correctness(build, result)
                impact = runtime_impact(build, result)
                cp = critical_path(build, result)
                am = absorption_map(build, result)
        return build, traces, (correctness, impact, cp, am, result)

    def montecarlo(self, build, bounds):
        with obs.span("bench.mc"):
            return monte_carlo(
                build,
                self.spec,
                replicates=self.workload.mc_replicates,
                jobs=0,
                bounds=bounds,
            ).samples

    def diagnose_verify(self, build, traces):
        """The ``repro-diagnose`` and ``repro-verify`` surfaces."""
        sig = self.signature
        with obs.span("bench.dv"):
            diag = diagnose_build(
                build, DiagnoseConfig(seed=self.seed), signature=sig, trace_set=traces
            )
            ver = verify_build(
                build, VerifyConfig(seed=self.seed), signature=sig, trace_set=traces
            )
        return diag, ver

    # -- checks on each pass's outputs -----------------------------------------
    def check_analyze(self, out) -> None:
        if out is None:
            return
        build, _, (correctness, impact, cp, am, result) = out
        self.check("order preserved (paper 4.3)", correctness.ok, correctness.summary())
        self.same_as_first(
            "analyze",
            (
                len(build.graph.nodes),
                len(build.graph.edges),
                tuple(result.final_delay),
                impact.table(),
                cp.rank,
                cp.total_delay,
                tuple(sorted(cp.by_delta_kind.items())),
                am.overall_ratio(),
                correctness.summary(),
            ),
        )

    def check_montecarlo(self, samples) -> None:
        if samples is not None:
            self.same_as_first("monte_carlo", samples.tobytes())

    def check_diagnose_verify(self, out) -> None:
        if out is None:
            return
        diag, ver = out
        cp, attr = diag.critical_path, diag.attribution
        exact = attr.makespan == cp.total_cost == max(cp.final_costs)
        # Buckets are summed in path order; fsum makes the comparison
        # independent of bucket order, leaving float rounding only.
        sums = all(
            math.isclose(math.fsum(parts.values()), attr.makespan, rel_tol=1e-12)
            for parts in (attr.by_rank, attr.by_primitive)
        )
        self.check("attribution sums to makespan", exact and sums, f"makespan {attr.makespan}")
        self.check("verify certified bounds", ver.bounds is not None)
        self.same_as_first(
            "diagnose_verify",
            (
                tuple((f.rule_id, f.rank, f.message) for f in diag.findings),
                repr(attr.as_dict()),
                tuple((f.rule_id, f.rank, f.message) for f in ver.findings),
                ver.bounds.rank_lo.tobytes() if ver.bounds is not None else b"",
                ver.bounds.rank_hi.tobytes() if ver.bounds is not None else b"",
                len(ver.matches.races),
            ),
        )


def _timed(fn, calls: int = 1) -> tuple[float, float, list]:
    """Wall seconds per call of ``fn``, the mean of the calibrations
    bracketing it, and the results (freed by the caller, untimed)."""
    gc.collect()
    before = calibration_s()
    t0 = time.perf_counter()
    outs = [fn() for _ in range(calls)]
    wall = (time.perf_counter() - t0) / calls
    return wall, (before + calibration_s()) / 2, outs


class Workbench:
    """Warm-up, then rounds of the three passes within a time budget."""

    def __init__(self, bench: Bench):
        self.bench = bench
        w = bench.workload
        # Warm-up: the kept build serves Monte-Carlo and diagnose+verify
        # ("an already built graph"); its plan is compiled here once.
        out = self._analyze()
        if out is None:
            raise SystemExit("warm-up analysis failed: " + "; ".join(bench.failures))
        bench.check_analyze(out)
        self.build, self.traces, _ = out
        self.plan = compiled_plan(self.build)  # memoized: the warm-up's plan
        bench.check(
            "coarse path taken" if w.coarsens else "flat path taken",
            (self.plan.coarse is not None) == w.coarsens,
            f"{len(self.build.graph.nodes)} nodes",
        )
        # RSS grows on the first pass only; later passes reuse freed memory.
        self.first_rss_mb = dict(bench.rss_mb)
        self.events = sum(len(evs) for evs in self.build.events)
        dv = self._diagnose_verify()
        bench.check_diagnose_verify(dv)
        self.bounds = dv[1].bounds if dv is not None else None
        self.races = len(dv[1].matches.races) if dv is not None else 0
        samples = self._montecarlo()
        bench.check_montecarlo(samples)
        # One analysis pipeline on one build: later rounds hold a second
        # build while the kept one is alive, which no user run does.
        self.peak_rss_mb = peak_rss_mb()
        reference = monte_carlo(
            self.build, bench.spec, replicates=w.reference_seeds, engine="graph"
        ).samples
        bench.check(
            "compiled == graph reference engine",
            samples is not None and np.array_equal(samples[: w.reference_seeds], reference),
            f"{w.reference_seeds} seeds",
        )

    def _analyze(self):
        return self.bench.operation("analyze", self.bench.analyze)

    def _montecarlo(self):
        return self.bench.operation(
            "monte_carlo", lambda: self.bench.montecarlo(self.build, self.bounds)
        )

    def _diagnose_verify(self):
        return self.bench.operation(
            "diagnose_verify", lambda: self.bench.diagnose_verify(self.build, self.traces)
        )

    def _passes(self) -> dict:
        """Group -> (pass, its output check, calls per timed sample)."""
        b, w = self.bench, self.bench.workload
        return {
            "analyze": (self._analyze, b.check_analyze, w.analyze_calls),
            "montecarlo": (self._montecarlo, b.check_montecarlo, 1),
            "diagnose_verify": (self._diagnose_verify, b.check_diagnose_verify, w.dv_calls),
        }

    def untraced_round(self) -> dict:
        """(wall seconds per call, bracketing calibration) of each pass."""
        times = {}
        for group, (fn, check, calls) in self._passes().items():
            wall, cal, outs = _timed(fn, calls)
            times[group] = (wall, cal)
            for out in outs:
                check(out)
            del outs
        return times

    def traced_round(self) -> dict:
        """One pass of each group, each in its own obs session."""
        layers = {}
        for group, (fn, check, _) in self._passes().items():
            gc.collect()
            with obs.observed("e2ebench") as session:
                out = fn()
            check(out)
            del out
            layers[group] = layer_times(session, group)
        return layers

    def rounds(self, seconds: float, traced: bool, between) -> list:
        """Run rounds until the budget is spent, with a minimum count.
        ``between()`` runs before each round, outside the budget."""
        least = MIN_TRACED_ROUNDS if traced else MIN_ROUNDS
        rounds: list = []
        start = time.perf_counter()
        outside = 0.0
        while True:
            t = time.perf_counter()
            between()
            outside += time.perf_counter() - t
            rounds.append(
                (self.untraced_round(), self.traced_round()) if traced else self.untraced_round()
            )
            elapsed = time.perf_counter() - start - outside
            if len(rounds) >= least and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                return rounds


def layer_times(session, group: str) -> dict:
    """Self time per layer inside the group's root span, plus counters."""
    names, spans = LAYERS[group], session.spans
    root = next(i for i, s in enumerate(spans) if s.name == ROOTS[group])
    layers = {layer: {"calls": 0, "wall": 0.0, "cpu": 0.0} for layer in names.values()}
    counters: dict = {}
    for i, s in enumerate(spans):
        anc, owner = s.parent, None
        while anc is not None and anc != root:
            if owner is None and spans[anc].name in names:
                owner = anc
            anc = spans[anc].parent
        if anc != root:
            continue
        for key, n in s.counters.items():
            counters[key] = counters.get(key, 0) + n
        layer = names.get(s.name)
        if layer is None:
            continue
        if owner is not None and names[spans[owner].name] == layer:
            continue  # nested in a span of the same layer: already counted
        row = layers[layer]
        row["calls"] += 1
        row["wall"] += s.duration
        row["cpu"] += s.cpu_time
        if owner is not None:
            parent = layers[names[spans[owner].name]]
            parent["wall"] -= s.duration
            parent["cpu"] -= s.cpu_time
    r = spans[root]
    layers["unattributed"] = {
        "calls": 1,
        "wall": r.duration - sum(v["wall"] for v in layers.values()),
        "cpu": r.cpu_time - sum(v["cpu"] for v in layers.values()),
    }
    return {"wall": r.duration, "cpu": r.cpu_time, "layers": layers, "counters": counters}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
