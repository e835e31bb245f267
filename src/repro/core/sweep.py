"""Parameter sweeps and sensitivity curves (§6).

"From this new completion time, we can observe how running times for
the overall program and individual processors increase in the presence
of varying degrees of noise."  A sweep runs the traversal once per
perturbation setting over the *same* trace/build and collects the
resulting delays; helpers fit the response slope and find tolerance
thresholds ("what amount of operating system overhead the application
can tolerate before significant performance degradation occurs", §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.builder import BuildResult, build_graph
from repro.core.checkpoint import (
    CheckpointStore,
    ShardKey,
    build_digest,
    resolve_rows,
    signature_digest,
    trace_digest,
)
from repro.core.compiled import compiled_plan
from repro.core.parallel import FaultPolicy, resolve_backend
from repro.core.perturb import PerturbationSpec
from repro.core.primitives import BuildConfig
from repro.core.traversal import StreamingTraversal
from repro.noise.signature import MachineSignature

__all__ = ["SweepPoint", "SweepResult", "sweep_scales", "sweep_signatures", "fit_slope"]

#: Sweep engines: the compiled numpy plan (the production path) or the
#: windowed streaming traversal (§6, bounded memory).
SWEEP_ENGINES = ("compiled", "streaming")


@dataclass(frozen=True)
class SweepPoint:
    """One setting of the sweep and its measured response."""

    label: str
    x: float
    delays: tuple[float, ...]
    mode: str

    @property
    def max_delay(self) -> float:
        return max(self.delays)

    @property
    def mean_delay(self) -> float:
        return sum(self.delays) / len(self.delays)


@dataclass
class SweepResult:
    """Ordered sweep points plus fitted response."""

    points: list = field(default_factory=list)

    def xs(self) -> np.ndarray:
        return np.array([p.x for p in self.points])

    def max_delays(self) -> np.ndarray:
        return np.array([p.max_delay for p in self.points])

    def mean_delays(self) -> np.ndarray:
        return np.array([p.mean_delay for p in self.points])

    def slope(self, per_rank_mean: bool = False) -> float:
        """Least-squares slope of (x, delay)."""
        ys = self.mean_delays() if per_rank_mean else self.max_delays()
        return fit_slope(self.xs(), ys)

    def tolerance_threshold(self, budget: float) -> float | None:
        """Smallest swept x whose max delay exceeds ``budget`` (None if
        the application tolerates every setting)."""
        for p in self.points:
            if p.max_delay > budget:
                return p.x
        return None

    def table(self) -> str:
        lines = [f"{'x':>12} {'max delay':>14} {'mean delay':>14}  label"]
        for p in self.points:
            lines.append(f"{p.x:>12.4g} {p.max_delay:>14.1f} {p.mean_delay:>14.1f}  {p.label}")
        return "\n".join(lines)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ys against xs."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 2:
        raise ValueError("slope fit needs at least two points")
    if np.allclose(xs, xs[0]):
        raise ValueError("slope fit needs varying x")
    return float(np.polyfit(xs, ys, 1)[0])


def _sweep_worker(payload, spec: PerturbationSpec) -> list[float]:
    """Worker body for parallel sweeps: one point's final delays.

    ``carrier`` is the compiled plan (compiled engine) or the trace set
    (streaming engine) — whichever the engine traverses.
    """
    engine, carrier, mode, config = payload
    with obs.span("sweep_point", engine=engine, scale=spec.scale):
        obs.span_add("sweep.points")
        if engine == "compiled":
            return list(carrier.propagate_batch(spec, mode=mode).delays[0])
        return StreamingTraversal(spec, config=config, mode=mode).run(carrier).final_delay


def _context_digest(build: BuildResult | None, trace_set, config: BuildConfig) -> str:
    return build_digest(build) if build is not None else trace_digest(trace_set, config)


def _point(label: str, x: float, row, mode: str, nprocs: int) -> SweepPoint:
    """A sweep point from a delay row; None (a skipped chunk) → NaNs."""
    delays = tuple(row) if row is not None else (float("nan"),) * nprocs
    return SweepPoint(label=label, x=x, delays=delays, mode=mode)


def _scale_rows(
    trace_set,
    build: BuildResult | None,
    spec: PerturbationSpec,
    scales: Sequence[float],
    mode: str,
    engine: str,
    config: BuildConfig,
    jobs: int | None,
    policy: FaultPolicy | None,
):
    """Yield one per-rank delay row per scale, in ladder order.

    A generator on purpose: checkpointed sweeps persist each row as it
    arrives, so a run killed mid-ladder keeps every completed point.
    """
    if not scales:
        return
    if engine == "compiled":
        plan = compiled_plan(build)
        raw = plan.sample_raw_batch(spec.signature, [spec.seed], 1.0)[0]
        batch = plan.propagate_presampled_batch(raw, [spec.scale * s for s in scales], mode=mode)
        obs.add("sweep.points", len(scales))
        for row in batch.delays:
            yield tuple(row)
        return
    specs = [spec.scaled(spec.scale * s) for s in scales]
    yield from _spec_rows(trace_set, build, specs, mode, engine, config, jobs, policy)


def _spec_rows(
    trace_set,
    build: BuildResult | None,
    specs: Sequence[PerturbationSpec],
    mode: str,
    engine: str,
    config: BuildConfig,
    jobs: int | None,
    policy: FaultPolicy | None,
):
    """Yield one per-rank delay row per spec: one full propagation each,
    fanned out over the pool when ``jobs >= 2`` (a generator, like
    :func:`_scale_rows`, so checkpointed ladders persist incrementally)."""
    backend = resolve_backend(jobs, policy=policy)
    plan = compiled_plan(build) if engine == "compiled" else None
    if backend.jobs >= 2:
        carrier = plan if plan is not None else trace_set
        for row in backend.map(_sweep_worker, specs, payload=(engine, carrier, mode, config)):
            yield tuple(row) if row is not None else None
        return
    for spec in specs:
        if plan is not None:
            tr = plan.propagate_one(spec, mode=mode)
        else:
            tr = StreamingTraversal(spec, config=config, mode=mode).run(trace_set)
        obs.add("sweep.points")
        yield tuple(tr.final_delay)


def _check_engine(engine: str) -> None:
    if engine not in SWEEP_ENGINES:
        raise ValueError(f"engine must be one of {SWEEP_ENGINES}, got {engine!r}")


def sweep_scales(
    trace_set,
    spec: PerturbationSpec,
    scales: Sequence[float],
    mode: str = "additive",
    engine: str = "compiled",
    config: BuildConfig | None = None,
    jobs: int | None = 0,
    policy: FaultPolicy | None = None,
    checkpoint: CheckpointStore | str | None = None,
    resume: bool = False,
    build: BuildResult | None = None,
) -> SweepResult:
    """Run the traversal once per global scale factor.

    Point ``s`` propagates at the effective scale ``spec.scale * s``.
    The graph is built (or matched) once; only delta sampling changes
    between points, so the sweep isolates the noise response.  A caller
    that already holds the built graph (the serving daemon's build
    cache, a notebook that analyzed first) can pass it via ``build`` to
    skip the rebuild — it must be the graph of ``trace_set`` under
    ``config``, and results are bit-identical either way.  The
    streaming engine traverses the traces directly and ignores it.

    The ``"compiled"`` engine samples the edge deltas once and pushes
    the whole scale ladder through one replicate-batched kernel pass —
    every point in a single numpy invocation, so ``jobs`` is moot
    there.  The ``"streaming"`` engine runs one windowed traversal per
    point; ``jobs >= 2`` (or None = auto) fans those out across worker
    processes (:mod:`repro.core.parallel`), bit-identical to the serial
    sweep.  ``policy`` is the pool's :class:`~repro.core.parallel.
    FaultPolicy` (chunk timeouts, retries, ``on_failure``); a skipped
    point's delays come back NaN.

    ``checkpoint`` persists one shard per ladder point as it completes,
    keyed by ``(seed, signature digest, effective scale, mode, engine,
    build digest)``; ``resume=True`` reads existing shards and computes
    only the missing points, bit-identical to an uninterrupted run.
    """
    _check_engine(engine)
    config = config or BuildConfig()
    store = CheckpointStore.coerce(checkpoint)
    scales = [float(s) for s in scales]
    with obs.span("sweep_scales", engine=engine, points=len(scales)):
        if engine == "streaming":
            build = None
        elif build is None:
            build = build_graph(trace_set, config)

        def compute(indices):
            return _scale_rows(
                trace_set,
                build,
                spec,
                [scales[i] for i in indices],
                mode,
                engine,
                config,
                jobs,
                policy,
            )

        if store is None:
            rows = list(compute(range(len(scales))))
        else:
            context = _context_digest(build, trace_set, config)
            sig_digest = signature_digest(spec.signature)
            keys = [
                ShardKey(
                    "sweep_scales", spec.seed, sig_digest, spec.scale * s, mode, engine, context
                )
                for s in scales
            ]
            rows = resolve_rows(store, keys, compute, resume=resume)
        nprocs = build.graph.nprocs if build is not None else trace_set.nprocs
        result = SweepResult()
        for s, row in zip(scales, rows):
            result.points.append(_point(f"scale={s:g}", float(s), row, mode, nprocs))
        return result


def sweep_signatures(
    trace_set,
    signatures: Sequence[MachineSignature],
    xs: Sequence[float] | None = None,
    seed: int = 0,
    mode: str = "additive",
    engine: str = "compiled",
    config: BuildConfig | None = None,
    jobs: int | None = 0,
    policy: FaultPolicy | None = None,
    checkpoint: CheckpointStore | str | None = None,
    resume: bool = False,
) -> SweepResult:
    """Run the traversal once per machine signature (platform ladder).

    ``xs`` supplies the numeric sweep coordinate per signature (e.g.
    mean noise in cycles); defaults to the signature index.  ``engine``,
    ``jobs``, ``policy``, ``checkpoint`` and ``resume`` behave exactly
    as in :func:`sweep_scales` (each rung is one full propagation, so
    ``jobs`` fans out either engine); checkpoint shards key on each
    *signature's* content digest, so every ladder rung is independently
    resumable.
    """
    _check_engine(engine)
    config = config or BuildConfig()
    if xs is not None and len(xs) != len(signatures):
        raise ValueError("xs must align with signatures")
    store = CheckpointStore.coerce(checkpoint)
    with obs.span("sweep_signatures", engine=engine, points=len(signatures)):
        build = build_graph(trace_set, config) if engine != "streaming" else None
        specs = [PerturbationSpec(sig, seed=seed) for sig in signatures]

        def compute(indices):
            return _spec_rows(
                trace_set,
                build,
                [specs[i] for i in indices],
                mode,
                engine,
                config,
                jobs,
                policy,
            )

        if store is None:
            rows = list(compute(range(len(specs))))
        else:
            context = _context_digest(build, trace_set, config)
            keys = [
                ShardKey(
                    "sweep_signatures", seed, signature_digest(sig), 1.0, mode, engine, context
                )
                for sig in signatures
            ]
            rows = resolve_rows(store, keys, compute, resume=resume)
        nprocs = build.graph.nprocs if build is not None else trace_set.nprocs
        result = SweepResult()
        for i, (sig, row) in enumerate(zip(signatures, rows)):
            x = float(xs[i]) if xs is not None else float(i)
            result.points.append(_point(sig.name, x, row, mode, nprocs))
        return result
