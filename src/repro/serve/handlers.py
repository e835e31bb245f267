"""Endpoint bodies of the analysis daemon.

Each ``run_*`` function is the synchronous core of one POST endpoint:
it takes a live :class:`~repro.serve.scheduler.CacheEntry` (trace set +
built graph), the validated request, and the server config, and returns
the JSON-able ``result`` object of the response envelope.  They run in
worker threads (``asyncio.to_thread``), so the event loop never blocks
on a kernel; heavy fan-outs go through the existing process-pool
backend when the daemon was started with ``--jobs``.

**Bit-identity is the contract.**  Every result is byte-equal (after
JSON round-trip, which preserves floats exactly via shortest-repr) to
what the equivalent library call or CLI invocation produces:

* ``analyze``  = :func:`repro.core.montecarlo.monte_carlo` samples
* ``sweep``    = :func:`repro.core.sweep.sweep_scales` points
* ``diagnose`` = :func:`repro.diagnose.diagnosis_to_dict`
* ``metrics``  = :func:`repro.metrics.build_report`
* ``verify``   = :func:`repro.verify.verify_to_dict`

so the serving layer adds caching and transport, never a different
answer.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro import obs
from repro.core.montecarlo import monte_carlo
from repro.core.perturb import PerturbationSpec
from repro.core.primitives import BuildConfig
from repro.core.sweep import sweep_scales
from repro.noise.signature import MachineSignature
from repro.serve.scheduler import CacheEntry
from repro.serve.wire import ServeError
from repro.testing.faults import FAULT_EXIT_CODE

__all__ = ["HANDLERS", "build_config_for", "run_injection"]


def build_config_for(params: dict[str, Any]) -> BuildConfig:
    """The request's :class:`BuildConfig` (part of the build cache key)."""
    return BuildConfig(
        collective_mode=params.get("collective_mode", "hub"),
        eager_threshold=params.get("eager_threshold"),
    )


def _load_signature(request: dict[str, Any], required: bool = True) -> MachineSignature | None:
    sig = request["signature"]
    if sig is None:
        if required:
            raise ServeError(
                "bad-request", "this endpoint needs a 'signature' (inline dict or path)"
            )
        return None
    try:
        if isinstance(sig, dict):
            return MachineSignature.from_dict(sig)
        return MachineSignature.load(sig)
    except FileNotFoundError as exc:
        raise ServeError("input-error", f"signature not found: {exc}") from exc
    except (ValueError, KeyError, TypeError, OSError) as exc:
        raise ServeError("input-error", f"cannot load signature: {exc}") from exc


def _spec(request: dict[str, Any]) -> PerturbationSpec:
    params = request["params"]
    signature = _load_signature(request)
    assert signature is not None
    return PerturbationSpec(
        signature,
        seed=params.get("seed", 0),
        scale=params.get("scale", 1.0),
    )


def run_analyze(entry: CacheEntry, request: dict[str, Any], server: Any) -> dict[str, Any]:
    """Monte-Carlo replicate distribution over the cached build."""
    params = request["params"]
    spec = _spec(request)
    replicates = params.get("replicates", 100)
    if replicates < 1:
        raise ServeError("bad-request", "params.replicates must be >= 1 for analyze")
    dist = monte_carlo(
        entry.build,
        spec,
        replicates=replicates,
        mode=params.get("mode", "additive"),
        jobs=server.jobs,
        policy=server.policy,
        checkpoint=server.checkpoint,
        resume=params.get("resume", True) and server.checkpoint is not None,
    )
    q = dist.quantile([0.05, 0.5, 0.95])
    return {
        "replicates": dist.replicates,
        "nprocs": dist.nprocs,
        "seeds": [int(s) for s in dist.seeds],
        "samples": [[float(v) for v in row] for row in dist.samples],
        "summary": {
            "mean": dist.mean(),
            "std": dist.std(),
            "p5": float(q[0]),
            "p50": float(q[1]),
            "p95": float(q[2]),
        },
    }


def run_sweep(entry: CacheEntry, request: dict[str, Any], server: Any) -> dict[str, Any]:
    """Noise-scale ladder over the cached build."""
    params = request["params"]
    spec = _spec(request)
    scales = params.get("scales", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    result = sweep_scales(
        entry.traces,
        spec,
        scales,
        mode=params.get("mode", "additive"),
        config=entry.build.config,
        jobs=server.jobs,
        policy=server.policy,
        checkpoint=server.checkpoint,
        resume=params.get("resume", True) and server.checkpoint is not None,
        build=entry.build,
    )
    return {
        "points": [
            {
                "label": p.label,
                "x": float(p.x),
                "delays": [float(d) for d in p.delays],
                "mode": p.mode,
            }
            for p in result.points
        ],
    }


def run_diagnose(entry: CacheEntry, request: dict[str, Any], server: Any) -> dict[str, Any]:
    """MPG2xx diagnosis report (same dict the CLI renders as JSON)."""
    from repro.diagnose import DiagnoseConfig, diagnose_build, diagnosis_to_dict

    params = request["params"]
    replicates = params.get("replicates", 0)
    signature = _load_signature(request, required=replicates > 0)
    config = DiagnoseConfig(
        replicates=replicates,
        seed=params.get("seed", 0),
        scale=params.get("scale", 1.0),
        mode=params.get("mode", "additive"),
    )
    report = diagnose_build(entry.build, config, signature=signature, trace_set=entry.traces)
    return {"report": diagnosis_to_dict(report), "summary": report.summary()}


def run_metrics(entry: CacheEntry, request: dict[str, Any], server: Any) -> dict[str, Any]:
    """POP efficiency report (same dict ``repro-metrics --format json``
    renders; ``source`` is the request's trace naming, verbatim)."""
    from repro.metrics import build_report, pop_metrics, pop_timeline, trace_frame

    params = request["params"]
    windows = params.get("windows", 16)
    if request["traces"] is not None:
        source = f"{request['traces']}/{request['stem']}"
    else:
        source = f"upload/{request['stem']}"
    frame = trace_frame(entry.traces)
    report = build_report(
        pop_metrics(frame),
        pop_timeline(frame, windows),
        source=source,
        program=entry.traces.meta(0).program,
    )
    return {"report": report}


def run_verify(entry: CacheEntry, request: dict[str, Any], server: Any) -> dict[str, Any]:
    """MPG3xx verification report (same dict the CLI renders as JSON)."""
    from repro.verify import DEFAULT_QUANTILE, VerifyConfig, verify_build, verify_to_dict

    params = request["params"]
    replicates = params.get("replicates", 0)
    signature = _load_signature(request, required=replicates > 0)
    config = VerifyConfig(
        quantile=params.get("quantile", DEFAULT_QUANTILE),
        scale=params.get("scale", 1.0),
        mode=params.get("mode", "additive"),
        replicates=replicates,
        seed=params.get("seed", 0),
        matches=params.get("matches", True),
    )
    report = verify_build(entry.build, config, signature=signature, trace_set=entry.traces)
    return {"report": verify_to_dict(report), "summary": report.summary()}


#: endpoint -> handler body.  Dispatch owns validation, the build
#: cache, obs scoping, and error mapping; these own the analysis.
HANDLERS: dict[str, Callable[[CacheEntry, dict[str, Any], Any], dict[str, Any]]] = {
    "analyze": run_analyze,
    "sweep": run_sweep,
    "diagnose": run_diagnose,
    "metrics": run_metrics,
    "verify": run_verify,
}


def _exit_worker(payload: Any, item: Any) -> None:
    """Pool-worker body of the ``kill-worker`` injection: die without
    cleanup, exactly like an OOM-killed or segfaulted worker."""
    os._exit(FAULT_EXIT_CODE)


def run_injection(inject: str) -> None:
    """Execute one gated fault injection (``--allow-fault-injection``).

    ``error`` raises in the handler thread — the request must come back
    as a structured 500 while the daemon keeps serving.  ``kill-worker``
    sends real work to a process pool whose worker dies mid-chunk with
    a no-retry fail-fast policy — the resulting ``BrokenProcessPool``
    must surface as a structured error, and the *daemon* process must
    survive (the pool is the blast radius, not the event loop).
    """
    if inject == "error":
        raise RuntimeError("injected handler error (inject=error)")
    from repro.core.parallel import FaultPolicy, ProcessPoolBackend

    with obs.span("serve.inject", kind=inject):
        backend = ProcessPoolBackend(
            jobs=2,
            policy=FaultPolicy(retries=0, on_failure="fail", max_pool_restarts=0),
        )
        backend.map(_exit_worker, [0, 1])
    raise ServeError("internal", "kill-worker injection did not kill the pool")
