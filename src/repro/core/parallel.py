"""Parallel execution backends for independent graph traversals.

Every expensive analysis in this package — :func:`~repro.core.montecarlo.
monte_carlo` replicates, :func:`~repro.core.sweep.sweep_scales` /
:func:`~repro.core.sweep.sweep_signatures` points, and
:func:`~repro.core.influence.rank_influence` rows — is a set of
*independent* propagations over one shared :class:`~repro.core.builder.
BuildResult`.  The paper's §5–§6 methodology makes them embarrassingly
parallel: deterministic per-edge sampling means replicate ``i`` depends
only on ``(base_seed + i, signature, scale)``, never on any other
replicate's state.

This module turns that independence into wall-clock speedup without
giving up reproducibility:

* :class:`SerialBackend` — the in-process reference executor.
* :class:`ProcessPoolBackend` — fans work items out over a
  ``concurrent.futures.ProcessPoolExecutor``.  The shared payload (the
  compiled plan) is shipped to each worker **once** via the pool
  initializer, and items are submitted in chunks so per-task pickling
  overhead is amortized.

**Fault tolerance.**  Chunks are submitted individually (``submit()`` +
a completion loop, never ``pool.map``), so one failure costs one chunk,
not the workload:

* a :class:`FaultPolicy` gives every chunk a wall-clock ``timeout``, a
  bounded ``retries`` budget with exponential ``backoff``, and a
  straggler policy — a chunk past its deadline is *speculatively
  resubmitted* and the first result wins (safe because every item is
  deterministic in its own seed);
* a mid-run ``BrokenProcessPool`` (worker killed, OOM, …) restarts the
  pool and resubmits only the **unfinished** chunks — results and
  observability blobs already absorbed from completed chunks are kept,
  and a chunk's blob is never absorbed twice;
* when a chunk exhausts its budget the explicit ``on_failure`` policy
  decides: ``"fail"`` re-raises the worker's exception in the parent
  (the default — errors are loud), ``"degrade"`` re-runs just that
  chunk serially in the parent, ``"skip"`` records ``None`` per item;
* exceptions raised *by the mapped function* always surface — only
  pool **construction** failures (restricted platforms, missing
  ``_multiprocessing``) degrade to serial execution with a
  :class:`RuntimeWarning`.

Retries, timeouts, restarts and fallbacks are counted through
:mod:`repro.obs` metrics: ``parallel.chunks_completed``,
``parallel.chunk_retries``, ``parallel.chunk_timeouts``,
``parallel.pool_restarts``, ``parallel.chunks_degraded``,
``parallel.chunks_skipped``, ``parallel.serial_fallback``.

**Determinism guarantee:** a backend only changes *where* each item
runs, never *what* it computes.  Each work item carries its own explicit
seed, so parallel results are bit-for-bit identical to serial results
for the same ``base_seed`` — verified by tests.  Speculative twins
compute the same bits, so "first result wins" cannot change an answer.

The ``jobs`` convention (mirrored by the ``--jobs`` CLI flag):

``jobs=0`` (default)
    Serial, in-process — no pool is ever created.
``jobs=1``
    Also serial: a one-worker pool would add pickling cost for nothing.
``jobs=None``
    Auto: one worker per *available* core — the scheduler affinity mask
    (``os.sched_getaffinity``) where the platform has one, so cgroup /
    container CPU limits are respected, else ``os.cpu_count()``.
``jobs >= 2``
    A pool with exactly that many workers.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro import obs
from repro.core.perturb import PerturbationSpec
from repro.noise.signature import MachineSignature

__all__ = [
    "ChunkTimeoutError",
    "ExecutionBackend",
    "FaultPolicy",
    "ProcessPoolBackend",
    "SerialBackend",
    "available_cpus",
    "chunked",
    "default_chunk_size",
    "map_replicate_batches",
    "replicate_items",
    "resolve_backend",
]

# Exceptions that mean "this platform cannot construct a process pool".
# Only pool *construction* is guarded by these — once workers exist, any
# exception raised by the mapped function propagates (or goes through
# the FaultPolicy), never silently rerouting the workload to serial.
_POOL_UNAVAILABLE = (NotImplementedError, ImportError, OSError, PermissionError)


class ChunkTimeoutError(TimeoutError):
    """A chunk exceeded its per-chunk deadline on every allowed attempt."""


@dataclass(frozen=True)
class FaultPolicy:
    """How :class:`ProcessPoolBackend` reacts when a chunk misbehaves.

    Parameters
    ----------
    timeout:
        Per-chunk wall-clock deadline in seconds (None = no deadline).
        A chunk past its deadline is speculatively resubmitted while
        retry budget remains — the original keeps running and the first
        result wins (stragglers cost nothing but a duplicate slot).
    retries:
        Extra submissions allowed per chunk beyond the first (so a
        chunk runs at most ``1 + retries`` times).
    backoff:
        Base of the exponential retry delay: resubmission ``k`` after a
        worker-raised exception sleeps ``backoff * 2**(k-1)`` seconds.
        Timeout resubmissions never sleep (the straggler is the delay).
    on_failure:
        What to do once a chunk's budget is spent (or the pool cannot
        be restarted): ``"fail"`` re-raises the chunk's exception,
        ``"degrade"`` re-runs the chunk serially in the parent process,
        ``"skip"`` records ``None`` for each of the chunk's items.
    max_pool_restarts:
        How many times a mid-run ``BrokenProcessPool`` may rebuild the
        pool before ``on_failure`` applies to the unfinished remainder.
    """

    timeout: float | None = None
    retries: int = 2
    backoff: float = 0.1
    on_failure: str = "fail"
    max_pool_restarts: int = 3

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0 or None, got {self.timeout}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")
        if self.on_failure not in ("fail", "degrade", "skip"):
            raise ValueError(
                f"on_failure must be 'fail', 'degrade', or 'skip', got {self.on_failure!r}"
            )
        if self.max_pool_restarts < 0:
            raise ValueError(f"max_pool_restarts must be >= 0, got {self.max_pool_restarts}")


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

# Per-worker shared payload, installed once by the pool initializer so the
# (potentially large) compiled plan is pickled once per worker instead of
# once per chunk.
_WORKER_PAYLOAD: dict = {}


def _worker_init(payload, observe: bool = False) -> None:
    _WORKER_PAYLOAD["payload"] = payload
    # A fork-started worker inherits the parent's observability session
    # (including its already-recorded spans); always discard that copy,
    # then open a fresh worker session when the parent is observing.
    obs.stop()
    if observe:
        obs.start("repro-worker")


def _worker_run_chunk(args: tuple) -> tuple[list, dict | None]:
    """Run one chunk; ship results plus any observability state.

    The second element is the worker session's :meth:`~repro.obs.
    session.Session.drain` blob (spans + metric snapshot accumulated by
    this chunk), or ``None`` when observability is off — the parent
    absorbs it so ``--jobs N`` metrics merge to the serial totals.
    """
    fn, chunk = args
    payload = _WORKER_PAYLOAD.get("payload")
    results = [fn(payload, item) for item in chunk]
    session = obs.active()
    return results, (session.drain() if session is not None else None)


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------


def chunked(items: Sequence, size: int) -> list[list]:
    """Split ``items`` into consecutive chunks of at most ``size``.

    Order is preserved (concatenating the chunks reproduces ``items``),
    which is what lets backends return results in submission order.
    """
    if size < 1:
        raise ValueError(f"chunk size must be >= 1, got {size}")
    items = list(items)
    return [items[i : i + size] for i in range(0, len(items), size)]


def default_chunk_size(n_items: int, jobs: int) -> int:
    """Aim for ~4 chunks per worker: large enough to amortize pickling,
    small enough that a straggler chunk cannot idle the rest of the pool
    for long.  Degenerates to one-item chunks when ``n_items < jobs``."""
    if n_items <= 0:
        return 1
    return max(1, math.ceil(n_items / (4 * max(1, jobs))))


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` reflects cgroup / taskset limits (the
    budget a container or CI runner really grants), falling back to
    ``os.cpu_count()`` on platforms without an affinity mask (macOS,
    Windows).  ``jobs=None`` sizes pools with this, so containers are
    not oversubscribed.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class ExecutionBackend:
    """Maps a pure function over independent work items.

    ``fn`` must be a module-level callable (picklable by reference) of
    the form ``fn(payload, item) -> result``; ``payload`` is shared
    state (typically the compiled plan) shipped to workers once.
    Results are returned in item order regardless of execution order.
    """

    jobs: int = 0

    def map(self, fn: Callable, items: Iterable, payload=None) -> list:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """In-process reference executor (``jobs=0``/``jobs=1``)."""

    jobs = 0

    def map(self, fn: Callable, items: Iterable, payload=None) -> list:
        return [fn(payload, item) for item in items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SerialBackend()"


class _Chunk:
    """Scheduler state for one submitted chunk."""

    __slots__ = ("index", "items", "attempts", "deadline", "results", "done")

    def __init__(self, index: int, items: list):
        self.index = index
        self.items = items
        self.attempts = 0  # submissions so far
        self.deadline: float | None = None  # of the latest submission
        self.results: list | None = None
        self.done = False


class ProcessPoolBackend(ExecutionBackend):
    """Chunked fan-out over a ``ProcessPoolExecutor`` (module docstring).

    Parameters
    ----------
    jobs:
        Worker count (>= 2; use :func:`resolve_backend` for the
        ``0/1/None`` conveniences).
    chunk_size:
        Items per submitted task; defaults to
        :func:`default_chunk_size`.
    policy:
        The :class:`FaultPolicy` governing timeouts, retries and
        failure handling (default: no timeout, 2 retries, fail loudly).
    """

    def __init__(
        self,
        jobs: int,
        chunk_size: int | None = None,
        policy: FaultPolicy | None = None,
    ):
        if jobs < 2:
            raise ValueError(f"ProcessPoolBackend needs jobs >= 2, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.policy = policy or FaultPolicy()

    # -- pool lifecycle -----------------------------------------------------
    def _make_pool(self, workers: int, payload, observe: bool) -> ProcessPoolExecutor | None:
        """Construct the executor, or None when the platform cannot.

        This is the *only* place unavailability is detected: a worker-
        raised ``OSError``/``ImportError`` reaches the caller as itself,
        never as a silent serial re-run (the old ``pool.map`` path
        misclassified those).
        """
        try:
            return ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(payload, observe),
            )
        except _POOL_UNAVAILABLE as exc:
            warnings.warn(
                f"process pool unavailable ({exc!r}); falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    # -- failure policy -----------------------------------------------------
    def _settle_failed_chunk(self, chunk: _Chunk, fn: Callable, payload, exc: BaseException):
        """Apply ``on_failure`` to a chunk whose budget is spent.

        Returns normally (marking the chunk done) for ``degrade`` and
        ``skip``; raises for ``fail``.
        """
        mode = self.policy.on_failure
        if mode == "fail":
            raise exc
        if mode == "degrade":
            obs.add("parallel.chunks_degraded")
            chunk.results = [fn(payload, item) for item in chunk.items]
        else:  # skip
            obs.add("parallel.chunks_skipped")
            chunk.results = [None] * len(chunk.items)
        chunk.done = True

    # -- the scheduler ------------------------------------------------------
    def map(self, fn: Callable, items: Iterable, payload=None) -> list:
        items = list(items)
        if not items:
            return []
        size = self.chunk_size or default_chunk_size(len(items), self.jobs)
        chunks = [_Chunk(i, c) for i, c in enumerate(chunked(items, size))]
        workers = min(self.jobs, len(chunks))
        session = obs.active()
        pool = self._make_pool(workers, payload, session is not None)
        if pool is None:
            obs.add("parallel.serial_fallback")
            return SerialBackend().map(fn, items, payload)
        # The scheduler may replace the pool mid-run (BrokenProcessPool
        # restart); the holder keeps shutdown pointed at the live one.
        holder = [pool]
        try:
            self._run(holder, fn, payload, chunks, workers, session)
        finally:
            if holder[0] is not None:
                holder[0].shutdown(wait=False, cancel_futures=True)
        return [r for chunk in chunks for r in chunk.results]

    def _run(self, holder, fn, payload, chunks: list[_Chunk], workers: int, session) -> None:
        policy = self.policy
        pending: dict[Future, _Chunk] = {}
        restarts = 0

        def submit(chunk: _Chunk) -> None:
            chunk.attempts += 1
            fut = holder[0].submit(_worker_run_chunk, (fn, chunk.items))
            pending[fut] = chunk
            if policy.timeout is not None:
                chunk.deadline = time.monotonic() + policy.timeout

        for chunk in chunks:
            submit(chunk)
        n_done = 0

        while n_done < len(chunks):
            if not pending:  # pragma: no cover - scheduler invariant
                raise RuntimeError("no pending futures but unfinished chunks remain")
            wait_timeout = None
            if policy.timeout is not None:
                deadlines = [c.deadline for c in chunks if not c.done and c.deadline is not None]
                if deadlines:
                    wait_timeout = max(0.0, min(deadlines) - time.monotonic())
            ready, _ = futures_wait(set(pending), timeout=wait_timeout, return_when=FIRST_COMPLETED)

            broken: BaseException | None = None
            for fut in ready:
                chunk = pending.pop(fut)
                if chunk.done:
                    # Stale speculative twin of an already-settled chunk:
                    # discard wholesale so its obs blob is never absorbed
                    # twice and its (bit-identical) results never re-land.
                    continue
                exc = fut.exception()
                if exc is None:
                    chunk.results, blob = fut.result()
                    chunk.done = True
                    n_done += 1
                    obs.add("parallel.chunks_completed")
                    if session is not None:
                        session.absorb(blob)
                elif isinstance(exc, BrokenProcessPool):
                    broken = exc  # pool-level event; handled once, below
                elif chunk.attempts <= policy.retries:
                    obs.add("parallel.chunk_retries")
                    if policy.backoff:
                        time.sleep(policy.backoff * 2 ** (chunk.attempts - 1))
                    submit(chunk)
                else:
                    self._settle_failed_chunk(chunk, fn, payload, exc)
                    n_done += 1

            if broken is not None:
                restarts += 1
                obs.add("parallel.pool_restarts")
                holder[0].shutdown(wait=False, cancel_futures=True)
                pending.clear()
                holder[0] = None
                if restarts <= policy.max_pool_restarts:
                    holder[0] = self._make_pool(workers, payload, session is not None)
                if holder[0] is None:
                    # Restart budget spent (or the platform regressed):
                    # completed chunks keep their results; the remainder
                    # goes through the explicit failure policy.
                    for chunk in chunks:
                        if not chunk.done:
                            self._settle_failed_chunk(chunk, fn, payload, broken)
                            n_done += 1
                    return
                for chunk in chunks:
                    if not chunk.done:
                        submit(chunk)
                continue

            if policy.timeout is not None:
                now = time.monotonic()
                for chunk in chunks:
                    if chunk.done or chunk.deadline is None or now < chunk.deadline:
                        continue
                    obs.add("parallel.chunk_timeouts")
                    if chunk.attempts <= policy.retries:
                        # Straggler: resubmit speculatively, first result
                        # wins; the original future stays live and is
                        # discarded as stale if it loses the race.
                        submit(chunk)
                    else:
                        self._settle_failed_chunk(
                            chunk,
                            fn,
                            payload,
                            ChunkTimeoutError(
                                f"chunk {chunk.index} ({len(chunk.items)} items) exceeded "
                                f"{policy.timeout:g}s on all {chunk.attempts} attempts"
                            ),
                        )
                        chunk.deadline = None
                        n_done += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProcessPoolBackend(jobs={self.jobs}, chunk_size={self.chunk_size}, "
            f"policy={self.policy})"
        )


def resolve_backend(
    jobs: int | None = 0,
    chunk_size: int | None = None,
    policy: FaultPolicy | None = None,
) -> ExecutionBackend:
    """Select a backend from the ``jobs`` convention (module docstring)."""
    if jobs is None:
        jobs = available_cpus()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 or None, got {jobs}")
    if jobs <= 1:
        return SerialBackend()
    return ProcessPoolBackend(jobs, chunk_size, policy)


# ---------------------------------------------------------------------------
# Replicate mapping (batched seeds, compact worker payload)
# ---------------------------------------------------------------------------


def replicate_items(spec: PerturbationSpec, replicates: int) -> list[tuple[int, PerturbationSpec]]:
    """The §5 replicate schedule: item ``i`` is ``(spec.seed + i, spec)``."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    return [(spec.seed + i, spec) for i in range(replicates)]


def _compiled_batch_item(payload, seed_batch: list[int]) -> np.ndarray:
    """Worker body: one contiguous seed batch through the compiled kernel."""
    plan, signature, scale, mode = payload
    spec = PerturbationSpec(signature, seed=seed_batch[0], scale=scale)
    with obs.span("replicate_batch", first_seed=seed_batch[0], n=len(seed_batch)):
        obs.span_add("mc.replicates", len(seed_batch))
        return plan.propagate_batch(spec, seeds=seed_batch, mode=mode).delays


def map_replicate_batches(
    plan,
    signature: MachineSignature,
    seeds: Sequence[int],
    scale: float = 1.0,
    mode: str = "additive",
    jobs: int | None = 0,
    chunk_size: int | None = None,
    policy: FaultPolicy | None = None,
) -> np.ndarray:
    """Replicate ``seeds`` through a :class:`~repro.core.compiled.
    CompiledPlan`, returning the ``(len(seeds), nprocs)`` delay matrix.

    Workers receive the plan's compact structure-of-arrays payload
    (never the Python object graph) plus a *batch* of seeds per task,
    so each task is one vectorized kernel invocation and the result
    rows come back as ndarray blocks that assemble with a single
    ``vstack`` — no per-row Python lists.  Row order follows ``seeds``;
    results are bit-identical across backends (each row is keyed by its
    own seed).

    The :class:`FaultPolicy` applies per *batch* (a batch is the chunk
    unit here); under ``on_failure="skip"`` a failed batch's rows are
    returned as NaN so the matrix keeps its shape.
    """
    seeds = list(seeds)
    if not seeds:
        return np.empty((0, plan.nprocs), dtype=np.float64)
    payload = (plan, signature, scale, mode)
    backend = resolve_backend(jobs, chunk_size, policy)
    if backend.jobs < 2:
        return _compiled_batch_item(payload, seeds)
    size = chunk_size or default_chunk_size(len(seeds), backend.jobs)
    batches = chunked(seeds, size)
    # Each work item is a whole seed batch (chunk_size=1 below: the
    # batches themselves are already the amortization unit).
    pool = ProcessPoolBackend(backend.jobs, chunk_size=1, policy=policy)
    parts = pool.map(_compiled_batch_item, batches, payload=payload)
    parts = [
        p if p is not None else np.full((len(batch), plan.nprocs), np.nan)
        for batch, p in zip(batches, parts)
    ]
    return parts[0] if len(parts) == 1 else np.vstack(parts)
