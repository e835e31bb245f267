"""Build scheduler: content-addressed cache + request coalescing.

The expensive prefix of every job is identical — load the traces, match
events, materialize the graph, lower it into a compiled plan.  The
scheduler makes that prefix run **once per distinct structure** no
matter how many requests arrive for it:

* The build key is a content digest of the trace file bytes plus the
  :class:`~repro.core.primitives.BuildConfig`, so two requests naming
  the same traces (or uploading identical bytes) coalesce even across
  daemon restarts and file renames.
* Live :class:`CacheEntry` objects (trace set + built graph) sit in a
  bounded LRU keyed by that digest.
* In-flight builds are asyncio futures: the first request for a key
  starts the build in a worker thread, every concurrent request for
  the same key awaits the *same* task — exactly one ``build_graph``
  runs (and, because :func:`repro.core.compiled.compiled_plan`
  serializes per-build compiles, exactly one plan compile follows).

All scheduler state lives on the event loop: entries and in-flight maps
are only touched from coroutines, never from worker threads, so there
are no locks to get wrong.  Only hashing, trace IO and the build itself
run in threads (``asyncio.to_thread``), which copies the caller's
context — the winning request's obs session records the build spans.
"""

from __future__ import annotations

import asyncio
import hashlib
import tempfile
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.core.builder import BuildResult
from repro.core.checkpoint import build_digest
from repro.core.diagnostics import DiagnosticError
from repro.core.primitives import BuildConfig
from repro.lint.engine import error_line, open_run
from repro.serve.wire import ServeError
from repro.trace.reader import TraceSource, find_trace_files

__all__ = ["BuildCache", "CacheEntry"]


@dataclass
class CacheEntry:
    """One cached structure: the trace set, its built graph, and the
    digests that address it.  ``tempdir`` pins uploaded trace files to
    the entry's lifetime (cleaned up on eviction)."""

    key: str
    traces: TraceSource
    build: BuildResult
    digest: str
    tempdir: tempfile.TemporaryDirectory | None = None
    hits: int = field(default=0)
    built_seq: int = field(default=0)  # BuildCache arrivals seen when the build finished

    def cleanup(self) -> None:
        if self.tempdir is not None:
            self.tempdir.cleanup()
            self.tempdir = None


def _resolve_traces_dir(traces: str, trace_root: str | None) -> Path:
    """Resolve a request's trace directory against the configured root.

    With a root configured every request path (absolute or relative) is
    confined under it — a daemon exposed beyond localhost must not be a
    generic file-read oracle.  Without a root, paths pass through
    (local trusted use, same as the CLI).
    """
    if trace_root is None:
        return Path(traces)
    root = Path(trace_root).resolve()
    if Path(traces).is_absolute():
        candidate = Path(traces).resolve()
    else:
        candidate = (root / traces).resolve()
    if root != candidate and root not in candidate.parents:
        raise ServeError("forbidden", f"traces dir {traces!r} is outside the served trace root")
    return candidate


def _hash_key(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:16]


def _dir_key(directory: Path, stem: str, config: BuildConfig) -> str:
    """Content digest of a directory-backed trace set + build config."""
    paths = find_trace_files(directory, stem)
    if not paths:
        raise ServeError("input-error", f"no trace files for stem {stem!r} in {directory}")
    parts = [repr(sorted(asdict(config).items())).encode()]
    for p in paths:
        parts.append(p.name.encode())
        parts.append(p.read_bytes())
    return _hash_key(parts)


def _upload_key(upload: dict[str, str], config: BuildConfig) -> str:
    """Content digest of an uploaded trace set + build config."""
    parts = [repr(sorted(asdict(config).items())).encode()]
    for name in sorted(upload):
        parts.append(name.encode())
        parts.append(upload[name].encode())
    return _hash_key(parts)


def _build_entry(
    key: str,
    traces_dir: Path | None,
    stem: str,
    upload: dict[str, str] | None,
    config: BuildConfig,
) -> CacheEntry:
    """Thread-side body of one build: the traces through the front door
    (:func:`repro.lint.open_run` — opened, checked by the trace pack,
    built), any refusal or build failure as one ``input-error`` line
    naming its rule."""
    tempdir: tempfile.TemporaryDirectory | None = None
    try:
        if upload is not None:
            tempdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            for name, content in upload.items():
                (Path(tempdir.name) / name).write_text(content)
            source = Path(tempdir.name)
        else:
            assert traces_dir is not None
            source = traces_dir
        try:
            run = open_run(source, stem, config)
            build = run.build
        except DiagnosticError as exc:
            raise ServeError("input-error", error_line(exc)) from exc
        return CacheEntry(
            key=key, traces=run.traces, build=build, digest=build_digest(build), tempdir=tempdir
        )
    except BaseException:
        if tempdir is not None:
            tempdir.cleanup()
        raise


class BuildCache:
    """Bounded LRU of live builds with in-flight coalescing.

    Every method MUST be called from the event loop; the synchronous
    sections between awaits are the atomicity mechanism (no re-entry
    without an await point).
    """

    def __init__(self, capacity: int, trace_root: str | None = None):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.trace_root = trace_root
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._inflight: dict[str, asyncio.Task[CacheEntry]] = {}
        self.builds = 0
        self.coalesced = 0
        self.hits = 0
        self._arrivals = 0

    def __len__(self) -> int:
        return len(self._entries)

    async def entry_for(
        self, request: dict[str, Any], config: BuildConfig
    ) -> tuple[CacheEntry, bool]:
        """The cache entry for one validated request: ``(entry, cached)``.

        ``cached`` is True when the request found a live entry or an
        in-flight build (i.e. this request paid no build of its own).
        A request counts as *coalesced* when the build it shares finished
        after the request arrived — also when that happened while the
        request was still hashing its key — and as a *hit* otherwise.
        """
        self._arrivals += 1
        arrival = self._arrivals
        stem: str = request["stem"]
        upload: dict[str, str] | None = request["upload"]
        traces_dir: Path | None = None
        if upload is not None:
            key = await asyncio.to_thread(_upload_key, upload, config)
        else:
            traces_dir = _resolve_traces_dir(request["traces"], self.trace_root)
            key = await asyncio.to_thread(_dir_key, traces_dir, stem, config)

        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            if entry.built_seq >= arrival:
                self.coalesced += 1
            else:
                entry.hits += 1
                self.hits += 1
            return entry, True

        task = self._inflight.get(key)
        if task is not None:
            self.coalesced += 1
            entry = await asyncio.shield(task)
            return entry, True

        task = asyncio.ensure_future(
            asyncio.to_thread(_build_entry, key, traces_dir, stem, upload, config)
        )
        self._inflight[key] = task
        task.add_done_callback(lambda t: self._finish_build(key, t))
        entry = await asyncio.shield(task)
        return entry, False

    def _finish_build(self, key: str, task: "asyncio.Task[CacheEntry]") -> None:
        """Loop-side completion of one build task.

        Runs via ``add_done_callback`` so the built entry lands in the
        cache even when every requester that awaited it was cancelled
        (the shield keeps the build running; the work must not be lost).
        """
        if self._inflight.get(key) is task:
            del self._inflight[key]
        if task.cancelled() or task.exception() is not None:
            return  # awaiting requesters surface the failure themselves
        self.builds += 1
        entry = task.result()
        entry.built_seq = self._arrivals
        self._insert(key, entry)

    def _insert(self, key: str, entry: CacheEntry) -> None:
        if key in self._entries:  # a coalesced racer inserted first
            self._entries.move_to_end(key)
            return
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            _, evicted = self._entries.popitem(last=False)
            evicted.cleanup()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "builds": self.builds,
            "hits": self.hits,
            "coalesced": self.coalesced,
        }

    def clear(self) -> None:
        for entry in self._entries.values():
            entry.cleanup()
        self._entries.clear()
