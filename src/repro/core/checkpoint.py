"""On-disk checkpoint store for seed-addressed analyses.

The §5–§6 analyses (:func:`~repro.core.montecarlo.monte_carlo`
replicates, :func:`~repro.core.sweep.sweep_scales` /
:func:`~repro.core.sweep.sweep_signatures` points,
:func:`~repro.core.influence.rank_influence` rows) are fan-outs of
independent, *seed-addressed* propagations: each unit of work is fully
determined by ``(seed, signature, scale, mode, engine)`` over one fixed
build.  That addressing is what makes checkpointing trivial to get
right — a resumed run recomputes exactly the missing shards and is
**bit-identical** to an uninterrupted one, because a shard's content is
a pure function of its key.

One shard = one JSON file = one result row (a per-rank delay vector),
carrying its :class:`ShardKey` plus a content digest.  Shards are
written atomically (:func:`repro._util.atomic_write_text`), so a crash
mid-write never leaves a truncated shard; a shard that *is* corrupt
(bit rot, manual tampering, version skew) fails its digest or key check
on read and is silently treated as missing — counted as
``checkpoint.corrupt`` — and recomputed.

Resumability is exposed as ``--checkpoint DIR`` / ``--resume`` on
``repro-analyze`` and ``repro-sweep``: ``--checkpoint`` writes shards
as results are produced; ``--resume`` additionally reads existing
shards first, so a run killed mid-flight continues where it stopped.

JSON round-trips Python floats exactly (shortest-repr), so cached rows
are bit-for-bit the rows that were computed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro import obs
from repro._util import atomic_write_text
from repro.core.graph import _DELTA_ROW_COLUMNS, _EDGE_COLUMNS
from repro.core.primitives import BuildConfig
from repro.trace.format import encode_event_text

__all__ = [
    "CheckpointStore",
    "ShardKey",
    "build_digest",
    "digest_of",
    "resolve_rows",
    "signature_digest",
    "trace_digest",
]

SHARD_SCHEMA = "repro-checkpoint-shard/1"

#: Environment hook consumed by the fault-injection harness
#: (:mod:`repro.testing.faults`): kill the process after N shard writes.
KILL_AFTER_SHARDS_ENV = "REPRO_FAULT_KILL_AFTER_SHARDS"


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_of(obj) -> str:
    """Stable short hex digest of a JSON-able object (canonical form)."""
    return hashlib.sha256(_canonical(obj).encode()).hexdigest()[:16]


def signature_digest(signature) -> str:
    """Content digest of a :class:`~repro.noise.signature.MachineSignature`."""
    return digest_of(signature.to_dict())


def build_digest(build) -> str:
    """Content digest of a built graph (the checkpoint *context*).

    Two different trace sets can coincide on every key field
    (seed/signature/scale/mode/engine) yet propagate differently, so
    every shard key also carries a digest of the structure it was
    computed over: the node/edge/rank counts, every edge and delta
    column (endpoints, kinds, weights, and the delta fields and uids
    that key each edge's random stream) and each rank's final node.
    Cached on the build (computed once per analysis).
    """
    cached = build.__dict__.get("_checkpoint_digest")
    if cached is not None:
        return cached
    g = build.graph
    h = hashlib.sha256(f"{g.nprocs}:{len(g.nodes)}:{len(g.edges)}".encode())
    for name in (*_EDGE_COLUMNS, *_DELTA_ROW_COLUMNS):
        col = getattr(g, name)
        h.update(f"\n{name}:{col.dtype.str}:{col.shape}\n".encode())
        h.update(col.tobytes())
    h.update(repr(list(g.final_nodes)).encode())
    digest = h.hexdigest()[:16]
    build.__dict__["_checkpoint_digest"] = digest
    return digest


def trace_digest(trace_set, config: BuildConfig | None = None) -> str:
    """Context digest for engines that never build a graph (streaming
    sweeps): every rank's event stream plus the ``BuildConfig``.

    Two traces of one program can differ in every event, and a config
    changes the templates the traversal applies, so both are hashed.
    The events stream through the digest one at a time (constant
    memory), in the canonical text encoding; ``config`` defaults to
    ``BuildConfig()``.
    """
    config = config or BuildConfig()
    h = hashlib.sha256(_canonical([trace_set.nprocs, asdict(config)]).encode())
    for rank in range(trace_set.nprocs):
        h.update(f"\nrank {rank}".encode())
        for ev in trace_set.events_of(rank):
            h.update(b"\n")
            h.update(encode_event_text(ev).encode())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class ShardKey:
    """Address of one checkpointed result row.

    ``kind`` is the analysis family (``"mc"``, ``"sweep_scales"``,
    ``"sweep_signatures"``, ``"influence"``); ``context`` is the
    :func:`build_digest` / :func:`trace_digest` of the structure the
    row was computed over.  Every field participates in the shard
    filename, so distinct keys can never collide on disk.
    """

    kind: str
    seed: int
    signature: str
    scale: float
    mode: str
    engine: str
    context: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "signature": self.signature,
            "scale": self.scale,
            "mode": self.mode,
            "engine": self.engine,
            "context": self.context,
        }

    @property
    def filename(self) -> str:
        return f"{self.kind}-{self.seed}-{digest_of(self.to_dict())}.json"


class CheckpointStore:
    """Directory of checksummed, atomically-written result shards.

    Safe under concurrent access from one store *or* many: a shard's
    content is a pure function of its key, writes are atomic renames of
    uniquely-named temp files (concurrent :meth:`put` of the same key is
    last-writer-wins of identical bytes — never a torn file), and
    :meth:`get` tolerates a shard appearing or vanishing between the
    lookup and the read (both count as a miss, never an error).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.writes = 0
        self._writes_lock = threading.Lock()
        self._write_hook = None
        if os.environ.get(KILL_AFTER_SHARDS_ENV):
            # Deterministic chaos: the fault harness arms a hook that
            # kills this process after N successful shard writes.
            from repro.testing.faults import checkpoint_write_hook

            self._write_hook = checkpoint_write_hook()

    @classmethod
    def coerce(cls, value: "CheckpointStore | str | Path | None") -> "CheckpointStore | None":
        """Accept a store, a directory path, or None (no checkpointing)."""
        if value is None or isinstance(value, cls):
            return value
        return cls(value)

    def path_for(self, key: ShardKey) -> Path:
        return self.root / key.filename

    def get(self, key: ShardKey) -> list[float] | None:
        """The cached row for ``key``, or None (missing *or* corrupt).

        A corrupt shard — unparsable JSON, key mismatch, or content
        digest mismatch — counts as ``checkpoint.corrupt`` and reads as
        missing, so the row is recomputed and the shard rewritten.

        The read is a single open (no exists() pre-check): a shard
        written by a concurrent writer between lookup and read is
        simply found, and one unlinked in that window is a plain miss
        (``FileNotFoundError`` → ``checkpoint.misses``, not corrupt).
        Atomic-rename writes mean whatever is opened is complete.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            obs.add("checkpoint.misses")
            return None
        except OSError:
            obs.add("checkpoint.corrupt")
            return None
        try:
            record = json.loads(text)
            result = record["result"]
            ok = (
                record.get("schema") == SHARD_SCHEMA
                and record.get("key") == key.to_dict()
                and record.get("digest") == digest_of(result)
                and isinstance(result, list)
            )
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            ok = False
        if not ok:
            obs.add("checkpoint.corrupt")
            return None
        obs.add("checkpoint.hits")
        return result

    def put(self, key: ShardKey, row: Sequence[float]) -> Path:
        """Persist one result row under ``key`` (atomic write)."""
        result = [float(v) for v in row]
        record = {
            "schema": SHARD_SCHEMA,
            "key": key.to_dict(),
            "result": result,
            "digest": digest_of(result),
        }
        path = atomic_write_text(self.path_for(key), json.dumps(record) + "\n")
        with self._writes_lock:
            self.writes += 1
            writes = self.writes
        obs.add("checkpoint.writes")
        if self._write_hook is not None:
            self._write_hook(writes)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CheckpointStore({str(self.root)!r})"


def _storable(row) -> bool:
    """Only real rows are persisted — never ``None`` / NaN placeholders
    left by ``FaultPolicy(on_failure='skip')``."""
    if row is None:
        return False
    try:
        return all(math.isfinite(float(v)) for v in row)
    except (TypeError, ValueError):
        return False


def resolve_rows(
    store: CheckpointStore | None,
    keys: Sequence[ShardKey],
    compute: Callable[[list[int]], Sequence],
    resume: bool = False,
) -> list:
    """Gather one row per key: cached shards first, then compute the rest.

    ``compute(missing_indices)`` returns (or yields) one row per missing
    index, in that order; rows are checkpointed **as they arrive**, so a
    generator-backed compute gives incremental progress a kill cannot
    erase.  With ``store=None`` this degenerates to ``compute(all)``;
    with ``resume=False`` nothing is read but everything is written.
    """
    rows: list = [None] * len(keys)
    missing = list(range(len(keys)))
    if store is not None and resume:
        missing = []
        for i, key in enumerate(keys):
            row = store.get(key)
            if row is None:
                missing.append(i)
            else:
                rows[i] = row
    if missing:
        for i, row in zip(missing, compute(missing)):
            rows[i] = row
            if store is not None and _storable(row):
                store.put(keys[i], row)
    return rows
