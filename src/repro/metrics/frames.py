"""Columnar trace/graph analytics: structure-of-arrays frames.

Pipit (arXiv:2306.11177) showed that the right substrate for scriptable
trace analysis is a columnar dataframe, not a list of event objects.
This module exposes both sides of the repro pipeline that way:

* :func:`trace_frame` — a trace set as one :class:`Frame` with a numpy
  column per :class:`~repro.trace.events.EventRecord` field (plus a
  derived ``duration``).  Building the frame is the single O(events)
  Python pass; every analysis on top of it (``repro.metrics.pop``,
  ``repro.metrics.timeline``, :func:`repro.trace.stats.trace_stats`)
  is pure vectorized numpy.
* :func:`node_frame` / :func:`edge_frame` — the built event graph as
  frames whose columns are **zero-copy views** over the
  :class:`~repro.core.compiled.CompiledPlan` structure-of-arrays
  (``np.shares_memory`` with the plan arrays; asserted in tests).

A :class:`Frame` is deliberately tiny: named homogeneous columns of
equal length, ``filter``/``select``/``sort_by``/``groupby``, and an
optional ``to_pandas()`` escape hatch.  It is not pandas — it is the
5% of pandas these analyses need, with no required dependency.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

import numpy as np

from repro.trace.events import EventRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.builder import BuildResult
    from repro.core.compiled import CompiledPlan
    from repro.trace.reader import TraceSource

__all__ = [
    "Frame",
    "FrameGroupBy",
    "edge_frame",
    "node_frame",
    "trace_frame",
]


class Frame:
    """An immutable-shape, structure-of-arrays table.

    ``columns`` maps name → 1-D numpy array; all arrays share one
    length.  ``Frame`` never copies on construction — callers hand in
    views (that is the zero-copy contract of :func:`edge_frame` /
    :func:`node_frame`).  Row-subsetting operations (``filter``,
    ``sort_by``) use fancy indexing and therefore *do* copy, as in any
    columnar store.
    """

    __slots__ = ("_cols", "_n", "meta")

    def __init__(
        self, columns: Mapping[str, np.ndarray], meta: dict[str, Any] | None = None
    ) -> None:
        cols: dict[str, np.ndarray] = {}
        n = -1
        for name, arr in columns.items():
            a = np.asarray(arr)
            if a.ndim != 1:
                raise ValueError(f"column {name!r} must be 1-D, got shape {a.shape}")
            if n < 0:
                n = len(a)
            elif len(a) != n:
                raise ValueError(
                    f"column {name!r} has length {len(a)}, expected {n} "
                    f"(all frame columns must match)"
                )
            cols[name] = a
        self._cols = cols
        self._n = max(n, 0)
        self.meta = dict(meta or {})

    # -- introspection ------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def columns(self) -> tuple[str, ...]:
        return tuple(self._cols)

    def __contains__(self, name: object) -> bool:
        return name in self._cols

    def __getitem__(self, name: str) -> np.ndarray:
        """The column itself — a live view, never a copy."""
        try:
            return self._cols[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; frame has {', '.join(self._cols) or '(no columns)'}"
            ) from None

    def __repr__(self) -> str:
        return f"Frame({self._n} rows × {len(self._cols)} cols: {', '.join(self._cols)})"

    def row(self, i: int) -> dict[str, Any]:
        """Row ``i`` as a plain dict (scalar python values)."""
        return {name: arr[i].item() for name, arr in self._cols.items()}

    # -- relational ops -----------------------------------------------------
    def select(self, *names: str) -> "Frame":
        """Sub-frame with only ``names`` — columns stay views."""
        return Frame({n: self[n] for n in names}, meta=self.meta)

    def with_columns(self, **extra: np.ndarray) -> "Frame":
        """New frame with additional (or replaced) columns."""
        cols = dict(self._cols)
        cols.update(extra)
        return Frame(cols, meta=self.meta)

    def filter(self, mask: np.ndarray | Callable[["Frame"], np.ndarray]) -> "Frame":
        """Rows where ``mask`` is true.

        ``mask`` is a boolean array or a callable receiving the frame
        (``f.filter(lambda f: f["kind"] == EventKind.SEND)``).
        """
        m = np.asarray(mask(self) if callable(mask) else mask)
        if m.dtype != np.bool_ or m.shape != (self._n,):
            raise ValueError(f"mask must be bool of shape ({self._n},), got {m.dtype}{m.shape}")
        return Frame({n: a[m] for n, a in self._cols.items()}, meta=self.meta)

    def sort_by(self, *names: str) -> "Frame":
        """Stable sort by one or more columns (last key is primary in
        ``np.lexsort`` order, so keys are passed most- to least-significant)."""
        if not names:
            raise ValueError("sort_by needs at least one column name")
        order = np.lexsort(tuple(self[n] for n in reversed(names)))
        return Frame({n: a[order] for n, a in self._cols.items()}, meta=self.meta)

    def groupby(self, key: str) -> "FrameGroupBy":
        return FrameGroupBy(self, key)

    # -- interop ------------------------------------------------------------
    def to_dict(self) -> dict[str, np.ndarray]:
        return dict(self._cols)

    def to_pandas(self) -> Any:  # pragma: no cover - optional dependency
        """The frame as a ``pandas.DataFrame`` (optional import)."""
        try:
            import pandas as pd
        except ImportError as exc:
            raise ImportError(
                "to_pandas() requires pandas; install it or script "
                "against the numpy columns directly"
            ) from exc
        return pd.DataFrame(self._cols)


class FrameGroupBy:
    """Grouped view of a frame, produced by :meth:`Frame.groupby`.

    Aggregations are vectorized (stable argsort + ``ufunc.reduceat``);
    iterating yields ``(key_value, sub_frame)`` pairs in key order.
    """

    def __init__(self, frame: Frame, key: str) -> None:
        self._frame = frame
        self._key = key
        self._order = np.argsort(frame[key], kind="stable")
        sorted_keys = frame[key][self._order]
        if len(sorted_keys):
            starts = np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
        else:
            starts = np.zeros(0, dtype=np.int64)
        self._starts = starts
        self.keys = sorted_keys[starts] if len(sorted_keys) else sorted_keys

    def __iter__(self) -> Iterator[tuple[Any, Frame]]:
        bounds = np.append(self._starts, len(self._order))
        for i, k in enumerate(self.keys):
            idx = self._order[bounds[i] : bounds[i + 1]]
            yield k.item(), Frame(
                {n: a[idx] for n, a in self._frame.to_dict().items()},
                meta=self._frame.meta,
            )

    def _reduce(self, ufunc: np.ufunc, names: tuple[str, ...]) -> Frame:
        cols: dict[str, np.ndarray] = {self._key: self.keys}
        for n in names or tuple(c for c in self._frame.columns if c != self._key):
            vals = self._frame[n][self._order]
            if len(self._starts):
                cols[n] = ufunc.reduceat(vals, self._starts)
            else:
                cols[n] = vals[:0]
        return Frame(cols, meta=self._frame.meta)

    def sum(self, *names: str) -> Frame:
        return self._reduce(np.add, names)

    def max(self, *names: str) -> Frame:
        return self._reduce(np.maximum, names)

    def min(self, *names: str) -> Frame:
        return self._reduce(np.minimum, names)

    def count(self) -> Frame:
        counts = np.diff(np.append(self._starts, len(self._order)))
        return Frame({self._key: self.keys, "count": counts}, meta=self._frame.meta)

    def mean(self, *names: str) -> Frame:
        s = self._reduce(np.add, names)
        counts = np.diff(np.append(self._starts, len(self._order)))
        cols = {self._key: s[self._key]}
        for n in s.columns:
            if n != self._key:
                cols[n] = s[n] / np.maximum(counts, 1)
        return Frame(cols, meta=self._frame.meta)


# ---------------------------------------------------------------------------
# Trace → frame
# ---------------------------------------------------------------------------

#: column name → (EventRecord attribute, dtype)
_EVENT_COLUMNS: tuple[tuple[str, str, type], ...] = (
    ("rank", "rank", np.int64),
    ("seq", "seq", np.int64),
    ("kind", "kind", np.uint8),
    ("t_start", "t_start", np.float64),
    ("t_end", "t_end", np.float64),
    ("peer", "peer", np.int64),
    ("tag", "tag", np.int64),
    ("nbytes", "nbytes", np.int64),
    ("req", "req", np.int64),
    ("root", "root", np.int64),
    ("coll_seq", "coll_seq", np.int64),
    ("recv_peer", "recv_peer", np.int64),
    ("recv_tag", "recv_tag", np.int64),
    ("recv_nbytes", "recv_nbytes", np.int64),
)


def trace_frame(trace: "TraceSource | list[EventRecord]") -> Frame:
    """A trace set (or flat event list) as one columnar :class:`Frame`.

    Columns: every scalar :class:`~repro.trace.events.EventRecord`
    field plus derived ``duration = t_end - t_start``.  Rows are
    ordered rank-major (rank 0's events in stream order, then rank 1's,
    …), matching :meth:`TraceSet.load_all` iteration.  Variable-length
    fields (``reqs``, ``completed``) are not columnized.

    A trace set's ranks are its per-rank columnar decodes
    (:func:`repro.trace.reader.rank_columns`) concatenated, so a trace
    the front door already decoded is not read again; all downstream
    metric math is vectorized over the returned columns.
    ``frame.meta`` carries ``nprocs`` and ``program`` when the source
    is a trace set.
    """
    from repro.trace.columns import EventColumns
    from repro.trace.reader import rank_columns

    meta: dict[str, Any] = {}
    if isinstance(trace, list):
        frames: Iterator = iter([EventColumns.from_events(trace)])
        if trace:
            meta["nprocs"] = max(ev.rank for ev in trace) + 1
    else:
        meta["nprocs"] = trace.nprocs
        try:
            meta["program"] = trace.meta(0).program
        except (KeyError, IndexError):  # pragma: no cover - defensive
            pass
        frames = (rank_columns(trace, rank) for rank in range(trace.nprocs))
    parts: list[list[np.ndarray]] = [[] for _ in _EVENT_COLUMNS]
    for frame in frames:  # one rank's decode alive at a time
        for part, (_, attr, _dt) in zip(parts, _EVENT_COLUMNS):
            part.append(getattr(frame, attr))
    cols = {
        name: np.concatenate(part).astype(dt, copy=False) if part else np.zeros(0, dtype=dt)
        for part, (name, _, dt) in zip(parts, _EVENT_COLUMNS)
    }
    cols["duration"] = cols["t_end"] - cols["t_start"]
    return Frame(cols, meta=meta)


# ---------------------------------------------------------------------------
# Graph → frames (zero-copy over CompiledPlan arrays)
# ---------------------------------------------------------------------------


def _as_plan(source: "BuildResult | CompiledPlan") -> "CompiledPlan":
    from repro.core.compiled import CompiledPlan, compiled_plan

    if isinstance(source, CompiledPlan):
        return source
    return compiled_plan(source)


def node_frame(source: "BuildResult | CompiledPlan") -> Frame:
    """The built graph's nodes as a frame.

    Every column except the derived ``node_id`` is a **zero-copy view**
    of the corresponding :class:`CompiledPlan` array (``node_rank``,
    ``node_seq``, ``node_phase``, ``node_kind``, ``node_t_local``) —
    ``np.shares_memory`` holds, so a million-node graph costs nothing
    to expose.  Virtual nodes carry ``t_local = NaN``.
    """
    plan = _as_plan(source)
    return Frame(
        {
            "node_id": np.arange(plan.n_nodes, dtype=np.int64),
            "rank": plan.node_rank,
            "seq": plan.node_seq,
            "phase": plan.node_phase,
            "kind": plan.node_kind,
            "t_local": plan.node_t_local,
        },
        meta={"nprocs": plan.nprocs},
    )


def edge_frame(source: "BuildResult | CompiledPlan") -> Frame:
    """The built graph's edges as a frame.

    ``src``/``dst``/``weight``/``delta_kind``/``is_local``/``nbytes``
    are zero-copy views of the plan arrays (``edge_src``, ``edge_dst``,
    ``edge_weight``, ``edge_kind``, ``edge_is_local``,
    ``edge_nbytes``); ``edge_id`` is derived.
    """
    plan = _as_plan(source)
    return Frame(
        {
            "edge_id": np.arange(plan.n_edges, dtype=np.int64),
            "src": plan.edge_src,
            "dst": plan.edge_dst,
            "weight": plan.edge_weight,
            "delta_kind": plan.edge_kind,
            "is_local": plan.edge_is_local,
            "nbytes": plan.edge_nbytes,
        },
        meta={"nprocs": plan.nprocs},
    )
