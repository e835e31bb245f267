"""Compiled graph plan: the in-core delta-propagation engine (§4.2, §6).

Every in-core propagation — :func:`propagate`, ``monte_carlo``, sweeps,
``rank_influence``, diagnose and verify — runs here.  A
:class:`CompiledPlan` lowers a :class:`~repro.core.builder.BuildResult`
once into structure-of-arrays form (topology is spec-independent) and
then processes **all replicates simultaneously**:

* edge columns (predecessor index, weight, delta-kind code, uid
  columns for hashing, message sizes for δ_t(d)) and each node's
  topological level;
* the vectorized sampler of :mod:`repro.core.sampler`, which
  reproduces :meth:`PerturbationSpec.sample` draws **bit-for-bit** for
  every (replicate, edge) lane, falling back to the scalar spec lane
  by lane wherever it has no verified fast path;
* one walk (:meth:`CompiledPlan.walk`) carrying all replicate rows
  through one max-plus pass — one :func:`level_step` per level, the
  per-node max over in-edges vectorized across the replicate axis, both
  ``additive`` and ``threshold`` modes or the critical path's unclamped
  costs — over the flat level schedule, or over the two-level
  :class:`~repro.core.coarsen.CoarseIR` (all a coarse plan keeps) when
  phase coarsening applied.

Results are identical, bit for bit and for *any* signature, to the
object-graph reference oracle :func:`repro.testing.oracle.propagate`,
one scalar pass over the Kahn order that the tests hold this engine to.

Observability: the compiled path emits ``compiled.compile``,
``compiled.sample`` and ``compiled.propagate`` spans plus
``traversal.propagations`` / ``traversal.clamped_edges`` counters, so
``--profile`` output stays comparable with the streaming engine;
:func:`propagate` wraps its plan in the ``propagate`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.core.coarsen import AUTO_MIN_NODES, COARSEN_CHOICES, Level, detect_phases
from repro.core.graph import DeltaKind, DeltaRows, EdgeKind
from repro.core.perturb import PerturbationSpec
from repro.core.sampler import _adopt_tables, _BoundSampler, _get_tables, _TemplateSampler
from repro.core.traversal import MODES, TraversalResult
from repro.noise.signature import MachineSignature

__all__ = [
    "SCRATCH_CELLS",
    "CompiledBatch",
    "CompiledPlan",
    "Walk",
    "compiled_plan",
    "level_step",
    "propagate",
]

_U64 = np.uint64

#: Scratch budget of one walk step, in float64 cells (about 100 MB):
#: bounds the replicate rows of a batch and the templated instances
#: drawn at once.
SCRATCH_CELLS = 12_000_000

# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


def level_step(S: np.ndarray, eff: np.ndarray, lv: Level) -> None:
    """One level of the max-plus pass over R replicate rows:
    ``S[:, dst] = max over each destination's in-edges of
    S[:, src] + eff[:, ecol]``."""
    contrib = S[:, lv.src] + eff[:, lv.ecol]
    S[:, lv.dst] = contrib if lv.single else np.maximum.reduceat(contrib, lv.segs, axis=1)


def _gather(S: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """(R, len(pos)) columns ``pos`` of ``S``; 0.0 where ``pos`` is -1."""
    out = np.zeros((S.shape[0], len(pos)), dtype=np.float64)
    have = pos >= 0
    out[:, have] = S[:, pos[have]]
    return out


def _level_schedule(edge_src: np.ndarray, edge_dst: np.ndarray, level: np.ndarray) -> list[Level]:
    """The flat level schedule given each node's level.

    Levels 1.. in order; within a level, nodes by id and each node's
    in-edges in insertion (CSR) order.  Every ``Level`` array is a
    slice of one flat array sorted that way.
    """
    eid = np.lexsort((edge_dst, level[edge_dst]))  # stable: insertion order within a node
    dst = edge_dst[eid]
    first = np.flatnonzero(np.diff(dst, prepend=-1))  # each node's first slot in ``eid``
    nodes = dst[first]
    src = edge_src[eid]
    # Levels are contiguous from 1: every node above level 1 has a
    # predecessor one level down.
    n_levels = int(level.max(initial=0))
    node_at = np.searchsorted(level[nodes], np.arange(1, n_levels + 2)).tolist()
    edge_at = np.append(first, len(eid))[node_at]
    segs = first - np.repeat(edge_at[:-1], np.diff(node_at))
    edge_at = edge_at.tolist()
    return [
        Level(nodes[a:b], src[ea:eb], eid[ea:eb], segs[a:b], eb - ea == b - a)
        for a, b, ea, eb in zip(node_at, node_at[1:], edge_at, edge_at[1:])
    ]


def _uid_columns(g, sampled_ids: np.ndarray, delta_kind: np.ndarray):
    """``(uid_mat, uid_len, uid_kind)``: the sampled edges' uids as
    uint64 columns (the low 64 bits ``perturb._mix`` reads), read from
    the graph's ``delta_uid``/``delta_uid_len`` columns; zero for the
    edges that sample nothing."""
    n_edges = len(delta_kind)
    uid_len = np.zeros(n_edges, dtype=np.int64)
    uid_len[sampled_ids] = g.delta_uid_len[sampled_ids]
    width = int(uid_len.max(initial=0))
    uid_mat = np.zeros((n_edges, width), dtype=_U64)
    uid_mat[sampled_ids] = g.delta_uid[sampled_ids, :width].view(_U64)
    uid_kind = np.zeros(n_edges, dtype=_U64)
    uid_kind[sampled_ids] = delta_kind[sampled_ids]
    return uid_mat, uid_len, uid_kind


def _apply_mode(raw: np.ndarray, w: np.ndarray, mode: str | None):
    """``(δ_eff, clamped)`` for raw deltas over edges of weights ``w``
    (clamped as ``_DeltaApplier`` does; as is with ``mode=None``);
    ``clamped`` counts additive-mode zero-floor clamps per replicate
    row.  Elementwise: a region of columns gets the whole row's floats."""
    if mode is None:
        return raw, np.zeros(raw.shape[0], dtype=np.int64)
    if mode == "threshold":
        return np.maximum(0.0, raw - w), np.zeros(raw.shape[0], dtype=np.int64)
    mask = raw < -w
    eff = np.where(mask, -w, raw)
    return eff, mask.sum(axis=1).astype(np.int64)


@dataclass(frozen=True)
class CompiledBatch:
    """Replicate-batched propagation output.

    ``delays`` has shape (replicates, nprocs) — row r is exactly
    ``propagate(build, spec_with_seed_r, mode).final_delay``.
    """

    delays: np.ndarray
    clamped: np.ndarray  # (replicates,) per-replicate clamped-edge counts
    mode: str


class Walk(NamedTuple):
    """What :meth:`CompiledPlan.walk` returns for R replicate rows."""

    delays: np.ndarray  # (R, nprocs) per-rank final delays
    clamped: np.ndarray  # (R,) additive-mode zero-floor clamps
    node_delay: np.ndarray | None  # (R, n_nodes), on request
    edge_delta: np.ndarray | None  # (R, n_edges) effective deltas, on request


#: ``take(cols, span)``: (R, len(cols)) raw deltas of edges ``cols`` for
#: the walk's R rows; ``span`` is the ``(j0, j1)`` range of templated
#: instances the edges belong to, or None.
Take = Callable[[object, "tuple[int, int] | None"], np.ndarray]


def _draw(pair, seeds: list[int], scale: float, span) -> np.ndarray:
    """One region drawn by the coarse samplers: the static edges when
    ``span`` is None, else templated instances ``[j0, j1)``."""
    static_s, tmpl_s = pair
    if span is None:
        return static_s.sample_raw(seeds, scale)
    return tmpl_s.sample(seeds, scale, *span)


class CompiledPlan:
    """A BuildResult lowered to structure-of-arrays form (see module doc).

    Compile once (topology is spec-independent), then reuse across
    replicates, sweep points and influence rows.  The plan is picklable
    — :class:`~repro.core.parallel.ProcessPoolBackend` ships these
    compact arrays to workers instead of the Python object graph.
    """

    def __init__(self, build: BuildResult, coarsen: str = "auto"):
        if coarsen not in COARSEN_CHOICES:
            raise ValueError(
                f"coarsen must be one of {COARSEN_CHOICES}, got {coarsen!r}"
            )
        with obs.span("compiled.compile", coarsen=coarsen):
            g = build.graph
            self.nprocs = g.nprocs
            self.n_nodes = len(g.nodes)
            self.n_edges = len(g.edges)
            # Node/edge attribute columns, shared with the graph's column
            # store — the structure-of-arrays substrate that
            # repro.metrics.frames hands out as zero-copy views.
            self.edge_weight = g.edge_weight
            self.edge_kind = g.delta_kind  # the delta kind: what gets sampled
            self.sampled_ids = np.nonzero(self.edge_kind != int(DeltaKind.NONE))[0]
            self.node_rank = g.node_rank
            self.node_seq = g.node_seq
            self.node_phase = g.node_phase
            self.node_kind = g.node_kind
            self.node_t_local = g.node_t_local
            self.edge_src = g.edge_src
            self.edge_dst = g.edge_dst
            self.edge_is_local = g.edge_kind == EdgeKind.LOCAL
            self.edge_nbytes = g.delta_nbytes
            self.delta_rank = g.delta_rank
            self.delta_src = g.delta_src
            self.delta_dst = g.delta_dst
            self.delta_rounds = g.delta_rounds

            self.uid_mat, self.uid_len, self.uid_kind = _uid_columns(
                g, self.sampled_ids, self.edge_kind
            )
            topo, level = g.topological_levels()
            self.node_level = np.array(level, dtype=np.int32)

            # Final (FINALIZE END) node per rank, with the graph's
            # rank-chain fallback; -1 = rank has no nodes at all.
            self.final_node = np.array(
                [-1 if nid is None else nid for nid in map(g.final_node_of, range(self.nprocs))],
                dtype=np.int64,
            )
            have = self.final_node >= 0
            self.final_t_local = np.zeros(self.nprocs, dtype=np.float64)
            self.final_t_local[have] = self.node_t_local[self.final_node[have]]
            # Hierarchical IR: detect the repeated phase and lower it to
            # the two-level coarse plan.  ``auto`` only attempts detection
            # on graphs large enough for the coarse walk to pay off.
            self.coarsen = coarsen
            self.coarse = None
            if coarsen == "on" or (coarsen == "auto" and self.n_nodes >= AUTO_MIN_NODES):
                with obs.span("coarsen.detect", nodes=self.n_nodes):
                    self.coarse = detect_phases(self, g, topo)
                if self.coarse is not None:
                    obs.add("coarsen.applied")
                else:
                    obs.add("coarsen.rejected")
            self._levels = None  # a coarse walk reads only its IR
            if self.coarse is None:
                self._levels = self.levels

            obs.span_add("compiled.plans")
            self._samplers: list[tuple[MachineSignature, _BoundSampler]] = []
            self._coarse_binds: list = []
            self._tmpl_abs: dict = {}
            self._tap_groups: dict | None = None
            self._tables = _get_tables()  # harvested once; rides the pickle

    @property
    def levels(self) -> list[Level]:
        """The flat level schedule: kept on a flat plan, derived from
        ``node_level`` on each read of a coarse one."""
        return self._levels or _level_schedule(self.edge_src, self.edge_dst, self.node_level)

    @property
    def deltas(self) -> DeltaRows:
        """Each edge's :class:`~repro.core.graph.DeltaSpec`, read from
        the plan's delta and uid columns (a uid only on sampled edges)."""
        return DeltaRows(
            self.edge_kind,
            self.delta_rank,
            self.delta_src,
            self.delta_dst,
            self.edge_nbytes,
            self.delta_rounds,
            self.uid_mat.view(np.int64),
            self.uid_len,
        )

    # -- pickling (ship arrays, not caches) -------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_samplers"] = []
        state["_coarse_binds"] = []
        state["_tmpl_abs"] = {}
        state["_tap_groups"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        _adopt_tables(state.get("_tables"))  # workers skip re-harvesting

    # -- sampling ---------------------------------------------------------------
    def bind(self, signature: MachineSignature) -> _BoundSampler:
        """Sampler for one signature (memoized; signatures are compared
        by identity first, then equality)."""
        for sig, sampler in self._samplers:
            if sig is signature or sig == signature:
                return sampler
        sampler = _BoundSampler(self, signature)
        self._samplers.append((signature, sampler))
        if len(self._samplers) > 8:
            self._samplers.pop(0)
        return sampler

    def _coarse_ready(self, signature: MachineSignature) -> bool:
        """Whether the coarse sampling path may serve this signature.

        Interval-scaled OS draws (``os_quantum > 0``) make draw programs
        weight-dependent, which breaks template program sharing — those
        signatures are sampled flat (still exact, just slower).
        """
        return self.coarse is not None and signature.os_quantum <= 0.0

    def _coarse_bind(self, signature: MachineSignature):
        """``(static_sampler, template_sampler)`` for one signature, or
        None when it must be sampled flat."""
        if not self._coarse_ready(signature):
            return None
        for sig, pair in self._coarse_binds:
            if sig is signature or sig == signature:
                return pair
        ir = self.coarse
        tmpl = _TemplateSampler(self, signature, ir)
        pair = None
        if tmpl.ok:
            static = _BoundSampler(self, signature, edge_ids=ir.static_eids)
            pair = (static, tmpl)
        self._coarse_binds.append((signature, pair))
        if len(self._coarse_binds) > 4:
            self._coarse_binds.pop(0)
        return pair

    def _spans(self, R: int):
        """Templated instance ranges ``(j0, j1)`` whose deltas for ``R``
        rows fit the scratch budget, in order."""
        ir = self.coarse
        step = max(1, int(SCRATCH_CELLS // max(1, R * ir.n_te * 3)))
        for j0 in range(0, ir.m_run, step):
            yield j0, min(ir.m_run, j0 + step)

    def sample_raw_batch(
        self, signature: MachineSignature, seeds: list[int], scale: float = 1.0
    ) -> np.ndarray:
        """(R, n_edges) sampled deltas (already scaled), bit-identical to
        per-replicate ``PerturbationSpec.sample`` over every edge."""
        seeds = list(seeds)
        with obs.span("compiled.sample", replicates=len(seeds)):
            pair = self._coarse_bind(signature)
            if pair is None:
                return self.bind(signature).sample_raw(seeds, scale)
            # Region by region, as the walk draws them: the coarse
            # samplers give each column the flat sampler's value.
            ir = self.coarse
            raw = np.zeros((len(seeds), self.n_edges), dtype=np.float64)
            raw[:, ir.static_eids] = _draw(pair, seeds, scale, None)
            for span in self._spans(len(seeds)):
                raw[:, ir.run_edge_ids[span[0] : span[1]].reshape(-1)] = _draw(
                    pair, seeds, scale, span
                )
            return raw

    def _take(self, signature: MachineSignature, seeds: list[int], scale: float) -> Take:
        """The walk's raw deltas for sampled replicate rows: the coarse
        samplers draw one region at a time; otherwise every edge is
        drawn up front."""
        pair = self._coarse_bind(signature)
        if pair is None:
            raw = self.sample_raw_batch(signature, seeds, scale)
            return lambda cols, span: raw[:, cols]

        def take(cols, span):
            with obs.span("compiled.sample", replicates=len(seeds)):
                return _draw(pair, seeds, scale, span)

        return take

    # -- the walk ---------------------------------------------------------------
    def _tmpl_levels_abs(self, phi: int) -> list[Level]:
        """Template levels materialized for ring frame ``phi``: absolute
        scratch positions for destinations and (lagged or static)
        sources.  Cached per frame — there are only ``L`` variants."""
        got = self._tmpl_abs.get(phi)
        if got is None:
            ir = self.coarse
            got = []
            for lv in ir.tmpl_levels:
                lagged = lv.src_lag >= 0
                slot = (phi - lv.src_lag) % ir.L
                src = np.where(
                    lagged, ir.ring_base + slot * ir.n_t + lv.src_ref, lv.src_ref
                )
                dst = ir.ring_base + phi * ir.n_t + lv.dst
                got.append(Level(dst, src, lv.ecol, lv.segs, lv.single))
            self._tmpl_abs[phi] = got
        return got

    def _instance_taps(self) -> dict:
        """Per-instance tap copies ``{instance: (slots, frame_offsets)}``."""
        if self._tap_groups is None:
            ir = self.coarse
            groups: dict[int, tuple[list, list]] = {}
            for j, (inst, off) in enumerate(
                zip(ir.tap_inst.tolist(), ir.tap_off.tolist())
            ):
                slots, offs = groups.setdefault(int(inst), ([], []))
                slots.append(ir.tap_base + j)
                offs.append(int(off))
            self._tap_groups = {
                i: (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                for i, (a, b) in groups.items()
            }
        return self._tap_groups

    def walk(self, R: int, take: Take, mode: str | None, *, detail: bool = False) -> Walk:
        """The max-plus pass over the plan for ``R`` replicate rows.

        ``take(cols, span)`` gives the rows' raw deltas of edges ``cols``
        (a slice or an id array); ``span`` is the ``(j0, j1)`` range of
        templated instances those edges belong to, or None.  ``mode`` is
        checked here and applied per region; ``None`` takes the deltas
        as given, unclamped (the critical path's costs).  A plan with a
        :class:`~repro.core.coarsen.CoarseIR` takes the coarse walk —
        static pre levels, the template once per instance over the ring
        of frames, static post levels — and the flat level schedule
        otherwise.  Both yield the same floats: each node's value is the
        max over the identical contrib operand pairs, and float max is
        order-exact.  With ``detail`` the result also carries the node
        delays and, unless ``mode`` is None (the effective deltas are
        then the caller's own costs), the effective edge deltas.
        """
        if mode is not None and mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        ir = self.coarse
        keep_eff = detail and mode is not None
        if ir is None:
            eff, clamped = _apply_mode(take(slice(None), None), self.edge_weight, mode)
            D = np.zeros((R, self.n_nodes), dtype=np.float64)
            for lv in self.levels:
                level_step(D, eff, lv)
            delays = _gather(D, self.final_node)
            return Walk(delays, clamped, D if detail else None, eff if keep_eff else None)
        D = np.zeros((R, self.n_nodes), dtype=np.float64) if detail else None
        E = np.zeros((R, self.n_edges), dtype=np.float64) if keep_eff else None

        def eff_of(cols, span):
            eff, clamped = _apply_mode(take(cols, span), self.edge_weight[cols], mode)
            if E is not None:
                E[:, cols] = eff
            return eff, clamped

        S = np.zeros((R, ir.W), dtype=np.float64)
        eff_s, clamped = eff_of(ir.static_eids, None)
        for lv in ir.pre_levels:
            level_step(S, eff_s, lv)
        n_t, n_te, L, ring = ir.n_t, ir.n_te, ir.L, ir.ring_base
        for j in range(ir.fold):
            frame = ring + (j % L) * n_t
            S[:, frame : frame + n_t] = S[:, ir.fold_src_pos[j]]
        taps = self._instance_taps()
        zero = ir.zero_offs
        for j0, j1 in self._spans(R):
            eff_c, nclamp = eff_of(ir.run_edge_ids[j0:j1].reshape(-1), (j0, j1))
            clamped += nclamp
            for j in range(j0, j1):
                i = ir.fold + j
                frame = ring + (i % L) * n_t
                if len(zero):
                    S[:, frame + zero] = 0.0
                eff_i = eff_c[:, (j - j0) * n_te : (j - j0 + 1) * n_te]
                for lv in self._tmpl_levels_abs(i % L):
                    level_step(S, eff_i, lv)
                tp = taps.get(i)
                if tp is not None:
                    S[:, tp[0]] = S[:, frame + tp[1]]
                if D is not None:
                    D[:, ir.run_node_ids[i]] = S[:, frame : frame + n_t]
        for lv in ir.post_levels:
            level_step(S, eff_s, lv)
        if D is not None:
            D[:, ir.pre_node_ids] = S[:, : ir.n_pre]
            D[:, ir.post_node_ids] = S[:, ir.post_base : ir.post_base + ir.n_post]
        return Walk(_gather(S, ir.final_pos), clamped, D, E)

    # -- high-level entry points --------------------------------------------------
    def _propagate(self, R: int, take: Take, mode: str, detail: bool = False) -> Walk:
        """:meth:`walk` under the ``compiled.propagate`` span, counted
        in ``traversal.propagations`` / ``traversal.clamped_edges``."""
        if mode not in MODES:  # ``None`` is for the walk's own callers
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        coarse = self.coarse is not None
        with obs.span("compiled.propagate", replicates=R, mode=mode, coarse=coarse):
            out = self.walk(R, take, mode, detail=detail)
            obs.span_add("traversal.propagations", R)
            if out.clamped.any():
                obs.span_add("traversal.clamped_edges", int(out.clamped.sum()))
        return out

    def propagate_batch(
        self,
        spec: PerturbationSpec,
        seeds: list[int] | None = None,
        mode: str = "additive",
    ) -> CompiledBatch:
        """Batched equivalent of ``propagate`` over per-replicate seeds.

        Row r uses ``PerturbationSpec(spec.signature, seed=seeds[r],
        scale=spec.scale)`` — the exact Monte-Carlo replicate schedule.
        ``seeds`` defaults to ``[spec.seed]``.
        """
        seeds = [spec.seed] if seeds is None else list(seeds)
        R = len(seeds)
        # Scratch per row: region-drawn rows need template-sized blocks,
        # rows drawn up front every node and edge.
        if self._coarse_bind(spec.signature) is not None:
            per_row = self.coarse.W + 4 * self.coarse.n_te
        else:
            per_row = self.n_nodes + 3 * self.n_edges
        step = max(1, min(R, SCRATCH_CELLS // max(1, per_row)))
        delays = np.empty((R, self.nprocs), dtype=np.float64)
        clamped = np.empty(R, dtype=np.int64)
        for lo in range(0, R, step):
            chunk = seeds[lo : lo + step]
            out = self._propagate(len(chunk), self._take(spec.signature, chunk, spec.scale), mode)
            delays[lo : lo + step] = out.delays
            clamped[lo : lo + step] = out.clamped
        return CompiledBatch(delays=delays, clamped=clamped, mode=mode)

    def propagate_presampled_batch(
        self, raw_base: np.ndarray, scales: list[float], mode: str = "additive"
    ) -> CompiledBatch:
        """Propagate one pre-sampled raw row at many scales (sweep fast
        path): row i of the result uses ``raw_base * scales[i]``."""
        if np.shape(raw_base) != (self.n_edges,):
            raise ValueError(
                f"raw_base has shape {np.shape(raw_base)}, expected length {self.n_edges}"
            )
        col = np.asarray(scales, dtype=np.float64)[:, None]
        out = self._propagate(len(col), lambda cols, span: raw_base[cols][None, :] * col, mode)
        return CompiledBatch(delays=out.delays, clamped=out.clamped, mode=mode)

    def propagate_one(self, spec: PerturbationSpec, mode: str = "additive") -> TraversalResult:
        """One spec/seed propagated with the in-core extras (node delays,
        edge deltas) populated: what :func:`propagate` returns."""
        # Drawn before the walk allocates its node and edge rows, so the
        # sampler's scratch and those rows are never resident together.
        raw = self.sample_raw_batch(spec.signature, [spec.seed], spec.scale)
        out = self._propagate(1, lambda cols, span: raw[:, cols], mode, detail=True)
        delays = out.delays[0]
        times = np.where(self.final_node >= 0, self.final_t_local + delays, 0.0)
        return TraversalResult(
            final_delay=delays.tolist(),
            final_local_times=times.tolist(),
            mode=mode,
            clamped_edges=int(out.clamped[0]),
            node_delay=out.node_delay[0].tolist(),
            edge_delta=out.edge_delta[0].tolist(),
        )


def compiled_plan(build: BuildResult, coarsen: str = "auto") -> CompiledPlan:
    """The (cached) compiled plan for a build — compile once, reuse.

    Every production caller takes ``coarsen="auto"`` (coarsen builds of
    at least ``AUTO_MIN_NODES`` nodes); ``"on"``/``"off"`` force the
    coarse or flat plan so tests can compare the two.  Plans are
    memoized on the build per ``coarsen`` policy and never written to
    disk: compiling costs about what reading a stored plan would.

    Concurrent callers sharing one ``build`` (daemon requests that
    coalesced on the same trace) are serialized on a per-build lock, so
    exactly one thread compiles and the rest reuse its plan — the
    memoized dict alone would let two threads race past the ``get`` and
    both pay the compile.
    """
    if coarsen not in COARSEN_CHOICES:
        raise ValueError(f"coarsen must be one of {COARSEN_CHOICES}, got {coarsen!r}")
    import threading

    # dict.setdefault is atomic under the GIL, so all racers agree on
    # one lock object (and one plans dict) for this build.
    lock = build.__dict__.setdefault("_compiled_plans_lock", threading.Lock())
    plans = build.__dict__.setdefault("_compiled_plans", {})
    with lock:
        plan = plans.get(coarsen)
        if plan is None:
            plan = plans[coarsen] = CompiledPlan(build, coarsen=coarsen)
        return plan


def propagate(
    build: BuildResult, spec: PerturbationSpec, mode: str = "additive"
) -> TraversalResult:
    """Propagate sampled perturbations over a built graph (in-core).

    The build's memoized :func:`compiled_plan` walked once for ``spec``
    (:meth:`CompiledPlan.propagate_one`): per-rank final delays plus
    every node's delay and every edge's effective delta, for the
    critical-path and absorption analyses.
    """
    with obs.span("propagate", mode=mode):
        return compiled_plan(build).propagate_one(spec, mode)
