"""Compiled graph plan: lowered topology + replicate-batched propagation.

The perturbation engine is the hot path of every experiment:
``monte_carlo``, sweeps, and ``rank_influence`` all call
:func:`~repro.core.traversal.propagate` once per replicate, re-walking
the Python object graph and re-hashing every edge uid through scalar
``_splitmix64`` — an R-replicate analysis does R interpreter-bound
traversals of *identical* topology.  A :class:`CompiledPlan` lowers a
:class:`~repro.core.builder.BuildResult` once into structure-of-arrays
form and then processes **all replicates simultaneously**:

* a level-ordered node table with CSR in-edge arrays (predecessor
  index, weight, delta-kind code, uid columns for hashing, message
  sizes for δ_t(d));
* the vectorized sampler of :mod:`repro.core.sampler`, which
  reproduces :meth:`PerturbationSpec.sample` draws **bit-for-bit** for
  every (replicate, edge) lane, falling back to the scalar spec lane
  by lane wherever it has no verified fast path;
* a propagation kernel carrying a ``(R, n_nodes)`` delay matrix
  through one topological pass (per-node max over in-edges vectorized
  across the replicate axis, both ``additive`` and ``threshold``
  modes).

Results are unconditionally identical to :func:`propagate` for *any*
signature.

Observability: the compiled path emits ``compiled.compile``,
``compiled.sample`` and ``compiled.propagate`` spans plus
``traversal.propagations`` / ``traversal.clamped_edges`` counters, so
``--profile`` output stays comparable with the reference engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.core.coarsen import AUTO_MIN_NODES, COARSEN_CHOICES, detect_phases
from repro.core.graph import DeltaKind, EdgeKind
from repro.core.perturb import PerturbationSpec
from repro.core.sampler import _adopt_tables, _BoundSampler, _get_tables, _TemplateSampler
from repro.core.traversal import MODES, TraversalResult
from repro.noise.signature import MachineSignature

__all__ = ["CompiledBatch", "CompiledPlan", "compiled_plan"]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF

# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class _Level:
    """One rank of the level schedule: nodes whose in-edges all come from
    earlier levels, so the whole rank is a single vectorized gather+max.

    ``segs`` are the offsets of each node's first in-edge within the
    level."""

    __slots__ = ("nodes", "src", "eid", "segs", "single")

    def __init__(self, nodes, src, eid, segs, single):
        self.nodes = nodes
        self.src = src
        self.eid = eid
        self.segs = segs
        self.single = single

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for s, v in state.items():
            setattr(self, s, v)


def _level_schedule(graph, level: np.ndarray) -> list[_Level]:
    """The level schedule of ``graph`` given each node's level.

    Levels 1.. in order; within a level, nodes by id and each node's
    in-edges in insertion (CSR) order.  Every ``_Level`` array is a
    slice of one flat array sorted that way.
    """
    ptr, in_ids = graph.in_csr()
    nodes = np.nonzero(level > 0)[0]
    nodes = nodes[np.argsort(level[nodes], kind="stable")]
    sizes = ptr[nodes + 1] - ptr[nodes]
    first = np.cumsum(sizes) - sizes  # each node's first slot in the flat edge axis
    eid = in_ids[np.repeat(ptr[nodes] - first, sizes) + np.arange(int(sizes.sum()))]
    src = graph.edge_src[eid]
    # Levels are contiguous from 1: every node above level 1 has a
    # predecessor one level down.
    n_levels = int(level.max(initial=0))
    node_at = np.searchsorted(level[nodes], np.arange(1, n_levels + 2)).tolist()
    edge_at = np.append(first, len(eid))[node_at]
    segs = first - np.repeat(edge_at[:-1], np.diff(node_at))
    edge_at = edge_at.tolist()
    return [
        _Level(
            nodes[a:b],
            src[ea:eb],
            eid[ea:eb],
            segs[a:b],
            eb - ea == b - a,
        )
        for a, b, ea, eb in zip(node_at, node_at[1:], edge_at, edge_at[1:])
    ]


def _uid_columns(uids: list, sampled_ids: np.ndarray, delta_kind: np.ndarray, n_edges: int):
    """``(uid_mat, uid_len, uid_kind)``: the sampled edges' uids as
    uint64 columns, masked exactly like ``perturb._mix`` masks them."""
    lens = np.fromiter(map(len, uids), dtype=np.int64, count=len(uids))
    flat = list(itertools.chain.from_iterable(uids))
    try:
        vals = np.array(flat)
    except OverflowError:
        vals = None
    if vals is None or vals.dtype != np.int64:  # huge, odd or no values
        vals = np.array([v & _MASK64 for v in flat], dtype=_U64)
    uid_mat = np.zeros((n_edges, int(lens.max(initial=0))), dtype=_U64)
    rows = np.repeat(sampled_ids, lens)
    cols = np.arange(len(flat)) - np.repeat(np.cumsum(lens) - lens, lens)
    uid_mat[rows, cols] = vals.view(_U64)
    uid_len = np.zeros(n_edges, dtype=np.int64)
    uid_len[sampled_ids] = lens
    uid_kind = np.zeros(n_edges, dtype=_U64)
    uid_kind[sampled_ids] = delta_kind[sampled_ids]
    return uid_mat, uid_len, uid_kind


def _apply_mode_w(raw: np.ndarray, w: np.ndarray, mode: str):
    """δ_eff + additive clamp counts for explicit per-column weights.

    Exactly the operations of :meth:`CompiledPlan.apply_mode` (which
    delegates here with the full weight row) — the coarse engine calls
    it with gathered static / per-instance weight slices so both paths
    compute bit-identical effective deltas.
    """
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
            self.deltas = list(g.edge_delta)
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
                [self.deltas[i].uid for i in self.sampled_ids.tolist()],
                self.sampled_ids,
                self.edge_kind,
                self.n_edges,
            )
            topo, level = g.topological_levels()
            self.levels = _level_schedule(g, np.array(level, dtype=np.int64))

            # Final (FINALIZE END) node per rank, rank-chain fallback as in
            # traversal._finals_from_graph; -1 = rank has no nodes at all.
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

            obs.span_add("compiled.plans")
            self._samplers: list[tuple[MachineSignature, _BoundSampler]] = []
            self._coarse_binds: list = []
            self._tmpl_abs: dict = {}
            self._tap_groups: dict | None = None
            self._tables = _get_tables()  # harvested once; rides the pickle

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
        signatures take the flat engine (still exact, just slower).
        """
        return self.coarse is not None and signature.os_quantum <= 0.0

    def _coarse_bind(self, signature: MachineSignature):
        """``(static_sampler, template_sampler)`` for one signature, or
        None when the template cannot be sampled coarsely (flat path)."""
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

    def sample_raw_batch(
        self, signature: MachineSignature, seeds: list[int], scale: float = 1.0
    ) -> np.ndarray:
        """(R, n_edges) sampled deltas (already scaled), bit-identical to
        per-replicate ``PerturbationSpec.sample`` over every edge."""
        with obs.span("compiled.sample", replicates=len(seeds)):
            if self._coarse_ready(signature):
                pair = self._coarse_bind(signature)
                if pair is not None:
                    return self._coarse_sample_full(pair, list(seeds), scale)
            return self.bind(signature).sample_raw(list(seeds), scale)

    def _coarse_sample_full(self, pair, seeds: list[int], scale: float) -> np.ndarray:
        """Assemble the full (R, n_edges) raw matrix through the coarse
        samplers — avoids the per-edge flat bind on huge graphs while
        producing identical values column by column."""
        ir = self.coarse
        static_s, tmpl_s = pair
        R = len(seeds)
        raw = np.zeros((R, self.n_edges), dtype=np.float64)
        if len(ir.static_eids):
            raw[:, ir.static_eids] = static_s.sample_raw(seeds, scale)
        step = max(1, int(12_000_000 // max(1, R * ir.n_te * 3)))
        for j0 in range(0, ir.m_run, step):
            j1 = min(ir.m_run, j0 + step)
            raw[:, ir.run_edge_ids[j0:j1].reshape(-1)] = tmpl_s.sample(
                seeds, scale, j0, j1
            )
        return raw

    # -- mode + kernel ----------------------------------------------------------
    def apply_mode(self, raw: np.ndarray, mode: str):
        """δ_eff per edge (same clamp semantics as ``_DeltaApplier``).

        Returns ``(eff, clamped)``; ``clamped`` counts additive-mode
        zero-floor clamps per replicate."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return _apply_mode_w(raw, self.edge_weight, mode)

    def kernel(self, eff: np.ndarray) -> np.ndarray:
        """One topological pass for all replicates: (R, n_nodes) delays."""
        D = np.zeros((eff.shape[0], self.n_nodes), dtype=np.float64)
        for lv in self.levels:
            contrib = D[:, lv.src] + eff[:, lv.eid]
            if lv.single:
                D[:, lv.nodes] = contrib
            else:
                D[:, lv.nodes] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        return D

    def finals(self, D: np.ndarray) -> np.ndarray:
        """(R, nprocs) per-rank final delays from a node-delay matrix."""
        out = np.zeros((D.shape[0], self.nprocs), dtype=np.float64)
        have = self.final_node >= 0
        out[:, have] = D[:, self.final_node[have]]
        return out

    # -- coarse (two-level) execution ---------------------------------------------
    def _tmpl_levels_abs(self, phi: int):
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
                got.append((dst, src, lv.ecol, lv.segs, lv.single))
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

    def _coarse_run(self, R: int, eff_static: np.ndarray, tmpl_eff, D_full=None):
        """Walk the two-level plan for ``R`` replicate rows.

        ``eff_static`` is the (R, n_static) effective-delta block in
        ``static_eids`` order; ``tmpl_eff(j0, j1)`` returns the
        ``(eff, clamped)`` block for templated instances ``[j0, j1)``.
        Returns ``(final delays (R, nprocs), template clamp counts)``.
        Any execution order yields the flat engine's exact floats: each
        node's value is the max over the identical contrib operand
        pairs, and float max is order-exact.
        """
        ir = self.coarse
        S = np.zeros((R, ir.W), dtype=np.float64)
        for lv in ir.pre_levels:
            contrib = S[:, lv.src] + eff_static[:, lv.ecol]
            if lv.single:
                S[:, lv.dst] = contrib
            else:
                S[:, lv.dst] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        n_t, L, ring = ir.n_t, ir.L, ir.ring_base
        for j in range(ir.fold):
            frame = ring + (j % L) * n_t
            S[:, frame : frame + n_t] = S[:, ir.fold_src_pos[j]]
        if D_full is not None and ir.n_pre:
            D_full[:, ir.pre_node_ids] = S[:, : ir.n_pre]
        taps = self._instance_taps()
        clamp = np.zeros(R, dtype=np.int64)
        zero = ir.zero_offs
        step = max(1, int(12_000_000 // max(1, R * ir.n_te * 3)))
        for j0 in range(0, ir.m_run, step):
            j1 = min(ir.m_run, j0 + step)
            eff_c, nclamp_c = tmpl_eff(j0, j1)
            clamp += nclamp_c
            for j in range(j0, j1):
                i = ir.fold + j
                phi = i % L
                frame = ring + phi * n_t
                if len(zero):
                    S[:, frame + zero] = 0.0
                off = (j - j0) * ir.n_te
                for dst, src, ecol, segs, single in self._tmpl_levels_abs(phi):
                    contrib = S[:, src] + eff_c[:, off + ecol]
                    if single:
                        S[:, dst] = contrib
                    else:
                        S[:, dst] = np.maximum.reduceat(contrib, segs, axis=1)
                tp = taps.get(i)
                if tp is not None:
                    S[:, tp[0]] = S[:, frame + tp[1]]
                if D_full is not None:
                    D_full[:, ir.run_node_ids[i]] = S[:, frame : frame + n_t]
        for lv in ir.post_levels:
            contrib = S[:, lv.src] + eff_static[:, lv.ecol]
            if lv.single:
                S[:, lv.dst] = contrib
            else:
                S[:, lv.dst] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        if D_full is not None and ir.n_post:
            D_full[:, ir.post_node_ids] = S[:, ir.post_base : ir.post_base + ir.n_post]
        delays = np.zeros((R, self.nprocs), dtype=np.float64)
        have = ir.final_pos >= 0
        if have.any():
            delays[:, have] = S[:, ir.final_pos[have]]
        return delays, clamp

    def _coarse_batch(self, spec: PerturbationSpec, seeds: list[int], mode: str):
        """Coarse-path ``propagate_batch`` (None → caller goes flat)."""
        pair = self._coarse_bind(spec.signature)
        if pair is None:
            return None
        static_s, tmpl_s = pair
        ir = self.coarse
        R = len(seeds)
        delays = np.empty((R, self.nprocs), dtype=np.float64)
        clamped = np.empty(R, dtype=np.int64)
        w_static = self.edge_weight[ir.static_eids]
        step = max(1, min(R, 12_000_000 // max(1, ir.W + 4 * ir.n_te)))
        for lo in range(0, R, step):
            chunk = seeds[lo : lo + step]
            Rc = len(chunk)
            with obs.span("compiled.sample", replicates=Rc):
                raw_s = static_s.sample_raw(chunk, spec.scale)
            eff_s, nclamp = _apply_mode_w(raw_s, w_static, mode)

            def tmpl_eff(j0, j1, _chunk=chunk):
                with obs.span("compiled.sample", replicates=Rc):
                    raw_t = tmpl_s.sample(_chunk, spec.scale, j0, j1)
                w = self.edge_weight[ir.run_edge_ids[j0:j1]].reshape(-1)
                return _apply_mode_w(raw_t, w, mode)

            with obs.span("compiled.propagate", replicates=Rc, mode=mode, coarse=True):
                d, cl = self._coarse_run(Rc, eff_s, tmpl_eff)
                nclamp = nclamp + cl
                obs.span_add("traversal.propagations", Rc)
                if nclamp.any():
                    obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
            delays[lo : lo + step] = d
            clamped[lo : lo + step] = nclamp
        return CompiledBatch(delays=delays, clamped=clamped, mode=mode)

    def _coarse_presampled(
        self, raw_base: np.ndarray, scales: list[float], mode: str
    ) -> CompiledBatch:
        """Coarse-path ``propagate_presampled_batch``: effective deltas
        are gathered per region from the single pre-sampled row, so no
        (R, n_edges) scratch is ever allocated."""
        ir = self.coarse
        scales_arr = np.asarray(scales, dtype=np.float64)
        R = len(scales_arr)
        with obs.span("compiled.propagate", replicates=R, mode=mode, coarse=True):
            eff_s, nclamp = _apply_mode_w(
                raw_base[ir.static_eids][None, :] * scales_arr[:, None],
                self.edge_weight[ir.static_eids],
                mode,
            )

            def tmpl_eff(j0, j1):
                cols = ir.run_edge_ids[j0:j1].reshape(-1)
                return _apply_mode_w(
                    raw_base[cols][None, :] * scales_arr[:, None],
                    self.edge_weight[cols],
                    mode,
                )

            delays, cl = self._coarse_run(R, eff_s, tmpl_eff)
            nclamp = nclamp + cl
            obs.span_add("traversal.propagations", R)
            if nclamp.any():
                obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
        return CompiledBatch(delays=delays, clamped=nclamp, mode=mode)

    # -- high-level entry points --------------------------------------------------
    def _batch_size(self, replicates: int) -> int:
        """Bound (R, n_nodes)+(R, n_edges) scratch to ~100 MB per batch."""
        per_rep = max(1, self.n_nodes + 3 * self.n_edges)
        return max(1, min(replicates, 12_000_000 // per_rep))

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
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        seeds = [spec.seed] if seeds is None else list(seeds)
        if self._coarse_ready(spec.signature):
            out = self._coarse_batch(spec, seeds, mode)
            if out is not None:
                return out
        R = len(seeds)
        delays = np.empty((R, self.nprocs), dtype=np.float64)
        clamped = np.empty(R, dtype=np.int64)
        step = self._batch_size(R)
        for lo in range(0, R, step):
            chunk = seeds[lo : lo + step]
            raw = self.sample_raw_batch(spec.signature, chunk, spec.scale)
            with obs.span("compiled.propagate", replicates=len(chunk), mode=mode):
                eff, nclamp = self.apply_mode(raw, mode)
                delays[lo : lo + step] = self.finals(self.kernel(eff))
                clamped[lo : lo + step] = nclamp
                obs.span_add("traversal.propagations", len(chunk))
                if nclamp.any():
                    obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
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
        if self.coarse is not None:
            return self._coarse_presampled(raw_base, scales, mode)
        raw = raw_base[None, :] * np.asarray(scales, dtype=np.float64)[:, None]
        with obs.span("compiled.propagate", replicates=len(scales), mode=mode):
            eff, nclamp = self.apply_mode(raw, mode)
            delays = self.finals(self.kernel(eff))
            obs.span_add("traversal.propagations", len(scales))
            if nclamp.any():
                obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
        return CompiledBatch(delays=delays, clamped=nclamp, mode=mode)

    def propagate_one(self, spec: PerturbationSpec, mode: str = "additive") -> TraversalResult:
        """Drop-in ``propagate`` replacement (single spec/seed) with the
        in-core extras (node delays, edge deltas) populated."""
        raw = self.sample_raw_batch(spec.signature, [spec.seed], spec.scale)
        with obs.span("compiled.propagate", replicates=1, mode=mode):
            eff, nclamp = self.apply_mode(raw, mode)
            if self.coarse is not None:
                ir = self.coarse
                D = np.zeros((1, self.n_nodes), dtype=np.float64)
                self._coarse_run(
                    1,
                    eff[:, ir.static_eids],
                    lambda j0, j1: (
                        eff[:, ir.run_edge_ids[j0:j1].reshape(-1)],
                        np.zeros(1, dtype=np.int64),
                    ),
                    D_full=D,
                )
            else:
                D = self.kernel(eff)
            delays = self.finals(D)[0]
            have = self.final_node >= 0
            times = np.where(have, self.final_t_local + delays, 0.0)
            obs.span_add("traversal.propagations")
            if nclamp[0]:
                obs.span_add("traversal.clamped_edges", int(nclamp[0]))
        return TraversalResult(
            final_delay=delays.tolist(),
            final_local_times=times.tolist(),
            mode=mode,
            clamped_edges=int(nclamp[0]),
            node_delay=D[0].tolist(),
            edge_delta=eff[0].tolist(),
        )


def compiled_plan(
    build: BuildResult, coarsen: str = "auto", checkpoint=None
) -> CompiledPlan:
    """The (cached) compiled plan for a build — compile once, reuse.

    Every production caller takes ``coarsen="auto"`` (coarsen builds of
    at least ``AUTO_MIN_NODES`` nodes); ``"on"``/``"off"`` force the
    coarse or flat plan so tests can compare the two.  Plans are
    memoized on the build per ``coarsen`` policy.  When a
    ``CheckpointStore`` is passed, compiled plans are additionally
    persisted on disk keyed by the build digest, so repeated CLI runs
    and pool workers skip recompilation entirely.

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
            if checkpoint is not None:
                from repro.core.checkpoint import load_plan

                plan = load_plan(checkpoint, build, coarsen)
            if plan is None:
                plan = CompiledPlan(build, coarsen=coarsen)
                if checkpoint is not None:
                    from repro.core.checkpoint import save_plan

                    save_plan(checkpoint, build, coarsen, plan)
            plans[coarsen] = plan
        return plan
