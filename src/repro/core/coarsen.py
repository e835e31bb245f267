"""Phase coarsening: a hierarchical two-level IR over the event graph.

Iterative applications repeat one communication phase thousands of
times, so the flat :class:`~repro.core.compiled.CompiledPlan` pays
O(events) numpy-call overhead per replicate even though only a few
dozen *distinct* node/edge shapes exist.  :func:`detect_phases` finds
the repeated phase — a maximal periodic run in every rank's subevent
chain whose repetitions are congruent subgraphs (identical topology,
edge kinds and delta specs, differing only in iteration index) — and
lowers it into a :class:`CoarseIR`:

* an **outer coarse schedule**: static *pre* levels (everything before
  the run, plus the first ``fold`` repetitions that see boundary
  structure), the supernode run itself, then static *post* levels;
* one **shared inner template** describing a single repetition: a
  symbolic level schedule whose sources are either template offsets at
  a fixed iteration lag, or absolute positions in the pre region.

Execution (:meth:`~repro.core.compiled.CompiledPlan.walk`) runs the
template once per instance over a ring buffer of ``maxlag + 1``
instance frames, so all scratch is template-sized and the per-level
numpy operations amortize over the full replicate batch — cost scales
with *distinct structure*, not event count.  Per-edge delta sampling
still visits every edge (uids differ per repetition — that is what
makes replicates exact), but it is gathered per instance chunk through
the same shared draw programs.

Everything here is *conservative*: each structural assumption is
verified vectorially against the actual arrays, and any mismatch
returns ``None`` — the caller falls back to the flat engine, which is
always correct.  A successful detection is therefore bit-identical to
flat propagation by construction: per-edge effective deltas are
computed by the same code over the same operands, and the node max
over an identical operand multiset is exact in IEEE float regardless
of schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import Phase

__all__ = [
    "AUTO_MIN_NODES",
    "COARSEN_CHOICES",
    "CoarseIR",
    "Level",
    "MAX_LAG",
    "MIN_REPEATS",
    "detect_phases",
]

COARSEN_CHOICES = ("auto", "on", "off")

#: Minimum repetitions of a phase before coarsening pays for itself.
MIN_REPEATS = 4
#: Maximum iteration lag a template edge may span (ring-buffer depth).
MAX_LAG = 4
#: Longest per-rank chain period considered by the periodicity scan.
MAX_PERIOD = 64
#: ``coarsen="auto"`` (every production path): only graphs at least
#: this large attempt detection.
AUTO_MIN_NODES = 50_000

_PENDING = -2  # virtual node not yet assigned to an instance
_STATIC = -1


@dataclass(slots=True)
class Level:
    """One level of a schedule: every destination's in-edges come from
    earlier levels, so the whole level is one vectorized gather + max.

    ``dst`` are the destinations' slots and ``src``/``ecol`` each
    in-edge's source slot and effective-delta column, grouped by
    destination; ``segs`` are the offsets of each destination's first
    in-edge and ``single`` says every destination has exactly one.
    A flat plan's schedule (``CompiledPlan.levels``) indexes nodes and
    edges by id; a coarse plan keeps only its :class:`CoarseIR`, whose
    static pre/post levels index scratch positions and ``static_eids``.
    """

    dst: np.ndarray
    src: np.ndarray
    ecol: np.ndarray
    segs: np.ndarray
    single: bool


@dataclass(slots=True)
class _TLevel:
    """One symbolic template level.

    ``src_lag[j]`` is the iteration lag of in-edge j (0 = same
    instance), or -1 for a static source; ``src_ref[j]`` is the source
    template offset (lagged) or its absolute pre-region scratch
    position (static).  ``ecol`` indexes the per-instance template edge
    axis ``[0, n_te)``.
    """

    dst: np.ndarray
    src_lag: np.ndarray
    src_ref: np.ndarray
    ecol: np.ndarray
    segs: np.ndarray
    single: bool


class CoarseIR:
    """The two-level plan: coarse outer schedule + one inner template.

    Scratch layout (one float row per replicate, width ``W``)::

        [0, n_pre)                      pre-region node values
        [ring_base, ring_base + L*n_t)  ring of L instance frames
        [post_base, post_base + n_post) post-region node values
        [tap_base, tap_base + n_taps)   template values kept past the ring

    Instance ``i`` (0-based over all ``m`` repetitions) lives in ring
    frame ``i % L``.  The first ``fold`` instances are folded into the
    pre region (they see boundary structure) and their values are
    copied into their ring frames before the templated run starts, so
    instance ``fold`` onward can read sources at any lag ≤ ``fold``.
    """

    def __init__(self) -> None:
        # Shape of the run
        self.m = 0  # total repetitions (incl. folded)
        self.fold = 0  # leading repetitions folded into the pre region
        self.m_run = 0  # templated repetitions = m - fold
        self.n_t = 0  # nodes per instance
        self.n_te = 0  # in-edges per templated instance
        self.L = 0  # ring depth = fold + 1
        # Scratch layout
        self.n_pre = 0
        self.n_post = 0
        self.n_taps = 0
        self.ring_base = 0
        self.post_base = 0
        self.tap_base = 0
        self.W = 0
        # Node / edge id maps
        self.run_node_ids = np.empty((0, 0), dtype=np.int64)  # (m, n_t)
        self.run_edge_ids = np.empty((0, 0), dtype=np.int64)  # (m_run, n_te)
        self.static_eids = np.empty(0, dtype=np.int64)
        self.pre_node_ids = np.empty(0, dtype=np.int64)
        self.post_node_ids = np.empty(0, dtype=np.int64)
        # Schedules
        self.pre_levels: list[Level] = []
        self.post_levels: list[Level] = []
        self.tmpl_levels: list[_TLevel] = []
        self.zero_offs = np.empty(0, dtype=np.int64)  # offsets never written
        self.fold_src_pos = np.empty((0, 0), dtype=np.int64)  # (fold, n_t) pre positions
        # Taps: values copied out of ring frames for post levels / finals
        self.tap_inst = np.empty(0, dtype=np.int64)
        self.tap_off = np.empty(0, dtype=np.int64)
        self.final_pos = np.empty(0, dtype=np.int64)  # (nprocs,) scratch pos or -1


def _periodic_run(codes: np.ndarray, min_repeats: int) -> tuple[int, int, int] | None:
    """Maximal periodic run ``(start, period, repeats)`` containing the
    chain midpoint, or None.  Candidate periods are distances from the
    midpoint to nearby equal codes (the true period always recurs)."""
    n = len(codes)
    if n < 2 * min_repeats:
        return None
    mid = n // 2
    stop = min(n, mid + MAX_PERIOD + 1)
    cands = np.nonzero(codes[mid + 1 : stop] == codes[mid])[0] + 1
    for p in cands.tolist():
        if mid >= n - p:
            continue
        eq = codes[: n - p] == codes[p:]
        bad = np.flatnonzero(~eq)
        left = bad[bad < mid]
        right = bad[bad >= mid]
        a = int(left.max()) + 1 if len(left) else 0
        b = int(right.min()) + p if len(right) else n
        reps = (b - a) // p
        if reps >= min_repeats:
            return a, p, reps
    return None


def _all_rows_equal(mat: np.ndarray) -> bool:
    return bool(np.all(mat == mat[-1]))


def detect_phases(
    plan,
    graph,
    topo: list[int],
    *,
    min_repeats: int = MIN_REPEATS,
    max_lag: int = MAX_LAG,
) -> CoarseIR | None:
    """Detect one repeated phase in ``plan``'s graph and lower it.

    ``plan`` is a (fully column-populated) ``CompiledPlan``; ``topo``
    the graph's topological order, reused from plan compilation.
    Returns a verified :class:`CoarseIR`, or ``None`` when the graph
    has no coarsenable run (the caller then uses the flat schedule).
    """
    n_nodes, n_edges = plan.n_nodes, plan.n_edges
    if n_nodes == 0 or plan.nprocs == 0:
        return None
    node_rank = plan.node_rank
    node_phase, node_kind = plan.node_phase, plan.node_kind
    edge_src, edge_dst = plan.edge_src, plan.edge_dst

    # -- 1. per-rank subevent chains + periodicity scan ---------------------
    real = node_phase != int(Phase.VIRTUAL)
    starts, order = graph.rank_chains()
    if not len(order):
        return None
    indeg = np.bincount(edge_dst, minlength=n_nodes).astype(np.int64)
    code = (
        (node_kind.astype(np.int64) << 16)
        | (node_phase.astype(np.int64) << 8)
        | np.minimum(indeg, 255)
    )

    runs: list[tuple[np.ndarray, int, int, int]] = []
    for r in range(plan.nprocs):
        chain = order[starts[r] : starts[r + 1]]
        if not len(chain):
            return None
        found = _periodic_run(code[chain], min_repeats)
        if found is None:
            return None
        runs.append((chain, *found))
    m = min(reps for _, _, _, reps in runs)
    if m < min_repeats:
        return None

    # -- 2. instance / template-offset assignment for real nodes ------------
    pos_inst = np.full(n_nodes, _STATIC, dtype=np.int64)
    pos_inst[~real] = _PENDING
    pos_off = np.full(n_nodes, -1, dtype=np.int64)
    base = 0
    periods = []
    for chain, a, p, _ in runs:
        ids = chain[a : a + m * p]
        pos_inst[ids] = np.repeat(np.arange(m, dtype=np.int64), p)
        pos_off[ids] = np.tile(base + np.arange(p, dtype=np.int64), m)
        periods.append(p)
        base += p
    n_real_t = base

    # -- 3. propagate instances onto virtual nodes (fixpoint) ---------------
    virt_mask = ~real
    if virt_mask.any():
        touches = virt_mask[edge_src] | virt_mask[edge_dst]
        te = np.nonzero(touches)[0]
        v_ends = []
        o_ends = []
        sm = virt_mask[edge_src[te]]
        dm = virt_mask[edge_dst[te]]
        v_ends.append(edge_src[te[sm]])
        o_ends.append(edge_dst[te[sm]])
        v_ends.append(edge_dst[te[dm]])
        o_ends.append(edge_src[te[dm]])
        v_all = np.concatenate(v_ends)
        o_all = np.concatenate(o_ends)
        srt = np.argsort(v_all, kind="stable")
        v_all, o_all = v_all[srt], o_all[srt]
        v_uniq, seg_starts = np.unique(v_all, return_index=True)
        big = np.int64(1) << np.int64(60)
        for _ in range(64):
            pend = pos_inst[v_uniq] == _PENDING
            if not pend.any():
                break
            ni = pos_inst[o_all]
            known = ni != _PENDING
            lo = np.where(known, ni, big)
            hi = np.where(known, ni, -big)
            mn = np.minimum.reduceat(lo, seg_starts)
            mx = np.maximum.reduceat(hi, seg_starts)
            have = mn < big  # at least one decided neighbour
            agree = pend & have & (mn == mx) & (mn >= 0)
            disagree = pend & have & ~agree
            if not (agree.any() or disagree.any()):
                break
            pos_inst[v_uniq[agree]] = mn[agree]
            pos_inst[v_uniq[disagree]] = _STATIC
        pos_inst[pos_inst == _PENDING] = _STATIC

        # Per-instance virtual counts must match to form a template.
        virt_ids = np.nonzero(virt_mask & (pos_inst >= 0))[0]
        if len(virt_ids):
            vcnt = np.bincount(pos_inst[virt_ids], minlength=m)
            if not np.all(vcnt == vcnt[0]):
                return None
            n_virt_t = int(vcnt[0])
            vorder = virt_ids[np.lexsort((virt_ids, pos_inst[virt_ids]))]
            pos_off[vorder] = n_real_t + np.tile(
                np.arange(n_virt_t, dtype=np.int64), m
            )
        else:
            n_virt_t = 0
    else:
        n_virt_t = 0
    n_t = n_real_t + n_virt_t

    # -- 4. run node-id matrix + node congruence ---------------------------
    run_ids = np.nonzero(pos_inst >= 0)[0]
    if len(run_ids) != m * n_t:
        return None
    run_node_ids = np.full((m, n_t), -1, dtype=np.int64)
    run_node_ids[pos_inst[run_ids], pos_off[run_ids]] = run_ids
    if run_node_ids.min() < 0:
        return None
    for col in (node_kind, node_phase, node_rank):
        if not _all_rows_equal(col[run_node_ids]):
            return None

    # -- 5. edge partition + reference-row lags ----------------------------
    einst = pos_inst[edge_dst]
    sel = np.nonzero(einst >= 0)[0]
    if not len(sel):
        return None
    srt = sel[np.lexsort((sel, pos_off[edge_dst[sel]], einst[sel]))]
    cnt = np.bincount(einst[sel], minlength=m)
    n_te = int(cnt[m - 1])
    if n_te == 0:
        return None
    row_starts = np.concatenate(([0], np.cumsum(cnt)))
    ref = srt[row_starts[m - 1] :]
    ref_src = edge_src[ref]
    ref_si = pos_inst[ref_src]
    static_src = ref_si == _STATIC
    lag_ref = np.where(static_src, np.int64(-1), (m - 1) - ref_si)
    inst_cols = ~static_src
    if inst_cols.any():
        lags = lag_ref[inst_cols]
        if lags.min() < 0 or lags.max() > max_lag:
            return None
        fold = max(1, int(lags.max()))
    else:
        fold = 1
    m_run = m - fold
    if m_run < 2:
        return None
    if not np.all(cnt[fold:] == n_te):
        return None
    run_edge_ids = srt[row_starts[fold] :].reshape(m_run, n_te)

    # -- 6. edge congruence across templated rows --------------------------
    if not _all_rows_equal(pos_off[edge_dst[run_edge_ids]]):
        return None
    for col in (plan.edge_kind, plan.edge_is_local, plan.edge_nbytes):
        if not _all_rows_equal(col[run_edge_ids]):
            return None
    for col in (plan.delta_rank, plan.delta_src, plan.delta_dst, plan.delta_rounds):
        if not _all_rows_equal(col[run_edge_ids]):
            return None
    src_mat = edge_src[run_edge_ids]
    si_mat = pos_inst[src_mat]
    stat_mat = si_mat == _STATIC
    if not np.all(stat_mat == static_src[None, :]):
        return None
    if static_src.any() and not _all_rows_equal(src_mat[:, static_src]):
        return None
    if inst_cols.any():
        want = (fold + np.arange(m_run, dtype=np.int64))[:, None] - lag_ref[inst_cols]
        if not np.all(si_mat[:, inst_cols] == want):
            return None
        if not _all_rows_equal(pos_off[src_mat[:, inst_cols]]):
            return None

    # -- 7. static-node reachability: pre vs post --------------------------
    # after[v]: v (transitively) depends on a templated instance, so a
    # static v must run after the supernode.  Spread from the templated
    # nodes, it expands over the boundary-sized rest of the graph only.
    templated = pos_inst >= fold
    after = templated.copy()
    graph.spread(after)
    static_mask = pos_inst == _STATIC
    folded_mask = (pos_inst >= 0) & ~templated
    pre_mask = (static_mask & ~after) | folded_mask
    post_mask = static_mask & after

    topo_arr = np.asarray(topo, dtype=np.int64)
    pre_ids = topo_arr[pre_mask[topo_arr]]
    post_ids = topo_arr[post_mask[topo_arr]]
    n_pre, n_post = len(pre_ids), len(post_ids)

    ir = CoarseIR()
    ir.m, ir.fold, ir.m_run = m, fold, m_run
    ir.n_t, ir.n_te = n_t, n_te
    ir.L = fold + 1
    ir.n_pre, ir.n_post = n_pre, n_post
    ir.ring_base = n_pre
    ir.post_base = n_pre + ir.L * n_t
    ir.tap_base = ir.post_base + n_post
    ir.run_node_ids = run_node_ids
    ir.run_edge_ids = run_edge_ids
    ir.pre_node_ids = pre_ids
    ir.post_node_ids = post_ids

    pre_pos = np.full(n_nodes, -1, dtype=np.int64)
    pre_pos[pre_ids] = np.arange(n_pre, dtype=np.int64)
    post_pos = np.full(n_nodes, -1, dtype=np.int64)
    post_pos[post_ids] = np.arange(n_post, dtype=np.int64)

    static_eids: list[int] = []

    def build_static_levels(ids, dst_pos_of, src_pos_of):
        """Level schedule over a small static region (python-paced; the
        pre/post regions are boundary-sized, not O(events))."""
        lvl: dict[int, int] = {}
        by_level: dict[int, list[int]] = {}
        for v in ids.tolist():
            ins = graph.in_edge_ids(v)
            if not ins:
                lvl[v] = 0  # keeps its zero-initialized scratch value
                continue
            best = 0
            for ei in ins:
                s = int(edge_src[ei])
                best = max(best, lvl.get(s, 0))
            lvl[v] = best + 1
            by_level.setdefault(best + 1, []).append(v)
        levels = []
        for lk in sorted(by_level):
            dst: list[int] = []
            src: list[int] = []
            ecol: list[int] = []
            segs: list[int] = []
            for v in by_level[lk]:
                segs.append(len(ecol))
                dst.append(dst_pos_of(v))
                for ei in graph.in_edge_ids(v):
                    sp = src_pos_of(int(edge_src[ei]))
                    if sp is None:
                        return None
                    src.append(sp)
                    static_eids.append(ei)
                    ecol.append(len(static_eids) - 1)
            levels.append(
                Level(
                    np.array(dst, dtype=np.int64),
                    np.array(src, dtype=np.int64),
                    np.array(ecol, dtype=np.int64),
                    np.array(segs, dtype=np.int64),
                    len(ecol) == len(dst),
                )
            )
        return levels

    # -- 8. pre levels (sources must themselves be pre) --------------------
    def pre_src(s: int):
        p = int(pre_pos[s])
        return p if p >= 0 else None

    pre_levels = build_static_levels(pre_ids, lambda v: int(pre_pos[v]), pre_src)
    if pre_levels is None:
        return None
    ir.pre_levels = pre_levels

    # -- 9. the shared template (symbolic levels from the reference row) ---
    # Relative topological order of offsets within one instance.
    topo_pos = np.empty(n_nodes, dtype=np.int64)
    topo_pos[topo_arr] = np.arange(n_nodes, dtype=np.int64)
    ref_nodes = run_node_ids[m - 1]
    off_order = np.argsort(topo_pos[ref_nodes], kind="stable")
    ref_dst_off = pos_off[edge_dst[ref]]
    ref_src_off = pos_off[ref_src]
    # Group the reference row's in-edges by destination offset.
    by_off: dict[int, list[int]] = {}
    for j, o in enumerate(ref_dst_off.tolist()):
        by_off.setdefault(o, []).append(j)
    off_lvl = np.zeros(n_t, dtype=np.int64)
    by_level_t: dict[int, list[int]] = {}
    for o in off_order.tolist():
        ins = by_off.get(o)
        if not ins:
            continue
        best = 0
        for j in ins:
            if lag_ref[j] == 0:
                so = int(ref_src_off[j])
                best = max(best, int(off_lvl[so]))
        off_lvl[o] = best + 1
        by_level_t.setdefault(best + 1, []).append(o)
    tmpl_levels = []
    for lk in sorted(by_level_t):
        dst: list[int] = []
        s_lag: list[int] = []
        s_ref: list[int] = []
        ecol: list[int] = []
        segs: list[int] = []
        for o in by_level_t[lk]:
            segs.append(len(ecol))
            dst.append(o)
            for j in by_off[o]:
                if static_src[j]:
                    sp = int(pre_pos[ref_src[j]])
                    if sp < 0:
                        return None  # template reads a non-pre static node
                    s_lag.append(-1)
                    s_ref.append(sp)
                else:
                    s_lag.append(int(lag_ref[j]))
                    s_ref.append(int(ref_src_off[j]))
                ecol.append(j)
        tmpl_levels.append(
            _TLevel(
                np.array(dst, dtype=np.int64),
                np.array(s_lag, dtype=np.int64),
                np.array(s_ref, dtype=np.int64),
                np.array(ecol, dtype=np.int64),
                np.array(segs, dtype=np.int64),
                len(ecol) == len(dst),
            )
        )
    ir.tmpl_levels = tmpl_levels
    written = np.zeros(n_t, dtype=bool)
    written[ref_dst_off] = True
    ir.zero_offs = np.nonzero(~written)[0].astype(np.int64)

    # -- 10. ring priming for the folded boundary instances ----------------
    fold_src_pos = pre_pos[run_node_ids[:fold]]
    if fold_src_pos.min(initial=0) < 0:
        return None
    ir.fold_src_pos = fold_src_pos

    # -- 11. post levels (sources: pre, post, or template taps) ------------
    tap_index: dict[tuple[int, int], int] = {}

    def tap_slot(inst: int, off: int) -> int:
        key = (inst, off)
        slot = tap_index.get(key)
        if slot is None:
            slot = len(tap_index)
            tap_index[key] = slot
        return ir.tap_base + slot

    def post_src(s: int):
        p = int(pre_pos[s])
        if p >= 0:
            return p
        if pos_inst[s] >= fold:
            return tap_slot(int(pos_inst[s]), int(pos_off[s]))
        p = int(post_pos[s])
        return ir.post_base + p if p >= 0 else None

    post_levels = build_static_levels(
        post_ids, lambda v: ir.post_base + int(post_pos[v]), post_src
    )
    if post_levels is None:
        return None
    ir.post_levels = post_levels

    # -- 12. finals + coverage ---------------------------------------------
    final_pos = np.full(plan.nprocs, -1, dtype=np.int64)
    for r in range(plan.nprocs):
        fn = int(plan.final_node[r])
        if fn < 0:
            continue
        if pre_pos[fn] >= 0:
            final_pos[r] = pre_pos[fn]
        elif pos_inst[fn] >= fold:
            final_pos[r] = tap_slot(int(pos_inst[fn]), int(pos_off[fn]))
        elif post_pos[fn] >= 0:
            final_pos[r] = ir.post_base + post_pos[fn]
        else:  # pragma: no cover - exhaustive partition
            return None
    ir.final_pos = final_pos

    if len(static_eids) + m_run * n_te != n_edges:
        return None
    ir.static_eids = np.array(static_eids, dtype=np.int64)
    if len(tap_index):
        items = sorted(tap_index.items(), key=lambda kv: kv[1])
        ir.tap_inst = np.array([k[0] for k, _ in items], dtype=np.int64)
        ir.tap_off = np.array([k[1] for k, _ in items], dtype=np.int64)
    ir.n_taps = len(tap_index)
    ir.W = ir.tap_base + ir.n_taps
    return ir
