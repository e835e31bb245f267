"""Compiled graph plan: vectorized sampling + replicate-batched propagation.

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
* a vectorized sampler — numpy-native splitmix64 over the uid columns,
  a vectorized PCG64 (XSL-RR 128/64) advancing one independent stream
  per edge, and ziggurat fast paths for the exponential / normal
  families — that reproduces :meth:`PerturbationSpec.sample` draws
  **bit-for-bit**;
* a propagation kernel carrying a ``(R, n_nodes)`` delay matrix
  through one topological pass (per-node max over in-edges vectorized
  across the replicate axis, both ``additive`` and ``threshold``
  modes).

Exactness strategy
------------------

``PerturbationSpec`` keys one PCG64 stream per edge from
``splitmix64``-mixed ``(seed, kind, *uid)`` and draws through numpy
``Generator`` methods.  The mix chain and the PCG64 LCG are replayed
here with uint64 array arithmetic (verified against
``BitGenerator.random_raw`` at runtime).  The ziggurat layer tables
numpy uses for ``standard_exponential`` / ``standard_normal`` are not
exported, so they are *harvested* at runtime: the PCG64 LCG is
invertible, so for any desired 64-bit output we can construct the
predecessor state, feed it to a real ``Generator``, and observe the
returned value and the number of raw draws consumed.  256 probes plus a
binary search per layer recover ``(w[idx], k[idx])`` exactly.  Lanes
whose every draw takes the single-draw ziggurat fast path (~98%) are
vectorized; the rest — rejection/tail branches, and any distribution
family outside the verified registry (Constant / Uniform / Exponential
/ Normal plus Shifted/Scaled combinators) — fall back to the scalar
``PerturbationSpec`` for that (edge, replicate) lane, so results are
unconditionally identical to :func:`propagate` for *any* signature.
If the runtime self-check fails (e.g. a future numpy changes its
bit-stream layout), the vectorized sampler disables itself and every
lane falls back — slower, never wrong.

Observability: the compiled path emits ``compiled.compile``,
``compiled.sample`` and ``compiled.propagate`` spans plus
``traversal.propagations`` / ``traversal.clamped_edges`` counters, so
``--profile`` output stays comparable with the reference engine.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import obs
from repro._util import atomic_write_text
from repro.core.builder import BuildResult
from repro.core.coarsen import AUTO_MIN_NODES, COARSEN_CHOICES, detect_phases
from repro.core.graph import DeltaKind, DeltaSpec, EdgeKind
from repro.core.perturb import PerturbationSpec
from repro.core.traversal import MODES, TraversalResult
from repro.noise.distributions import Constant, Exponential, Normal, Scaled, Shifted, Uniform
from repro.noise.signature import MachineSignature

__all__ = ["CompiledBatch", "CompiledPlan", "compiled_plan"]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_SEED = 0x811C9DC5
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2^-53

# PCG64 (XSL-RR 128/64) multiplier, split into 64-bit halves for the
# two-limb vectorized LCG step.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = _U64(_PCG_MULT >> 64)
_PCG_MULT_LO = _U64(_PCG_MULT & _MASK64)
_MASK128 = (1 << 128) - 1
_PCG_INV_MULT = pow(_PCG_MULT, -1, 1 << 128)  # LCG step inverse (harvesting)


# ---------------------------------------------------------------------------
# Vectorized splitmix64 / _mix (must match repro.core.perturb exactly)
# ---------------------------------------------------------------------------


def _splitmix64_into(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """In-place splitmix64 finalizer: mutates uint64 ``x`` (returning it),
    with ``t`` as same-shape scratch.  The hot key-derivation loops call
    this to avoid reallocating multi-MB temporaries per round."""
    x += _U64(0x9E3779B97F4A7C15)
    np.right_shift(x, _U64(30), out=t)
    x ^= t
    x *= _U64(0xBF58476D1CE4E5B9)
    np.right_shift(x, _U64(27), out=t)
    x ^= t
    x *= _U64(0x94D049BB133111EB)
    np.right_shift(x, _U64(31), out=t)
    x ^= t
    return x


def _splitmix64_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.core.perturb._splitmix64` over uint64 arrays."""
    x = x.astype(_U64, copy=True)
    return _splitmix64_into(x, np.empty_like(x))


def _mix_vec(columns: np.ndarray, lengths: np.ndarray | None = None) -> np.ndarray:
    """Vectorized :func:`repro.core.perturb._mix` over the rows of a padded
    uint64 matrix (``lengths[i]`` = how many leading columns row i uses)."""
    n, width = columns.shape
    h = np.full(n, _U64(_FNV_SEED), dtype=_U64)
    for j in range(width):
        if lengths is None:
            h = _splitmix64_vec(h ^ columns[:, j])
        else:
            m = lengths > j
            h[m] = _splitmix64_vec(h[m] ^ columns[m, j])
    return h


# ---------------------------------------------------------------------------
# Vectorized PCG64 (XSL-RR 128/64)
# ---------------------------------------------------------------------------


def _mulhi64(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 arrays (32-bit limbs)."""
    m32 = _U64(0xFFFFFFFF)
    s32 = _U64(32)
    ah, al = a >> s32, a & m32
    bh, bl = b >> s32, b & m32
    lo = al * bl
    t = ah * bl + (lo >> s32)
    w1 = (t & m32) + al * bh
    return ah * bh + (t >> s32) + (w1 >> s32)


_PCG_ML_HI = _U64(int(_PCG_MULT_LO) >> 32)
_PCG_ML_LO = _U64(int(_PCG_MULT_LO) & 0xFFFFFFFF)


def _pcg_next64(hi, lo, inc_hi, inc_lo):
    """One LCG step + XSL-RR output.  Returns ``(hi', lo', out)``.

    The 128-bit LCG step is accumulated with in-place uint64 ops —
    unsigned addition is commutative and wrap-exact, so the reordering
    relative to the textbook :func:`_mulhi64` formulation is
    bit-identical while allocating far fewer (R, n_lane) temporaries.
    """
    m32 = _U64(0xFFFFFFFF)
    s32 = _U64(32)
    al = lo & m32
    ah = lo >> s32
    t = al * _PCG_ML_LO
    t >>= s32
    t += ah * _PCG_ML_LO
    w1 = t & m32
    w1 += al * _PCG_ML_HI
    t >>= s32
    w1 >>= s32
    t += w1
    t += ah * _PCG_ML_HI
    t += hi * _PCG_MULT_LO
    t += lo * _PCG_MULT_HI
    nlo = lo * _PCG_MULT_LO
    lo2 = nlo + inc_lo
    t += inc_hi
    np.add(t, lo2 < nlo, out=t, casting="unsafe")
    hi2 = t
    rot = hi2 >> _U64(58)
    x = hi2 ^ lo2
    out = x >> rot
    np.subtract(_U64(64), rot, out=rot)
    rot &= _U64(63)
    x <<= rot
    out |= x
    return hi2, lo2, out


# ---------------------------------------------------------------------------
# Runtime ziggurat-table harvesting + backend self-check
# ---------------------------------------------------------------------------

_TABLES: dict | None = None


def _spec_state(k: int, s1: int, s2: int, s3: int) -> tuple[int, int]:
    """(state, inc) exactly as ``PerturbationSpec._rng`` would install them."""
    inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128
    return (k << 64) | s1, inc


class _Prober:
    """Drives a real ``Generator`` from constructed PCG64 states."""

    def __init__(self) -> None:
        self.bg = np.random.PCG64(0)
        self.template = self.bg.state
        self.gen = np.random.Generator(self.bg)

    def set_state(self, state128: int, inc128: int) -> None:
        st = dict(self.template)
        st["state"] = {"state": state128, "inc": inc128}
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self.bg.state = st

    def probe(self, u0: int, draw, maxn: int = 4) -> tuple[float, int]:
        """Make the next raw output exactly ``u0`` (via the LCG inverse),
        call ``draw()``, and count how many raw draws it consumed."""
        s_pre = ((u0 - 1) * _PCG_INV_MULT) & _MASK128  # post-step (hi=0, lo=u0)
        self.set_state(s_pre, 1)
        value = draw()
        after = self.bg.state["state"]["state"]
        s = s_pre
        for n in range(1, maxn + 1):
            s = (s * _PCG_MULT + 1) & _MASK128
            if s == after:
                return value, n
        return value, -1


def _harvest_layers(probe_fn, payload_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Recover ``(w, k)`` ziggurat tables for one family.

    ``probe_fn(idx, payload) -> (value, steps)``.  A 1-step probe is a
    primary accept; a 2-step probe is the boundary branch, which still
    returns ``payload * w[idx]`` exactly, so either yields ``w``.  The
    binary search uses ``steps == 1`` as the accept signal (``k[idx]``
    is the smallest rejected payload; a layer may accept its whole
    payload range, flagged with the ``2**payload_bits`` sentinel).
    """
    w = np.empty(256, dtype=np.float64)
    k = np.empty(256, dtype=np.uint64)
    top = 1 << payload_bits
    for idx in range(256):
        v, n = probe_fn(idx, 1)
        if n not in (1, 2):
            raise RuntimeError(f"layer {idx}: probe consumed {n} draws")
        w[idx] = v
        _, n = probe_fn(idx, top - 1)
        if n == 1:
            k[idx] = top
            continue
        lo, hi = 0, top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            _, n = probe_fn(idx, mid)
            lo, hi = (mid, hi) if n == 1 else (lo, mid)
        k[idx] = hi
    return w, k


def _random_streams(n: int, seed: int):
    """``n`` spec-style stream keys (k, s1, s2, s3) for self-checks."""
    rng = np.random.default_rng(seed)
    return tuple(rng.integers(0, 1 << 64, size=n, dtype=_U64) for _ in range(4))


def _stream_state_arrays(k, s1, s2, s3):
    inc_hi = (s2 << _U64(1)) | (s3 >> _U64(63))
    inc_lo = (s3 << _U64(1)) | _U64(1)
    return k.copy(), s1.copy(), inc_hi, inc_lo


def _check_family(prober: _Prober, keys, u0, vec_values, accept, scalar_draw) -> bool:
    """Verify vectorized accepted-lane values against scalar draws."""
    k, s1, s2, s3 = keys
    idx = np.nonzero(accept)[0] if accept is not None else np.arange(len(u0))
    if accept is not None and len(idx) < len(u0) // 2:
        return False  # implausible accept rate: layout assumption broken
    for i in idx:
        prober.set_state(*_spec_state(int(k[i]), int(s1[i]), int(s2[i]), int(s3[i])))
        if scalar_draw(prober.gen) != vec_values[i]:
            return False
    return True


def _build_tables(candidates: dict | None = None) -> dict:
    """Harvest + verify the vectorized sampling backend (once per process).

    Returns ``{"pcg": bool, "uniform": bool, "exp": (we, ke) | None,
    "norm": (wi, ki) | None}``.  Any check that fails simply disables
    its family — affected lanes take the exact scalar fallback.

    ``candidates`` optionally supplies previously-harvested ziggurat
    tables (e.g. from the on-disk cache).  Candidates run through the
    *same* scalar-draw verification as a fresh harvest, so a stale or
    corrupted cache can never change results — it just falls through to
    the runtime harvest.
    """
    out: dict = {"pcg": False, "uniform": False, "exp": None, "norm": None}
    prober = _Prober()
    keys = _random_streams(512, 0xC0FFEE)
    k, s1, s2, s3 = keys

    # 1. Raw-stream check: vectorized LCG vs BitGenerator.random_raw.
    hi, lo, ihi, ilo = _stream_state_arrays(k, s1, s2, s3)
    hi, lo, u0 = _pcg_next64(hi, lo, ihi, ilo)
    _, _, u1 = _pcg_next64(hi, lo, ihi, ilo)
    for i in range(0, 512, 31):
        prober.set_state(*_spec_state(int(k[i]), int(s1[i]), int(s2[i]), int(s3[i])))
        raw = prober.bg.random_raw(2)
        if int(raw[0]) != int(u0[i]) or int(raw[1]) != int(u1[i]):
            return out
    out["pcg"] = True

    # 2. Uniform double: out = (u >> 11) * 2^-53.
    d = (u0 >> _U64(11)).astype(np.float64) * _TO_DOUBLE
    vals = -2.5 + 7.0 * d
    out["uniform"] = _check_family(
        prober, keys, u0, vals, None, lambda g: g.uniform(-2.5, 4.5)
    )

    # 3. Exponential ziggurat: idx = (u >> 3) & 0xFF, payload = u >> 11.
    def check_exp(tables) -> bool:
        we, ke = tables
        ri = u0 >> _U64(3)
        lidx = (ri & _U64(0xFF)).astype(np.intp)
        pay = ri >> _U64(8)
        x = pay.astype(np.float64) * we[lidx]
        acc = pay < ke[lidx]
        return _check_family(prober, keys, u0, x, acc, lambda g: g.standard_exponential())

    cand = candidates.get("exp") if candidates else None
    if cand is not None and check_exp(cand):
        out["exp"] = cand
        obs.add("compiled.tables_cache.hits")
    else:
        with contextlib.suppress(RuntimeError):  # layer harvest gives up on odd builds
            exp_tables = _harvest_layers(
                lambda idx, pay: prober.probe(((pay << 8) | idx) << 3, prober.gen.standard_exponential),
                payload_bits=53,
            )
            if check_exp(exp_tables):
                out["exp"] = exp_tables

    # 4. Normal ziggurat: idx = u & 0xFF, sign = bit 8, rabs = 52 bits above.
    def check_norm(tables) -> bool:
        wi, ki = tables
        nidx = (u0 & _U64(0xFF)).astype(np.intp)
        r = u0 >> _U64(8)
        sign = (r & _U64(1)) != 0
        rabs = (r >> _U64(1)) & _U64(0x000FFFFFFFFFFFFF)
        z = rabs.astype(np.float64) * wi[nidx]
        z = np.where(sign, -z, z)
        acc = rabs < ki[nidx]
        return _check_family(prober, keys, u0, z, acc, lambda g: g.standard_normal())

    cand = candidates.get("norm") if candidates else None
    if cand is not None and check_norm(cand):
        out["norm"] = cand
        obs.add("compiled.tables_cache.hits")
    else:
        with contextlib.suppress(RuntimeError):
            norm_tables = _harvest_layers(
                lambda idx, rabs: prober.probe((rabs << 9) | idx, prober.gen.standard_normal),
                payload_bits=52,
            )
            if check_norm(norm_tables):
                out["norm"] = norm_tables
    return out


# -- per-user on-disk table cache (skips the harvest in pool workers and
# repeated CLI runs; contents are re-verified on every load) -----------------

TABLES_CACHE_ENV = "REPRO_TABLES_CACHE"
_TABLES_CACHE_SCHEMA = "repro-ziggurat-tables/1"


def _tables_cache_path() -> Path | None:
    """Cache file for this numpy version, or None when disabled.

    ``REPRO_TABLES_CACHE`` overrides the directory; ``0`` / ``off`` /
    ``none`` disables the cache entirely.  The filename embeds the
    numpy version because the tables mirror numpy's private ziggurat
    layout — an upgraded numpy harvests (and caches) afresh.
    """
    val = os.environ.get(TABLES_CACHE_ENV, "").strip()
    if val.lower() in ("0", "off", "none", "disabled"):
        return None
    if val:
        root = Path(val)
    else:
        base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
        root = Path(base) / "repro"
    return root / f"ziggurat-np{np.__version__}.json"


def _load_table_candidates(path: Path) -> dict | None:
    """Parse cached tables; None on any structural problem (then the
    normal harvest runs — verification guards against value problems)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != _TABLES_CACHE_SCHEMA:
        return None
    out: dict = {}
    for fam in ("exp", "norm"):
        ent = doc.get(fam)
        if ent is None:
            out[fam] = None
            continue
        try:
            w = np.asarray(ent["w"], dtype=np.float64)
            kk = np.asarray(ent["k"], dtype=np.uint64)
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if w.shape != (256,) or kk.shape != (256,):
            return None
        out[fam] = (w, kk)
    return out


def _store_tables(path: Path, tables: dict) -> None:
    doc: dict = {"schema": _TABLES_CACHE_SCHEMA, "numpy": np.__version__}
    for fam in ("exp", "norm"):
        ent = tables[fam]
        doc[fam] = (
            None
            if ent is None
            else {"w": ent[0].tolist(), "k": [int(x) for x in ent[1].tolist()]}
        )
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(doc, sort_keys=True) + "\n")
        obs.add("compiled.tables_cache.writes")
    except OSError:  # unwritable cache dir: never fatal
        pass


def _tables_match_candidates(tables: dict, candidates: dict | None) -> bool:
    if candidates is None:
        return False
    for fam in ("exp", "norm"):
        t, c = tables[fam], candidates.get(fam)
        if (t is None) != (c is None):
            return False
        if t is not None and not (
            np.array_equal(t[0], c[0]) and np.array_equal(t[1], c[1])
        ):
            return False
    return True


def _get_tables() -> dict:
    global _TABLES
    if _TABLES is None:
        path = _tables_cache_path()
        candidates = None
        if path is not None and path.exists():
            candidates = _load_table_candidates(path)
        with obs.span("compiled.harvest_tables", cached=candidates is not None):
            _TABLES = _build_tables(candidates)
        if (
            path is not None
            and (_TABLES["exp"] is not None or _TABLES["norm"] is not None)
            and not _tables_match_candidates(_TABLES, candidates)
        ):
            _store_tables(path, _TABLES)
    return _TABLES


# ---------------------------------------------------------------------------
# Distribution registry (vectorizable families)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConstDist:
    """0-draw distribution: always ``value`` (after combinator folding)."""

    value: float


@dataclass(frozen=True)
class _VecDist:
    """1-draw distribution with a verified vectorized fast path.

    ``family`` ∈ {"uniform", "exp", "norm"}; ``ops`` is the ordered
    Shifted/Scaled combinator chain applied after the family transform.
    """

    family: str
    p1: float
    p2: float = 0.0
    ops: tuple = ()


_CLASSIFY_CACHE: dict = {}
_CLASSIFY_CACHE_MAX = 4096


def _dist_key(dist):
    """Hashable identity of a distribution over the verified registry,
    or None for families we cannot key (classified fresh each time)."""
    if isinstance(dist, Constant):
        return ("const", dist.value)
    if isinstance(dist, Uniform):
        return ("uniform", dist.low, dist.high)
    if isinstance(dist, Exponential):
        return ("exp", dist.mean_value)
    if isinstance(dist, Normal):
        return ("norm", dist.mu, dist.sigma)
    if isinstance(dist, Shifted):
        inner = _dist_key(dist.base)
        return None if inner is None else ("shift", dist.offset, inner)
    if isinstance(dist, Scaled):
        inner = _dist_key(dist.base)
        return None if inner is None else ("scale", dist.factor, inner)
    return None


def _classify_cached(dist, tables: dict):
    """Module-level memoized :func:`_classify`, keyed by distribution
    *value* plus which table families are enabled — so sweeps binding
    many signatures classify each distinct distribution once per
    process instead of once per bind."""
    if not tables["pcg"]:
        return None
    key = _dist_key(dist)
    if key is None:
        return _classify(dist, tables)
    full_key = (key, tables["uniform"], tables["exp"] is None, tables["norm"] is None)
    try:
        return _CLASSIFY_CACHE[full_key]
    except KeyError:
        if len(_CLASSIFY_CACHE) >= _CLASSIFY_CACHE_MAX:
            _CLASSIFY_CACHE.clear()
        val = _classify(dist, tables)
        _CLASSIFY_CACHE[full_key] = val
        return val


def _classify(dist, tables: dict):
    """Map a RandomVariable to its vectorized form, or None (unsupported)."""
    if isinstance(dist, Constant):
        return _ConstDist(dist.value)
    if isinstance(dist, Uniform):
        if not tables["uniform"]:
            return None
        return _VecDist("uniform", dist.low, dist.high - dist.low)
    if isinstance(dist, Exponential):
        if tables["exp"] is None:
            return None
        return _VecDist("exp", dist.mean_value)
    if isinstance(dist, Normal):
        if tables["norm"] is None:
            return None
        return _VecDist("norm", dist.mu, dist.sigma)
    if isinstance(dist, (Shifted, Scaled)):
        inner = _classify(dist.base, tables)
        if inner is None:
            return None
        op = ("+", dist.offset) if isinstance(dist, Shifted) else ("*", dist.factor)
        if isinstance(inner, _ConstDist):
            v = inner.value + op[1] if op[0] == "+" else inner.value * op[1]
            return _ConstDist(v)
        return _VecDist(inner.family, inner.p1, inner.p2, inner.ops + (op,))
    return None


def _eval_dist(d: _VecDist, u: np.ndarray, tables: dict):
    """Evaluate a vectorized distribution on raw uint64 draws.

    Returns ``(values, accept)`` — ``accept`` is None when every lane
    is exact (no rejection step possible, e.g. uniform).
    """
    if d.family == "uniform":
        v = (u >> _U64(11)).astype(np.float64) * _TO_DOUBLE
        v = d.p1 + d.p2 * v
        acc = None
    elif d.family == "exp":
        we, ke = tables["exp"]
        ri = u >> _U64(3)
        idx = (ri & _U64(0xFF)).astype(np.intp)
        pay = ri >> _U64(8)
        v = pay.astype(np.float64) * we[idx]
        acc = pay < ke[idx]
        v = d.p1 * v
    else:  # "norm"
        wi, ki = tables["norm"]
        idx = (u & _U64(0xFF)).astype(np.intp)
        r = u >> _U64(8)
        sign = (r & _U64(1)) != 0
        rabs = (r >> _U64(1)) & _U64(0x000FFFFFFFFFFFFF)
        v = rabs.astype(np.float64) * wi[idx]
        v = np.where(sign, -v, v)
        acc = rabs < ki[idx]
        v = d.p1 + d.p2 * v
    for op, c in d.ops:
        v = v + c if op == "+" else v * c
    return v, acc


# ---------------------------------------------------------------------------
# Draw programs (per-edge sampling recipes)
# ---------------------------------------------------------------------------


def _edge_program(sig: MachineSignature, delta: DeltaSpec, weight: float, classify):
    """The ordered primitive-draw recipe replaying ``spec.sample`` for one
    edge: a list of ``(dist, factor)`` steps (factor = nbytes for δ_t
    terms), or None when any step's family is unsupported."""
    kind = delta.kind
    os_d = classify(sig.os_noise_for(delta.rank))
    lat = classify(sig.latency_for(delta.src, delta.dst))
    pb = classify(sig.per_byte)
    steps: list | None
    if kind == DeltaKind.OS:
        if sig.os_draws(weight) != 1:
            return None  # interval-scaled multi-draw: scalar fallback
        steps = [(os_d, 1.0)]
    elif kind == DeltaKind.LATENCY:
        steps = [(lat, 1.0)]
    elif kind == DeltaKind.TRANSFER:
        steps = [(lat, 1.0)]
        if delta.nbytes > 0:
            steps.append((pb, float(delta.nbytes)))
    elif kind == DeltaKind.TRANSFER_OS:
        steps = [(lat, 1.0)]
        if delta.nbytes > 0:
            steps.append((pb, float(delta.nbytes)))
        steps.append((os_d, 1.0))
    elif kind == DeltaKind.ROUNDTRIP:
        lat_back = classify(sig.latency_for(delta.dst, delta.src))
        steps = [(lat, 1.0)]
        if delta.nbytes > 0:
            steps.append((pb, float(delta.nbytes)))
        steps.extend([(os_d, 1.0), (lat_back, 1.0)])
    elif kind == DeltaKind.COLL_FANIN:
        steps = []
        for _ in range(delta.rounds):
            steps.extend([(os_d, 1.0), (lat, 1.0)])
            if delta.nbytes > 0:
                steps.append((pb, float(delta.nbytes)))
    else:  # pragma: no cover - exhaustive over sampled kinds
        return None
    if any(d is None for d, _ in steps):
        return None
    return steps


class _Group:
    """Edges sharing one program shape, sampled lane-parallel.

    ``lanes`` indexes the supported-lane axis (for stream keys);
    ``edge_ids`` the global edge axis (for uid/weight/fallback lookups);
    ``out_cols`` the sampler's output column axis.  Steps are
    ``("const", contrib_row)`` — no stream consumption — or
    ``("draw", _VecDist, factor_row | None)``.
    """

    __slots__ = ("lanes", "edge_ids", "out_cols", "steps")

    def __init__(self, lanes, edge_ids, out_cols, steps):
        self.lanes = lanes
        self.edge_ids = edge_ids
        self.out_cols = out_cols
        self.steps = steps


def _stream_key_arrays(seeds_u64, kind_u64, uid_mat, uid_len):
    """Per-(replicate, lane) PCG64 state arrays, shape (R, n_lanes).

    Replays ``PerturbationSpec``'s ``(seed, kind, *uid)`` splitmix
    chain for every lane of a uid-column block at once.
    """
    h0 = _splitmix64_vec(_U64(_FNV_SEED) ^ seeds_u64)
    h = np.bitwise_xor(h0[:, None], kind_u64[None, :])
    t = np.empty_like(h)
    _splitmix64_into(h, t)
    for j in range(uid_mat.shape[1]):
        cols = uid_len > j
        if not np.any(cols):
            break
        if cols.all():
            h ^= uid_mat[None, :, j]
            _splitmix64_into(h, t)
        else:
            h[:, cols] = _splitmix64_vec(h[:, cols] ^ uid_mat[cols, j][None, :])
    k = h
    s1 = _splitmix64_into(k.copy(), t)
    s2 = _splitmix64_into(s1.copy(), t)
    s3 = _splitmix64_into(s2.copy(), t)
    inc_hi = (s2 << _U64(1)) | (s3 >> _U64(63))
    inc_lo = (s3 << _U64(1)) | _U64(1)
    return k, s1, inc_hi, inc_lo


class _BoundSampler:
    """A CompiledPlan's sampler bound to one machine signature.

    With ``edge_ids=None`` it covers the full edge axis (output width
    ``n_edges``); with an explicit edge-id subset its output columns
    follow that subset's order (the coarse engine samples the static
    region this way).
    """

    def __init__(
        self,
        plan: "CompiledPlan",
        signature: MachineSignature,
        edge_ids: np.ndarray | None = None,
    ):
        self.plan = plan
        self.signature = signature
        self.tables = _get_tables()
        cache: dict = {}

        def classify(dist):
            key = id(dist)
            if key not in cache:
                cache[key] = _classify_cached(dist, self.tables)
            return cache[key]

        if edge_ids is None:
            self.out_width = plan.n_edges
            cand = plan.sampled_ids
            cand_cols = plan.sampled_ids
        else:
            edge_ids = np.asarray(edge_ids, dtype=np.int64)
            self.out_width = len(edge_ids)
            mask = plan.edge_kind[edge_ids] != int(DeltaKind.NONE)
            cand = edge_ids[mask]
            cand_cols = np.nonzero(mask)[0]

        sup_lanes: list[int] = []  # edge ids with a vectorizable program
        sup_cols: list[int] = []
        programs: list = []
        unsup: list[int] = []
        unsup_cols: list[int] = []
        for eid, col in zip(cand.tolist(), cand_cols.tolist()):
            delta = plan.deltas[eid]
            if not delta.uid:
                # scalar engine raises for uid-less sampled edges; defer
                # to it so the error (and message) is identical.
                unsup.append(eid)
                unsup_cols.append(col)
                continue
            prog = _edge_program(signature, delta, plan.edge_weight[eid], classify)
            if prog is None:
                unsup.append(eid)
                unsup_cols.append(col)
            else:
                sup_lanes.append(eid)
                sup_cols.append(col)
                programs.append(prog)
        self.unsup_ids = np.array(unsup, dtype=np.int64)
        self.unsup_cols = np.array(unsup_cols, dtype=np.int64)
        self.lane_edge_ids = np.array(sup_lanes, dtype=np.int64)
        lane_cols = np.array(sup_cols, dtype=np.int64)
        n_sup = len(sup_lanes)
        self.kind_u64 = plan.uid_kind[self.lane_edge_ids] if n_sup else np.empty(0, _U64)
        self.uid_mat = plan.uid_mat[self.lane_edge_ids] if n_sup else np.empty((0, 0), _U64)
        self.uid_len = plan.uid_len[self.lane_edge_ids] if n_sup else np.empty(0, np.int64)

        # Group lanes by program shape (the dist sequence; factors vary).
        by_shape: dict[tuple, list[int]] = {}
        for lane, prog in enumerate(programs):
            by_shape.setdefault(tuple(d for d, _ in prog), []).append(lane)
        self.groups: list[_Group] = []
        for shape, lanes in by_shape.items():
            lanes_arr = np.array(lanes, dtype=np.int64)
            steps = []
            for j, dist in enumerate(shape):
                factors = np.array([programs[i][j][1] for i in lanes], dtype=np.float64)
                if isinstance(dist, _ConstDist):
                    steps.append(("const", max(dist.value, 0.0) * factors))
                else:
                    fac = None if np.all(factors == 1.0) else factors
                    steps.append(("draw", dist, fac))
            self.groups.append(
                _Group(
                    lanes_arr,
                    self.lane_edge_ids[lanes_arr],
                    lane_cols[lanes_arr],
                    steps,
                )
            )

    # -- sampling ---------------------------------------------------------------
    def _stream_keys(self, seeds_u64: np.ndarray):
        """Per-(replicate, lane) PCG64 state arrays, shape (R, n_sup)."""
        return _stream_key_arrays(seeds_u64, self.kind_u64, self.uid_mat, self.uid_len)

    def sample_raw(self, seeds: list[int], scale: float) -> np.ndarray:
        """(R, out_width) matrix of per-edge deltas, row r drawn exactly
        as ``PerturbationSpec(signature, seed=seeds[r], scale=scale)``
        would for each covered edge."""
        plan = self.plan
        R = len(seeds)
        raw = np.zeros((R, self.out_width), dtype=np.float64)
        fallback = 0
        if len(self.lane_edge_ids):
            seeds_u64 = np.array([s & _MASK64 for s in seeds], dtype=_U64)
            k, s1, inc_hi, inc_lo = self._stream_keys(seeds_u64)
            bad_cols: list[np.ndarray] = []  # per-group (R, n_g) reject masks
            for g in self.groups:
                hi = k[:, g.lanes]
                lo = s1[:, g.lanes]
                ihi = inc_hi[:, g.lanes]
                ilo = inc_lo[:, g.lanes]
                V = np.zeros((R, len(g.lanes)), dtype=np.float64)
                ok = np.ones((R, len(g.lanes)), dtype=bool)
                for step in g.steps:
                    if step[0] == "const":
                        V += step[1]
                        continue
                    _, dist, fac = step
                    hi, lo, u = _pcg_next64(hi, lo, ihi, ilo)
                    v, acc = _eval_dist(dist, u, self.tables)
                    np.maximum(v, 0.0, out=v)
                    if fac is not None:
                        v *= fac
                    V += v
                    if acc is not None:
                        ok &= acc
                raw[:, g.out_cols] = V * scale
                bad_cols.append(~ok)
            # Exact per-lane fallback: any replicate/edge whose draw chain
            # left the verified fast path is resampled by the scalar spec.
            for g, bad in zip(self.groups, bad_cols):
                if not bad.any():
                    continue
                rows, cols = np.nonzero(bad)
                fallback += len(rows)
                spec = None
                last_row = -1
                for r, c in zip(rows, cols):
                    if r != last_row:
                        spec = PerturbationSpec(self.signature, seed=seeds[r], scale=scale)
                        last_row = r
                    eid = int(g.edge_ids[c])
                    raw[r, int(g.out_cols[c])] = spec.sample(
                        plan.deltas[eid], plan.edge_weight[eid]
                    )
        if len(self.unsup_ids):
            fallback += R * len(self.unsup_ids)
            for r in range(R):
                spec = PerturbationSpec(self.signature, seed=seeds[r], scale=scale)
                for eid, col in zip(self.unsup_ids.tolist(), self.unsup_cols.tolist()):
                    raw[r, col] = spec.sample(plan.deltas[eid], plan.edge_weight[eid])
        obs.span_add("compiled.lanes", R * self.out_width)
        if fallback:
            obs.span_add("compiled.fallback_lanes", fallback)
        return raw


class _TemplateSampler:
    """Shared per-template draw programs, sampled per instance chunk.

    Phase congruence guarantees every templated instance's edge at
    template position ``q`` has the same delta kind / endpoints /
    nbytes / rounds — hence the same draw program — while uids (and so
    PCG streams) differ per repetition.  Programs therefore classify
    **once** from the reference instance; sampling gathers each
    instance chunk's per-edge uid rows and runs the shared program over
    one ``(R, n_inst * n_lanes)`` lane block, reproducing the scalar
    draws bit-for-bit via exactly the machinery of
    :class:`_BoundSampler`.

    Only valid when programs are weight-independent, i.e.
    ``signature.os_quantum <= 0`` (the caller gates on this).
    """

    def __init__(self, plan: "CompiledPlan", signature: MachineSignature, ir):
        self.plan = plan
        self.signature = signature
        self.ir = ir
        self.tables = _get_tables()
        cache: dict = {}

        def classify(dist):
            key = id(dist)
            if key not in cache:
                cache[key] = _classify_cached(dist, self.tables)
            return cache[key]

        ref = ir.run_edge_ids[-1]
        kinds = plan.edge_kind[ref]
        none_code = int(DeltaKind.NONE)
        # Any uid-less sampled edge anywhere in the run: bail to the
        # flat sampler wholesale so its error surface is identical.
        sampled_cols = kinds != none_code
        self.ok = not (
            sampled_cols.any()
            and np.any(plan.uid_len[ir.run_edge_ids[:, sampled_cols]] == 0)
        )
        sup: list[tuple[int, list]] = []
        unsup_pos: list[int] = []
        if self.ok:
            for q in range(ir.n_te):
                if kinds[q] == none_code:
                    continue  # unsampled: raw stays 0 for every instance
                eid = int(ref[q])
                prog = _edge_program(
                    signature, plan.deltas[eid], plan.edge_weight[eid], classify
                )
                if prog is None:
                    unsup_pos.append(q)
                else:
                    sup.append((q, prog))
        by_shape: dict[tuple, list[tuple[int, list]]] = {}
        for q, prog in sup:
            by_shape.setdefault(tuple(d for d, _ in prog), []).append((q, prog))
        self.groups: list[tuple[np.ndarray, list]] = []
        for shape, members in by_shape.items():
            tpos = np.array([q for q, _ in members], dtype=np.int64)
            steps: list = []
            for j, dist in enumerate(shape):
                factors = np.array([m[1][j][1] for m in members], dtype=np.float64)
                if isinstance(dist, _ConstDist):
                    steps.append(("const", max(dist.value, 0.0) * factors))
                else:
                    fac = None if np.all(factors == 1.0) else factors
                    steps.append(("draw", dist, fac))
            self.groups.append((tpos, steps))
        self.unsup_pos = np.array(unsup_pos, dtype=np.int64)

    def sample(self, seeds: list[int], scale: float, j0: int, j1: int) -> np.ndarray:
        """(R, (j1-j0) * n_te) sampled deltas for templated instances
        ``[j0, j1)``, instance-major, bit-identical per edge to the
        scalar ``PerturbationSpec.sample``."""
        plan, ir = self.plan, self.ir
        rows = ir.run_edge_ids[j0:j1]
        ni = j1 - j0
        n_te = ir.n_te
        R = len(seeds)
        raw = np.zeros((R, ni * n_te), dtype=np.float64)
        seeds_u64 = np.array([s & _MASK64 for s in seeds], dtype=_U64)
        fallback = 0
        for tpos, steps in self.groups:
            gids = rows[:, tpos].reshape(-1)  # instance-major lane order
            k, s1, inc_hi, inc_lo = _stream_key_arrays(
                seeds_u64, plan.uid_kind[gids], plan.uid_mat[gids], plan.uid_len[gids]
            )
            hi, lo, ihi, ilo = k, s1, inc_hi, inc_lo
            n_lane = ni * len(tpos)
            V = np.zeros((R, n_lane), dtype=np.float64)
            ok = np.ones((R, n_lane), dtype=bool)
            for step in steps:
                if step[0] == "const":
                    V += np.tile(step[1], ni)
                    continue
                _, dist, fac = step
                hi, lo, u = _pcg_next64(hi, lo, ihi, ilo)
                v, acc = _eval_dist(dist, u, self.tables)
                np.maximum(v, 0.0, out=v)
                if fac is not None:
                    v *= np.tile(fac, ni)
                V += v
                if acc is not None:
                    ok &= acc
            cols = (
                np.arange(ni, dtype=np.int64)[:, None] * n_te + tpos[None, :]
            ).reshape(-1)
            raw[:, cols] = V * scale
            if not ok.all():
                bad_r, bad_l = np.nonzero(~ok)
                fallback += len(bad_r)
                spec = None
                last_row = -1
                for r, c in zip(bad_r.tolist(), bad_l.tolist()):
                    if r != last_row:
                        spec = PerturbationSpec(self.signature, seed=seeds[r], scale=scale)
                        last_row = r
                    eid = int(gids[c])
                    raw[r, int(cols[c])] = spec.sample(
                        plan.deltas[eid], plan.edge_weight[eid]
                    )
        if len(self.unsup_pos):
            fallback += R * ni * len(self.unsup_pos)
            unsup = self.unsup_pos.tolist()
            for r in range(R):
                spec = PerturbationSpec(self.signature, seed=seeds[r], scale=scale)
                for j in range(ni):
                    for q in unsup:
                        eid = int(rows[j, q])
                        raw[r, j * n_te + q] = spec.sample(
                            plan.deltas[eid], plan.edge_weight[eid]
                        )
        obs.span_add("compiled.lanes", R * ni * n_te)
        if fallback:
            obs.span_add("compiled.fallback_lanes", fallback)
        return raw


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class _Level:
    """One rank of the level schedule: nodes whose in-edges all come from
    earlier levels, so the whole rank is a single vectorized gather+max.

    ``segs`` are the offsets of each node's first in-edge within the
    level and ``sizes`` its in-edge count (for expanding segment maxima
    back to the edge axis in the predecessor-tracking kernel)."""

    __slots__ = ("nodes", "src", "eid", "segs", "sizes", "single")

    def __init__(self, nodes, src, eid, segs, sizes, single):
        self.nodes = nodes
        self.src = src
        self.eid = eid
        self.segs = segs
        self.sizes = sizes
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
            sizes[a:b],
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
        global _TABLES
        if _TABLES is None and state.get("_tables") is not None:
            _TABLES = state["_tables"]  # workers skip re-harvesting

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

    def longest_path(self, eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Longest weighted path with predecessor tracking, all replicates.

        ``eff`` is an (R, n_edges) per-edge cost matrix; returns
        ``(L, pred)`` of shapes (R, n_nodes): ``L[r, v]`` is the longest
        path cost into ``v`` under row r's costs and ``pred[r, v]`` the
        binding in-edge id (-1 for sources).  Ties break toward the
        *first* in-edge in ``graph.in_edge_ids`` order — the CSR arrays
        are built in exactly that order, so first-position-of-max here
        matches the scalar :func:`~repro.core.traversal.longest_weighted_path`
        bit-for-bit (both compare the same computed float values).
        """
        R = eff.shape[0]
        L = np.zeros((R, self.n_nodes), dtype=np.float64)
        pred = np.full((R, self.n_nodes), -1, dtype=np.int64)
        with obs.span("longest_path", engine="compiled", replicates=R):
            for lv in self.levels:
                contrib = L[:, lv.src] + eff[:, lv.eid]
                if lv.single:
                    L[:, lv.nodes] = contrib
                    pred[:, lv.nodes] = lv.eid[None, :]
                else:
                    M = np.maximum.reduceat(contrib, lv.segs, axis=1)
                    L[:, lv.nodes] = M
                    # First max per segment: mask non-max positions to a
                    # sentinel past the end, then min-reduce positions.
                    ncols = contrib.shape[1]
                    expanded = np.repeat(M, lv.sizes, axis=1)
                    pos = np.where(
                        contrib == expanded,
                        np.arange(ncols, dtype=np.int64)[None, :],
                        ncols,
                    )
                    first = np.minimum.reduceat(pos, lv.segs, axis=1)
                    pred[:, lv.nodes] = lv.eid[first]
        return L, pred

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
