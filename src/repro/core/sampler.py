"""Vectorized edge-delta sampler: bit-exact lane-parallel ``PerturbationSpec``.

A :class:`~repro.core.compiled.CompiledPlan` samples every sampled edge
of every replicate at once.  Each (replicate, edge) pair is a *lane*;
this module replays, for all lanes together, exactly the draws
:meth:`PerturbationSpec.sample` makes for that edge:

* numpy-native splitmix64 over the plan's uid columns rebuilds each
  edge's ``(seed, kind, *uid)`` stream key;
* a vectorized PCG64 (XSL-RR 128/64) on uint64 limbs advances one
  independent stream per lane (verified against
  ``BitGenerator.random_raw`` at runtime);
* each edge's *draw program* is its delta kind's entry in
  :data:`~repro.core.perturb.DRAW_RECIPES` (the table the certified
  bounds read too), expanded by
  :func:`~repro.core.perturb.draw_steps` and classified step by step,
  once per distinct delta key (:meth:`_Sampler.program_groups`); one
  group evaluator, :func:`_eval_group`, shared by the flat and the
  template sampler, runs it.

Exactness strategy
------------------

The ziggurat layer tables numpy uses for ``standard_exponential`` /
``standard_normal`` are not exported.  The package ships them for the
numpy version it was harvested on (``ziggurat-np<version>.json``); on
any other numpy they are *harvested* at runtime: the PCG64 LCG is
invertible, so for any desired 64-bit output we can construct the
predecessor state, feed it to a real ``Generator``, and observe the
returned value and the number of raw draws consumed.  256 probes plus a
binary search per layer recover ``(w[idx], k[idx])`` exactly (cached
on disk).  Shipped, cached and harvested tables pass the same
scalar-draw checks before use.

A ziggurat draw that misses the fast path (a wedge test or the base
layer's tail; Marsaglia & Tsang, "The Ziggurat Method for Generating
Random Variables", J. Stat. Softw. 5(8), 2000, as numpy's
``distributions.c`` implements it) finishes in lanes: only the missed
lanes' PCG states advance, so every later draw of the edge's program
reads the right stream position.  The wedge tables ``f`` (the density
at the layer edges) and the tail start ``r`` derive from ``w``.  A
wedge is decided in lanes only when its two sides differ by more than
a relative margin (``np.exp`` may differ from libm's ``exp`` in the
last ulp); the tails use ``math.log1p``, i.e. libm, per lane.
Forced-miss probes check all of it against the real ``Generator``.

The verified family registry (:func:`_classify`):

* Constant (no draw), Uniform (``(u >> 11) * 2**-53``), Exponential
  and Normal (ziggurat fast path), and any Shifted/Scaled chain of
  them;
* Empirical, the measured signatures of §5.  Bootstrap draws are
  numpy's Lemire bounded integer on the PCG64 *uint32* stream:
  ``index = (x * n) >> 32``, rejected when the low 32 bits of
  ``x * n`` fall below ``(2**32 - n) % n``.  PCG64 buffers the high
  half of a 64-bit output for the next uint32 request, and 64-bit
  families never touch that buffer; every edge's stream starts with it
  empty, so whether a bootstrap draw takes the low half of a fresh
  output or the buffered high half depends only on its position in the
  program.  Interpolated draws are ``np.quantile`` of the sorted
  samples at a uniform double; a single-sample Empirical draws nothing.

Interval-scaled OS edges (``os_quantum > 0``) take ``k`` draws and sum
the zero-clamped values with ``np.sum``, which adds left to right below
8 terms and pairwise from 8; programs replay ``k <= 7`` draws exactly.

Lanes whose draw cannot be decided in lanes (a wedge test inside the
margin, a rejected Lemire draw), edges whose program needs an
unsupported family or ``k >= 8`` draws, and uid-less edges fall back
to the scalar ``PerturbationSpec`` for just that (edge, replicate)
lane (a lane of a vector program restarts from the stream key it
already derived), so results are unconditionally identical to the
scalar draws of :meth:`PerturbationSpec.sample` for *any* signature.
Every fast path is self-checked at runtime against scalar draws
through the same evaluator; a check that fails disables only its own
family or feature (a failed slow-path check only sends ziggurat misses
back to the fallback) — slower, never wrong.  The ``compiled.lanes`` /
``compiled.fallback_lanes`` counters report how many lanes took which
path.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import obs
from repro._util import atomic_write_text
from repro.core.graph import DeltaKind, DeltaSpec
from repro.core.perturb import DRAW_RECIPES, PerturbationSpec, const_term, draw_steps
from repro.noise.distributions import Constant, Exponential, Normal, Scaled, Shifted, Uniform
from repro.noise.empirical import Empirical
from repro.noise.signature import MachineSignature

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_M32 = _U64(0xFFFFFFFF)
_FNV_SEED = 0x811C9DC5
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2^-53
# np.sum adds fewer than 8 float64 terms left to right (pairwise from 8).
_MAX_OS_DRAWS = 7

# PCG64 (XSL-RR 128/64) multiplier, split into 64-bit halves for the
# two-limb vectorized LCG step.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = _U64(_PCG_MULT >> 64)
_PCG_MULT_LO = _U64(_PCG_MULT & _MASK64)
_PCG_ML_HI = _U64(int(_PCG_MULT_LO) >> 32)
_PCG_ML_LO = _U64(int(_PCG_MULT_LO) & 0xFFFFFFFF)
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


def _stream_key_arrays(seeds_u64, kind_u64, uid_mat, uid_len):
    """Per-(replicate, lane) PCG64 state arrays ``(hi, lo, inc_hi,
    inc_lo)``, shape (R, n_lanes).

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


# ---------------------------------------------------------------------------
# Vectorized PCG64 (XSL-RR 128/64)
# ---------------------------------------------------------------------------


def _pcg_next64(hi, lo, inc_hi, inc_lo):
    """One LCG step + XSL-RR output.  Returns ``(hi', lo', out)``.

    The 128-bit product is accumulated from 32-bit limbs with in-place
    uint64 ops — unsigned addition is commutative and wrap-exact, so
    the result is the exact 128-bit LCG step while allocating few
    (R, n_lane) temporaries.
    """
    s32 = _U64(32)
    al = lo & _M32
    ah = lo >> s32
    t = al * _PCG_ML_LO
    t >>= s32
    t += ah * _PCG_ML_LO
    w1 = t & _M32
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
# Distribution registry (vectorizable families)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _ConstDist:
    """0-draw distribution: always ``value`` (after combinator folding)."""

    value: float


@dataclass(frozen=True)
class _VecDist:
    """1-draw distribution with a verified vectorized fast path.

    ``family`` ∈ {"uniform", "exp", "norm", "emp", "emp_interp"};
    ``ops`` is the ordered Shifted/Scaled combinator chain applied
    after the family transform.  The Empirical families carry their
    sorted sample ``table`` and key it by ``tid`` (its ``id``, kept
    unique by the reference held here), so grouping lanes hashes an int
    rather than the samples.  For "emp", ``p1`` is the sample count and
    ``p2`` the Lemire rejection threshold.
    """

    family: str
    p1: float
    p2: float = 0.0
    ops: tuple = ()
    table: np.ndarray | None = field(default=None, compare=False, repr=False)
    tid: int = 0

    @property
    def u32(self) -> bool:
        """Draws from PCG64's uint32 stream (else one 64-bit output)."""
        return self.family == "emp"


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
    if isinstance(dist, Empirical):
        return ("emp", dist.interpolate, dist.samples)
    if isinstance(dist, Shifted):
        inner = _dist_key(dist.base)
        return None if inner is None else ("shift", dist.offset, inner)
    if isinstance(dist, Scaled):
        inner = _dist_key(dist.base)
        return None if inner is None else ("scale", dist.factor, inner)
    return None


def _enabled(tables: dict) -> tuple:
    """Which verified families ``tables`` enables (classification key)."""
    return (
        tables["uniform"],
        tables["exp"] is not None,
        tables["norm"] is not None,
        tables["emp"],
        tables["emp_interp"],
    )


def _classify_cached(dist, tables: dict):
    """Module-level memoized :func:`_classify`, keyed by distribution
    *value* plus which families are enabled — so sweeps binding many
    signatures classify each distinct distribution once per process
    instead of once per bind, and equal Empirical samples share one
    table id."""
    if not tables["pcg"]:
        return None
    key = _dist_key(dist)
    if key is None:
        return _classify(dist, tables)
    full_key = (key, _enabled(tables))
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
    if isinstance(dist, Empirical):
        arr = dist.array
        n = arr.size
        if n == 1:  # numpy draws nothing for a one-value range
            return _ConstDist(float(arr[0]))
        if dist.interpolate:
            if not tables["emp_interp"]:
                return None
            return _VecDist("emp_interp", n, table=arr, tid=id(arr))
        if not tables["emp"] or n >= 1 << 32:
            return None
        return _VecDist("emp", n, ((1 << 32) - n) % n, table=arr, tid=id(arr))
    if isinstance(dist, (Shifted, Scaled)):
        inner = _classify(dist.base, tables)
        if inner is None:
            return None
        op = ("+", dist.offset) if isinstance(dist, Shifted) else ("*", dist.factor)
        if isinstance(inner, _ConstDist):
            v = inner.value + op[1] if op[0] == "+" else inner.value * op[1]
            return _ConstDist(v)
        return dataclasses.replace(inner, ops=inner.ops + (op,))
    return None


def _eval_dist(d: _VecDist, u: np.ndarray, tables: dict):
    """Evaluate a vectorized distribution on raw draws.

    ``u`` holds uint64 outputs, or uint32 values (as uint64) for the
    uint32-stream family.  Returns ``(values, accept)`` — ``accept`` is
    None when every lane is exact (no rejection step possible); lanes
    it marks False hold no value yet.
    """
    acc = None
    if d.family == "uniform":
        v = (u >> _U64(11)).astype(np.float64) * _TO_DOUBLE
    elif d.family in ("exp", "norm"):
        v, acc = _ZIGGURAT_STEPS[d.family][0](u, *tables[d.family])[:2]
    elif d.family == "emp":  # Lemire bounded draw on a uint32
        m = u * _U64(d.p1)
        v = d.table[(m >> _U64(32)).astype(np.intp)]
        if d.p2:
            acc = (m & _M32) >= _U64(d.p2)
    else:  # "emp_interp": uniform(0, 1) double, then the sample quantile
        v = np.quantile(d.table, (u >> _U64(11)).astype(np.float64) * _TO_DOUBLE)
    return _finish(d, v), acc


def _finish(d: _VecDist, v: np.ndarray) -> np.ndarray:
    """The family's affine map and the combinator chain, applied to the
    standard variates ``v``."""
    if d.family in ("uniform", "norm"):
        v = d.p1 + d.p2 * v
    elif d.family == "exp":
        v = d.p1 * v
    for op, c in d.ops:
        v = v + c if op == "+" else v * c
    return v


def _exp_layer(u: np.ndarray, we: np.ndarray, ke: np.ndarray):
    """The exponential ziggurat's first step: ``(x, accept, idx,
    payload)``, with idx = (u >> 3) & 0xFF and the payload u >> 11."""
    ri = u >> _U64(3)
    idx = (ri & _U64(0xFF)).astype(np.intp)
    pay = ri >> _U64(8)
    return pay.astype(np.float64) * we[idx], pay < ke[idx], idx, pay


def _norm_layer(u: np.ndarray, wi: np.ndarray, ki: np.ndarray):
    """The normal ziggurat's first step: ``(x, accept, idx, rabs)``,
    with idx = u & 0xFF, the sign in bit 8 and ``rabs`` the 52 bits
    above it."""
    idx = (u & _U64(0xFF)).astype(np.intp)
    r = u >> _U64(8)
    rabs = (r >> _U64(1)) & _U64(0x000FFFFFFFFFFFFF)
    v = rabs.astype(np.float64) * wi[idx]
    v = np.where((r & _U64(1)) != 0, -v, v)
    return v, rabs < ki[idx], idx, rabs


# ---------------------------------------------------------------------------
# The ziggurat slow path, in lanes
# ---------------------------------------------------------------------------

# A wedge test is decided in lanes only when its two sides differ by more
# than this relative margin: np.exp may differ from the C library's exp
# (which numpy's ziggurat calls) in the last ulp, and the derived
# ``fe``/``fi`` tables may differ from numpy's constants by as much.
_WEDGE_MARGIN = 1e-12


def _next_at(state, at) -> np.ndarray:
    """Advance only the lanes ``at`` (a ``(rows, cols)`` index pair) of
    ``state = (hi, lo, inc_hi, inc_lo)`` one PCG64 step, in place, and
    return their outputs.  Two-axis indexing writes through whatever
    the arrays' memory order is."""
    hi, lo, ihi, ilo = state
    h, l, u = _pcg_next64(hi[at], lo[at], ihi[at], ilo[at])
    hi[at] = h
    lo[at] = l
    return u


def _next_double_at(state, at) -> np.ndarray:
    return (_next_at(state, at) >> _U64(11)).astype(np.float64) * _TO_DOUBLE


def _take(at, mask):
    return at[0][mask], at[1][mask]


def _wedge(f, idx, d, y):
    """Numpy's wedge test ``(f[i-1] - f[i]) * d + f[i] < y`` with a
    margin: ``(accept, reject)``; lanes in neither are undecided."""
    gap = (f[idx - 1] - f[idx]) * d + f[idx] - y
    tol = _WEDGE_MARGIN * y
    return gap < -tol, gap > tol


def _exp_tail(at, state, pay, slow):
    """The exponential ziggurat's base-layer tail: ``r - log1p(-d)``
    for one more double ``d``, per lane with libm's log1p."""
    r = slow[1]
    return [r - math.log1p(-d) for d in _next_double_at(state, at).tolist()]


def _norm_tail(at, state, rabs, slow):
    """The normal ziggurat's tail loop, per lane with libm's log1p: draw
    two doubles until ``yy + yy > xx * xx``, then ``r + xx``, negated
    when bit 8 of the layer draw's ``rabs`` is set."""
    _, r, inv_r = slow
    neg = (((rabs >> _U64(8)) & _U64(1)) != 0).tolist()
    z = np.empty(len(neg))
    pos = np.arange(len(neg))
    while len(pos):
        d1 = _next_double_at(state, at).tolist()
        d2 = _next_double_at(state, at).tolist()
        keep = np.ones(len(pos), dtype=bool)
        for j, (i, a, b) in enumerate(zip(pos.tolist(), d1, d2)):
            xx = -inv_r * math.log1p(-a)
            yy = -math.log1p(-b)
            if yy + yy > xx * xx:
                z[i] = -(r + xx) if neg[i] else r + xx
                keep[j] = False
        pos, at = pos[keep], _take(at, keep)
    return z


# family -> (first step, base-layer tail, the density a wedge compares with)
_ZIGGURAT_STEPS = {
    "exp": (_exp_layer, _exp_tail, lambda x: np.exp(-x)),
    "norm": (_norm_layer, _norm_tail, lambda x: np.exp(-0.5 * x * x)),
}


def _ziggurat_misses(fam, u, at, state, layers, slow):
    """Finish numpy's ``random_standard_exponential`` /
    ``random_standard_normal`` for the lanes ``at`` whose first output
    ``u`` missed the fast path: a base-layer miss takes the tail, any
    other layer the wedge test on one more double, and a rejected wedge
    draws again from the top.  Returns the standard variates and which
    lanes were decided (the rest fall back)."""
    layer, tail_fn, density = _ZIGGURAT_STEPS[fam]
    f = slow[0]
    z = np.empty(len(u))
    done = np.zeros(len(u), dtype=bool)
    pos = np.arange(len(u))
    while len(pos):
        x, fast, idx, bits = layer(u, *layers)
        z[pos[fast]] = x[fast]
        done[pos[fast]] = True
        miss = ~fast
        pos, at, idx, x, bits = pos[miss], _take(at, miss), idx[miss], x[miss], bits[miss]
        tail = idx == 0
        if tail.any():
            z[pos[tail]] = tail_fn(_take(at, tail), state, bits[tail], slow)
            done[pos[tail]] = True
            wedge = ~tail
            pos, at, idx, x = pos[wedge], _take(at, wedge), idx[wedge], x[wedge]
        if not len(pos):
            break
        accept, reject = _wedge(f, idx, _next_double_at(state, at), density(x))
        z[pos[accept]] = x[accept]
        done[pos[accept]] = True
        pos, at = pos[reject], _take(at, reject)
        u = _next_at(state, at)
    return z, done


def _resolve_misses(d: _VecDist, u, v, acc, state, tables: dict):
    """Finish the ziggurat draws that missed the fast path in lanes:
    fill their values into ``v``, advance their streams in ``state``
    (arrays the caller owns) and return ``acc`` with the decided lanes
    set.  Without verified slow-path constants nothing changes."""
    slow = tables.get(f"{d.family}_slow")
    if slow is None:
        return acc
    at = np.nonzero(~acc)
    if not len(at[0]):
        return acc
    z, done = _ziggurat_misses(d.family, u[at], at, state, tables[d.family], slow)
    at = _take(at, done)
    v[at] = _finish(d, z[done])
    acc[at] = True
    return acc


def _eval_group(steps, keys, tables: dict, tile: int = 1):
    """Replay one group's draw program lane-parallel.

    ``keys`` are the lanes' initial stream states ``(hi, lo, inc_hi,
    inc_lo)``, shape (R, n_lane); they are not modified.  ``steps`` are
    ``("const", row)`` — no stream consumption — or ``("draw", _VecDist,
    factor_row | None, k)``: ``k`` zero-clamped draws summed left to
    right (interval-scaled OS edges), else one clamped draw times its
    factor (nbytes for δ_t terms).  Per-lane rows repeat ``tile`` times
    along the lane axis (template instances).  A ziggurat draw that
    misses its fast path finishes in lanes (:func:`_resolve_misses`),
    advancing only those lanes' streams.  Returns ``(V, ok)``: the
    unscaled deltas, accumulated in ``PerturbationSpec.sample``'s
    order, and the lanes whose every draw was decided in lanes (None =
    all of them).
    """
    hi, lo, ihi, ilo = keys
    V = np.zeros(hi.shape, dtype=np.float64)
    ok = None
    buf = None  # the buffered high half while PCG64's uint32 buffer is full
    for step in steps:
        if step[0] == "const":
            V += np.tile(step[1], tile)
            continue
        _, dist, fac, k = step
        total = V if k == 1 else np.zeros_like(V)
        for _ in range(k):
            if dist.u32 and buf is not None:
                u, buf = buf, None
            else:
                hi, lo, u = _pcg_next64(hi, lo, ihi, ilo)  # fresh: misses advance in place
                if dist.u32:
                    buf = u >> _U64(32)
                    u &= _M32
            v, acc = _eval_dist(dist, u, tables)
            if acc is not None and dist.family in _ZIGGURAT_STEPS:
                acc = _resolve_misses(dist, u, v, acc, (hi, lo, ihi, ilo), tables)
            np.maximum(v, 0.0, out=v)
            if fac is not None:
                v *= np.tile(fac, tile)
            total += v
            if acc is not None:
                ok = acc if ok is None else ok & acc
        if k != 1:
            V += total
    return V, ok


# ---------------------------------------------------------------------------
# Runtime ziggurat-table harvesting + backend self-check
# ---------------------------------------------------------------------------

_TABLES: dict | None = None
_TABLE_KEYS = (
    "pcg", "uniform", "exp", "norm", "exp_slow", "norm_slow", "emp", "emp_interp", "multi"
)
_ZIGGURAT = ("exp", "norm", "exp_slow", "norm_slow")  # what table files hold
# Per ziggurat family: payload bits, the standard variate and the
# ``Generator`` method that draws it.
_PAYLOAD_BITS = {"exp": 53, "norm": 52}
_STANDARD = {
    "exp": (_VecDist("exp", 1.0), "standard_exponential"),
    "norm": (_VecDist("norm", 0.0, 1.0), "standard_normal"),
}


def _predecessor(u0: int) -> int:
    """The PCG64 state (increment 1) whose next raw output is ``u0``:
    the LCG inverse of the post-step state ``(hi=0, lo=u0)``."""
    return ((u0 - 1) * _PCG_INV_MULT) & _MASK128


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

    def set_lane(self, states, i: int) -> None:
        """Install lane ``i`` of ``states = (hi, lo, inc_hi, inc_lo)``."""
        hi, lo, ihi, ilo = (int(a[i]) for a in states)
        self.set_state((hi << 64) | lo, (ihi << 64) | ilo)

    def probe(self, u0: int, draw, maxn: int = 4) -> tuple[float, int]:
        """Make the next raw output exactly ``u0``, call ``draw()``, and
        count how many raw draws it consumed."""
        s_pre = _predecessor(u0)
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


def _derive_slow(fam: str, w: np.ndarray) -> tuple:
    """Slow-path constants from the layer widths ``w``: the layer edges
    ``x = w * 2**payload_bits``, the density there ``f`` (``exp(-x)``,
    or ``exp(-x*x/2)`` for the normal) with ``f[0] = 1``, and the tail
    start ``r = x[255]`` (and ``1 / r`` for the normal)."""
    x = w * float(1 << _PAYLOAD_BITS[fam])
    f = np.exp(-x) if fam == "exp" else np.exp(-0.5 * x * x)
    f[0] = 1.0
    r = float(x[255])
    return (f, r) if fam == "exp" else (f, r, 1.0 / r)


def _random_streams(n: int, seed: int):
    """``n`` spec-style stream states ``(hi, lo, inc_hi, inc_lo)`` for
    self-checks."""
    rng = np.random.default_rng(seed)
    k, s1, s2, s3 = (rng.integers(0, 1 << 64, size=n, dtype=_U64) for _ in range(4))
    inc_hi = (s2 << _U64(1)) | (s3 >> _U64(63))
    inc_lo = (s3 << _U64(1)) | _U64(1)
    return k, s1, inc_hi, inc_lo


def _forced_streams(fam: str, layers, seed: int):
    """Stream states whose first output misses ``fam``'s fast path: four
    in every layer that can miss and 64 in the base layer (its tail),
    with random payloads at or above the layer's ``k`` and random
    don't-care bits."""
    w, k = layers
    top = 1 << _PAYLOAD_BITS[fam]
    layer = np.nonzero(k < _U64(top))[0]
    layer = np.repeat(layer, np.where(layer == 0, 64, 4)).astype(_U64)
    rng = np.random.default_rng(seed)
    pay = rng.integers(k[layer].astype(np.int64), top).astype(_U64)
    spare = rng.integers(0, 8, size=len(layer)).astype(_U64)
    if fam == "exp":  # idx = (u >> 3) & 0xFF, payload = u >> 11
        u = (pay << _U64(11)) | (layer << _U64(3)) | spare
    else:  # idx = u & 0xFF, sign = bit 8, rabs = bits 9..60
        sign = rng.integers(0, 2, size=len(layer)).astype(_U64)
        u = (spare << _U64(61)) | (pay << _U64(9)) | (sign << _U64(8)) | layer
    pre = [_predecessor(x) for x in u.tolist()]
    hi = np.array([s >> 64 for s in pre], dtype=_U64)
    lo = np.array([s & _MASK64 for s in pre], dtype=_U64)
    return hi, lo, np.zeros_like(hi), np.ones_like(hi)


def _check_family(prober: _Prober, states, vec_values, accept, scalar_draw) -> bool:
    """Verify vectorized accepted-lane values against scalar draws."""
    n = len(vec_values)
    idx = np.nonzero(accept)[0] if accept is not None else np.arange(n)
    if accept is not None and len(idx) < n // 2:
        return False  # implausible accept rate: layout assumption broken
    for i in idx:
        prober.set_lane(states, i)
        if scalar_draw(prober.gen) != vec_values[i]:
            return False
    return True


def _check_slow(prober: _Prober, fam: str, tables: dict, seed: int) -> bool:
    """Verify the in-lane slow path on forced misses: every decided
    lane's value, and its stream's next raw output, must equal what the
    real ``Generator`` returns; nearly every lane must be decided."""
    states = _forced_streams(fam, tables[fam], seed)
    hi, lo, ihi, ilo = (a[None, :] for a in states)
    hi, lo, u = _pcg_next64(hi, lo, ihi, ilo)
    dist, method = _STANDARD[fam]
    v, acc = _eval_dist(dist, u, tables)
    acc = _resolve_misses(dist, u, v, acc, (hi, lo, ihi, ilo), tables)
    _, _, after = _pcg_next64(hi, lo, ihi, ilo)
    decided = np.nonzero(acc[0])[0]
    if len(decided) < 0.99 * len(hi[0]):
        return False
    draw = getattr(prober.gen, method)
    for i in decided.tolist():
        prober.set_lane(states, i)
        if draw() != v[0, i] or int(prober.bg.random_raw()) != int(after[0, i]):
            return False
    return True


def _check_program(prober: _Prober, states, tables: dict, program, lanes: int) -> bool:
    """Verify the group evaluator on one draw program against scalar draws.

    ``program`` is a list of ``(RandomVariable, k)`` steps; the first
    ``lanes`` self-check streams are replayed through
    :func:`_eval_group` under ``tables`` and every accepted lane must
    equal the scalar value, summed the way ``PerturbationSpec.sample``
    sums its terms.  An implausible accept rate fails the check too.
    """
    steps = []
    for dist, k in program:
        vd = _classify(dist, tables)
        if not isinstance(vd, _VecDist):
            return False
        steps.append(("draw", vd, None, k))
    V, ok = _eval_group(steps, tuple(a[None, :lanes] for a in states), tables)
    idx = np.arange(lanes) if ok is None else np.nonzero(ok[0])[0]
    if len(idx) < lanes // 2:
        return False  # implausible accept rate: layout assumption broken
    sigs = [MachineSignature(os_noise=dist, os_quantum=1.0) for dist, _ in program]
    for i in idx.tolist():
        prober.set_lane(states, i)
        value = 0.0
        for sig, (_, k) in zip(sigs, program):
            value += sig.sample_os_interval(prober.gen, 0, float(k))
        if value != V[0, i]:
            return False
    return True


def _check_samples(seed: int, n: int, interpolate: bool = False) -> Empirical:
    """A self-check Empirical: ``n`` distinct heavy-tailed samples."""
    return Empirical(np.random.default_rng(seed).pareto(2.0, n) * 100.0, interpolate)


def _check_bootstrap(prober: _Prober, states, tables: dict) -> bool:
    """Bootstrap Empirical draws, at sizes that are not powers of two:
    a fresh output's low half, the buffered high half, and the buffer
    surviving a 64-bit draw in between."""
    trial = dict(tables, emp=True)
    a, b = _check_samples(1, 1000), _check_samples(2, 3)
    programs = [[(a, 1)], [(a, 1), (b, 1), (a, 1)]]
    if tables["exp"] is not None:
        programs.append([(a, 1), (Exponential(50.0), 1), (b, 1)])
    return all(_check_program(prober, states, trial, p, 64) for p in programs)


def _check_interpolated(prober: _Prober, states, tables: dict) -> bool:
    """Interpolated Empirical draws: the quantile at a uniform double."""
    trial = dict(tables, emp_interp=True)
    return _check_program(prober, states, trial, [(_check_samples(3, 1000, True), 1)], 32)


def _check_multi_draw(prober: _Prober, states, tables: dict) -> bool:
    """Interval-scaled OS draws: ``k = 2..7`` clamped draws summed."""
    dist = Exponential(50.0) if tables["exp"] is not None else Uniform(0.0, 50.0)
    return all(
        _check_program(prober, states, tables, [(dist, k)], 32)
        for k in range(2, _MAX_OS_DRAWS + 1)
    )


def _build_tables(candidates: dict | None = None) -> dict:
    """Harvest + verify the vectorized sampling backend (once per process).

    Returns ``{"pcg": bool, "uniform": bool, "exp": (we, ke) | None,
    "norm": (wi, ki) | None, "exp_slow": (fe, r) | None, "norm_slow":
    (fi, r, 1/r) | None, "emp": bool, "emp_interp": bool, "multi":
    bool}``.  Any check that fails simply disables its family or
    feature — affected lanes take the exact scalar fallback.  A failed
    slow-path check disables only the slow path: ziggurat misses then
    fall back, the fast path stays.

    ``candidates`` optionally supplies ziggurat tables from a table
    file (the on-disk cache or the copy shipped with the package).
    Candidates run through the *same* scalar-draw verification as a
    fresh harvest, so a stale or corrupted file can never change
    results — it just falls through to the runtime harvest.
    """
    out: dict = dict.fromkeys(_TABLE_KEYS, False)
    for key in _ZIGGURAT:
        out[key] = None
    candidates = candidates or {}
    prober = _Prober()
    states = _random_streams(512, 0xC0FFEE)

    # 1. Raw-stream check: vectorized LCG vs BitGenerator.random_raw.
    hi, lo, u0 = _pcg_next64(*states)
    _, _, u1 = _pcg_next64(hi, lo, *states[2:])
    for i in range(0, 512, 31):
        prober.set_lane(states, i)
        raw = prober.bg.random_raw(2)
        if int(raw[0]) != int(u0[i]) or int(raw[1]) != int(u1[i]):
            return out
    out["pcg"] = True

    # 2. Uniform double: out = (u >> 11) * 2^-53.
    vals, _ = _eval_dist(_VecDist("uniform", -2.5, 7.0), u0, {})
    out["uniform"] = _check_family(prober, states, vals, None, lambda g: g.uniform(-2.5, 4.5))

    # 3. Exponential ziggurat: idx = (u >> 3) & 0xFF, payload = u >> 11.
    # 4. Normal ziggurat: idx = u & 0xFF, sign = bit 8, rabs = 52 bits above.
    # Then each one's slow path, on forced misses.
    outputs = {
        "exp": lambda idx, pay: ((pay << 8) | idx) << 3,
        "norm": lambda idx, rabs: (rabs << 9) | idx,
    }
    for fam, output in outputs.items():
        dist, method = _STANDARD[fam]
        draw = getattr(prober.gen, method)

        def check(layers) -> bool:
            v, acc = _eval_dist(dist, u0, {fam: layers})
            return _check_family(prober, states, v, acc, lambda g: draw())

        cand = candidates.get(fam)
        if cand is not None and check(cand):
            out[fam] = cand
            obs.add("compiled.tables_cache.hits")
        else:
            cand = None
            with contextlib.suppress(RuntimeError):  # layer harvest gives up on odd builds
                layers = _harvest_layers(
                    lambda idx, pay: prober.probe(output(idx, pay), draw), _PAYLOAD_BITS[fam]
                )
                if check(layers):
                    out[fam] = layers
        if out[fam] is None:
            continue
        slow = f"{fam}_slow"
        tries = [candidates.get(slow)] if cand is not None else []
        tries.append(_derive_slow(fam, out[fam][0]))
        out[slow] = next(
            (c for c in tries if c is not None
             and _check_slow(prober, fam, {fam: out[fam], slow: c}, 0x5EED)),
            None,
        )

    # 5. Measured (§5 empirical) signatures and interval-scaled OS draws.
    out["emp"] = _check_bootstrap(prober, states, out)
    out["emp_interp"] = _check_interpolated(prober, states, out)
    out["multi"] = _check_multi_draw(prober, states, out)
    return out


# -- table files: a per-user on-disk cache (skips the harvest on a numpy
# without a shipped copy) and the copy shipped for one numpy version; the
# contents of either are re-verified on every load ---------------------------

TABLES_CACHE_ENV = "REPRO_TABLES_CACHE"
_TABLES_CACHE_SCHEMA = "repro-ziggurat-tables/2"


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


def _shipped_tables_path() -> Path:
    """The table file shipped with the package for this numpy version
    (absent for versions nobody harvested on).  To ship one for the
    installed numpy, run ``python -c "from repro.core import sampler as
    s; s._store_tables(s._shipped_tables_path(), s._build_tables())"``
    and list nothing else: ``core/ziggurat-np*.json`` is package data.
    """
    return Path(__file__).with_name(f"ziggurat-np{np.__version__}.json")


def _load_table_candidates(path: Path) -> dict | None:
    """Parse a table file; None when it is missing, written for another
    numpy or of another layout (then the harvest runs — verification
    guards against value problems)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if (
        not isinstance(doc, dict)
        or doc.get("schema") != _TABLES_CACHE_SCHEMA
        or doc.get("numpy") != np.__version__
    ):
        return None
    out: dict = {}
    for fam in ("exp", "norm"):
        ent = doc.get(fam)
        out[fam] = out[f"{fam}_slow"] = None
        if ent is None:
            continue
        try:
            w = np.asarray(ent["w"], dtype=np.float64)
            kk = np.asarray(ent["k"], dtype=np.uint64)
            slow = ent["slow"]
            if slow is not None:
                f = np.asarray(slow["f"], dtype=np.float64)
                r = float(slow["r"])
                slow = (f, r) if fam == "exp" else (f, r, float(slow["inv_r"]))
        except (KeyError, TypeError, ValueError, OverflowError):
            return None
        if w.shape != (256,) or kk.shape != (256,) or (slow is not None and f.shape != (256,)):
            return None
        out[fam] = (w, kk)
        out[f"{fam}_slow"] = slow
    return out


def _tables_doc(tables: dict) -> dict:
    """The table-file document for verified ``tables``."""
    doc: dict = {"schema": _TABLES_CACHE_SCHEMA, "numpy": np.__version__}
    for fam in ("exp", "norm"):
        ent, slow = tables[fam], tables[f"{fam}_slow"]
        if ent is None:
            doc[fam] = None
            continue
        if slow is not None:
            slow = dict(zip(("f", "r", "inv_r"), slow))
            slow["f"] = slow["f"].tolist()
        doc[fam] = {"w": ent[0].tolist(), "k": [int(x) for x in ent[1].tolist()], "slow": slow}
    return doc


def _store_tables(path: Path, tables: dict) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(_tables_doc(tables), sort_keys=True) + "\n")
        obs.add("compiled.tables_cache.writes")
    except OSError:  # unwritable cache dir: never fatal
        pass


def _same_entry(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def _tables_match_candidates(tables: dict, candidates: dict | None) -> bool:
    return candidates is not None and all(
        _same_entry(tables[key], candidates.get(key)) for key in _ZIGGURAT
    )


def _get_tables() -> dict:
    global _TABLES
    if _TABLES is None:
        path = _tables_cache_path()
        candidates = _load_table_candidates(path) if path is not None else None
        if candidates is None:
            candidates = _load_table_candidates(_shipped_tables_path())
        with obs.span("compiled.harvest_tables", cached=candidates is not None):
            _TABLES = _build_tables(candidates)
        if (
            path is not None
            and (_TABLES["exp"] is not None or _TABLES["norm"] is not None)
            and not _tables_match_candidates(_TABLES, candidates)
        ):
            _store_tables(path, _TABLES)
    return _TABLES


def _adopt_tables(tables) -> None:
    """Install tables verified by another process (a plan's pickle), so
    pool workers skip the harvest; tables of another layout are ignored."""
    global _TABLES
    if _TABLES is None and isinstance(tables, dict) and set(tables) == set(_TABLE_KEYS):
        _TABLES = tables


# ---------------------------------------------------------------------------
# Draw programs (per-edge sampling recipes)
# ---------------------------------------------------------------------------


def _edge_program(
    sig: MachineSignature, delta: DeltaSpec, weight: float, classify, max_draws: int
):
    """The ordered ``(term, classified dist, draws)`` recipe replaying
    ``spec.sample`` for one edge: :func:`~repro.core.perturb.draw_steps`
    with each distribution classified, or None when a step's family is
    unsupported or it needs more than ``max_draws`` draws."""
    steps = []
    for term, dist, k in draw_steps(sig, delta, weight):
        d = classify(dist)
        if d is None or (k > max_draws and not isinstance(d, _ConstDist)):
            return None
        steps.append((term, d, k))
    return steps


def _group_steps(program: list, nbytes: np.ndarray) -> list:
    """The steps :func:`_eval_group` runs for the edges sharing
    ``program``: the δ_t term's factor is each edge's ``nbytes``, every
    other term's is 1.0."""
    steps: list = []
    for term, dist, k in program:
        factors = nbytes.astype(np.float64) if term == "bytes" else np.ones(len(nbytes))
        if isinstance(dist, _ConstDist):
            steps.append(("const", const_term(dist.value, k) * factors))
        else:
            fac = None if np.all(factors == 1.0) else factors
            steps.append(("draw", dist, fac, k))
    return steps


# Sampled kinds whose os term takes ``os_draws(weight)`` draws.
_OS_SPAN_KINDS = [int(kind) for kind, recipe in DRAW_RECIPES.items() if recipe.os_span]


class _Sampler:
    """What the flat and template samplers share: the signature's
    classified distributions, the group evaluator run, and the scalar
    fallback loop."""

    def __init__(self, plan, signature: MachineSignature):
        self.plan = plan
        self.signature = signature
        self.tables = _get_tables()
        self.max_draws = _MAX_OS_DRAWS if self.tables["multi"] else 1
        self._classified: dict = {}

    def classify(self, dist):
        key = id(dist)
        if key not in self._classified:
            self._classified[key] = _classify_cached(dist, self.tables)
        return self._classified[key]

    def program_groups(self, eids: np.ndarray) -> tuple[list, np.ndarray]:
        """The draw programs of edges ``eids``, grouped by shape (the
        ``(is δ_t, dist, draws)`` sequence): ``([(positions, steps)], positions
        without a program)``, positions into ``eids`` in ascending
        order, groups in first-seen order.

        A program depends only on the edge's delta key ``(kind, rank,
        src, dst, nbytes > 0, rounds, os draws, has uid)``; nbytes is
        only the δ_t term's factor.  One sort groups equal keys, each
        key's first edge is expanded and classified, and its edges get
        their factor columns by array ops.  Uid-less edges get no
        program, so the fallback defers to the scalar engine and its
        error is identical; nor do edges whose program needs an
        unsupported family or more than ``max_draws`` draws.
        """
        plan = self.plan
        with obs.span("compiled.bind", edges=len(eids)):
            kind = plan.edge_kind[eids]
            draws = np.ones(len(eids), dtype=np.int64)
            span = np.isin(kind, _OS_SPAN_KINDS)
            draws[span] = self.signature.os_draw_counts(plan.edge_weight[eids[span]])
            nbytes = plan.edge_nbytes[eids]
            has_uid = plan.uid_len[eids] > 0
            key = np.stack(
                [
                    kind,
                    plan.delta_rank[eids],
                    plan.delta_src[eids],
                    plan.delta_dst[eids],
                    nbytes > 0,
                    plan.delta_rounds[eids],
                    draws,
                    has_uid,
                ]
            )
            order = np.lexsort(key)  # stable: a key's edges stay in eids order
            new = np.ones(len(eids), dtype=bool)
            new[1:] = (np.diff(key[:, order], axis=1) != 0).any(axis=0)
            key_of = np.empty(len(eids), dtype=np.int64)
            key_of[order] = np.cumsum(new) - 1
            first = np.sort(order[new])  # each key's first edge, in eids order
            group_of_key = np.full(len(first), -1, dtype=np.int64)
            programs: dict[tuple, tuple[int, list]] = {}
            reps = eids[first]
            for i, delta, w in zip(
                first.tolist(), plan.deltas.take(reps), plan.edge_weight[reps].tolist()
            ):
                if not has_uid[i]:
                    continue
                prog = _edge_program(self.signature, delta, w, self.classify, self.max_draws)
                if prog is not None:
                    # The δ_t step is in the shape: it alone takes the
                    # nbytes factor, and its distribution may equal another
                    # term's (``[lat, os]`` vs ``[lat, bytes]``).
                    shape = tuple((term == "bytes", d, k) for term, d, k in prog)
                    g, _ = programs.setdefault(shape, (len(programs), prog))
                    group_of_key[key_of[i]] = g
            obs.span_add("compiled.bind_programs", int(has_uid[first].sum()))
            group = group_of_key[key_of]
            by_group = np.argsort(group, kind="stable")
            counts = np.bincount(group + 1, minlength=len(programs) + 1)
            unsup, *members = np.split(by_group, np.cumsum(counts)[:-1])
            return [
                (at, _group_steps(prog, nbytes[at]))
                for at, (_, prog) in zip(members, programs.values())
            ], unsup

    def _resample(self, raw, scale, rows, eids, cols, states) -> int:
        """Exact per-lane fallback: ``raw[r, c]`` := the scalar spec's
        draws for edge ``e`` from the lane's initial stream ``states``
        (``(hi, lo, inc_hi, inc_lo)`` per lane), for each ``(r, e, c)``."""
        plan = self.plan
        spec = PerturbationSpec(self.signature, scale=scale)
        edges = np.unique(eids)
        delta_of = dict(zip(edges.tolist(), plan.deltas.take(edges)))
        weight_of = dict(zip(edges.tolist(), plan.edge_weight[edges].tolist()))
        for r, e, c, hi, lo, ihi, ilo in zip(
            rows.tolist(), eids.tolist(), cols.tolist(), *(a.tolist() for a in states)
        ):
            rng = spec._seeded((hi << 64) | lo, (ihi << 64) | ilo)
            raw[r, c] = spec._sample_from(rng, delta_of[e], weight_of[e])
        return len(rows)

    def _resample_all(self, raw, seeds, scale, eids, cols) -> int:
        """Scalar-sample edges ``eids`` (no vector program) into columns
        ``cols`` for every row: each lane's stream is keyed in lanes
        (:func:`_stream_key_arrays`) and drawn by :meth:`_resample`."""
        plan = self.plan
        unkeyed = eids[plan.uid_len[eids] == 0]
        if len(unkeyed):  # the scalar spec's own error for a uid-less edge
            PerturbationSpec(self.signature, seed=seeds[0], scale=scale).sample(
                plan.deltas[int(unkeyed[0])]
            )
        keys = _stream_key_arrays(
            _seeds_u64(seeds), plan.uid_kind[eids], plan.uid_mat[eids], plan.uid_len[eids]
        )
        R, n = len(seeds), len(eids)
        rows = np.repeat(np.arange(R), n)
        lanes = np.tile(np.arange(n), R)
        states = [a.reshape(-1) for a in keys]
        return self._resample(raw, scale, rows, eids[lanes], cols[lanes], states)

    def _sample_group(self, raw, scale, steps, keys, eids, cols, tile=1) -> int:
        """Evaluate one group into ``raw[:, cols]``; lanes that left the
        vector path are resampled by the scalar spec from their stream
        keys.  Returns their count."""
        V, ok = _eval_group(steps, keys, self.tables, tile)
        raw[:, cols] = V * scale
        if ok is None or ok.all():
            return 0
        at = np.nonzero(~ok)
        rows, lanes = at
        return self._resample(raw, scale, rows, eids[lanes], cols[lanes], [a[at] for a in keys])


def _seeds_u64(seeds: list[int]) -> np.ndarray:
    return np.array([s & _MASK64 for s in seeds], dtype=_U64)


class _BoundSampler(_Sampler):
    """A CompiledPlan's sampler bound to one machine signature.

    With ``edge_ids=None`` it covers the full edge axis (output width
    ``n_edges``); with an explicit edge-id subset its output columns
    follow that subset's order (the coarse engine samples the static
    region this way).
    """

    def __init__(self, plan, signature: MachineSignature, edge_ids: np.ndarray | None = None):
        super().__init__(plan, signature)
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

        groups, unsup = self.program_groups(cand)
        self.unsup_ids, self.unsup_cols = cand[unsup], cand_cols[unsup]
        sup = np.ones(len(cand), dtype=bool)
        sup[unsup] = False
        lane_of = np.cumsum(sup) - 1  # candidate position -> lane
        self.lane_edge_ids, lane_cols = cand[sup], cand_cols[sup]
        ids = self.lane_edge_ids
        self.kind_u64 = plan.uid_kind[ids]
        self.uid_mat = plan.uid_mat[ids]
        self.uid_len = plan.uid_len[ids]
        # (lane positions, edge ids, output columns, steps) per group
        self.groups = [
            (lane_of[at], cand[at], cand_cols[at], steps) for at, steps in groups
        ]

    def sample_raw(self, seeds: list[int], scale: float) -> np.ndarray:
        """(R, out_width) matrix of per-edge deltas, row r drawn exactly
        as ``PerturbationSpec(signature, seed=seeds[r], scale=scale)``
        would for each covered edge."""
        R = len(seeds)
        raw = np.zeros((R, self.out_width), dtype=np.float64)
        fallback = 0
        if len(self.lane_edge_ids):
            keys = _stream_key_arrays(_seeds_u64(seeds), self.kind_u64, self.uid_mat, self.uid_len)
            for lanes, eids, cols, steps in self.groups:
                group_keys = tuple(a[:, lanes] for a in keys)
                fallback += self._sample_group(raw, scale, steps, group_keys, eids, cols)
        if len(self.unsup_ids):
            fallback += self._resample_all(raw, seeds, scale, self.unsup_ids, self.unsup_cols)
        obs.span_add("compiled.lanes", R * self.out_width)
        if fallback:
            obs.span_add("compiled.fallback_lanes", fallback)
        return raw


class _TemplateSampler(_Sampler):
    """Shared per-template draw programs, sampled per instance chunk.

    Phase congruence guarantees every templated instance's edge at
    template position ``q`` has the same delta kind / endpoints /
    nbytes / rounds — hence the same draw program — while uids (and so
    PCG streams) differ per repetition.  Programs therefore classify
    **once** from the reference instance; sampling gathers each
    instance chunk's per-edge uid rows and runs the shared program over
    one ``(R, n_inst * n_lanes)`` lane block through the same group
    evaluator and fallback as :class:`_BoundSampler`.

    Only valid when programs are weight-independent, i.e.
    ``signature.os_quantum <= 0`` (the caller gates on this).
    """

    def __init__(self, plan, signature: MachineSignature, ir):
        super().__init__(plan, signature)
        self.ir = ir
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
        positions = np.nonzero(sampled_cols)[0] if self.ok else np.zeros(0, dtype=np.int64)
        groups, unsup = self.program_groups(ref[positions])
        self.groups = [(positions[at], steps) for at, steps in groups]
        self.unsup_pos = positions[unsup]

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
        seeds_u64 = _seeds_u64(seeds)
        base = np.arange(ni, dtype=np.int64)[:, None] * n_te
        fallback = 0
        for tpos, steps in self.groups:
            gids = rows[:, tpos].reshape(-1)  # instance-major lane order
            keys = _stream_key_arrays(
                seeds_u64, plan.uid_kind[gids], plan.uid_mat[gids], plan.uid_len[gids]
            )
            cols = (base + tpos[None, :]).reshape(-1)
            fallback += self._sample_group(raw, scale, steps, keys, gids, cols, tile=ni)
        if len(self.unsup_pos):
            eids = rows[:, self.unsup_pos].reshape(-1)
            cols = (base + self.unsup_pos[None, :]).reshape(-1)
            fallback += self._resample_all(raw, seeds, scale, eids, cols)
        obs.span_add("compiled.lanes", R * ni * n_te)
        if fallback:
            obs.span_add("compiled.fallback_lanes", fallback)
        return raw
