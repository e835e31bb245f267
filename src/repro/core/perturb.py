"""Perturbation sampling for graph edges (§5, §6).

A :class:`PerturbationSpec` binds a machine signature (the distributions
measured by microbenchmarks) to the edge-delta classes of the graph
(:class:`repro.core.graph.DeltaKind`) and samples concrete δ values.

Sampling is **deterministic per edge identity**: every edge carries a
``uid`` (assigned by the subgraph templates) and its delta is drawn from
``default_rng((seed, kind, *uid))``.  Two consequences:

* the in-core traversal and the windowed streaming traversal sample the
  *same* value for the same edge regardless of visit order, so their
  results are bit-for-bit identical (the ABL2 experiment's invariant);
* re-running an analysis with the same seed reproduces it exactly, which
  the experiment history (§7 future work) relies on.

``scale`` multiplies every sampled delta — the "varying degrees of
noise" ladders of §6 are driven by one measured signature plus a scale
sweep.  Negative scales model the paper's future-work question of
*reduced* noise (§7); the traversal clamps effective edge weights at
zero to preserve ordering (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.graph import DeltaKind, DeltaSpec
from repro.noise.signature import MachineSignature

__all__ = ["PerturbationSpec"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1


def _splitmix64(x: int) -> int:
    """One splitmix64 step — a well-mixed 64-bit permutation."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix(ints) -> int:
    """Stable 64-bit hash of an int tuple (the edge-identity key)."""
    h = 0x811C9DC5
    for v in ints:
        h = _splitmix64(h ^ (v & _MASK64))
    return h


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling policy: signature + seed + global scale.

    Parameters
    ----------
    signature:
        The platform's distributions (δ_os, δ_λ, per-byte δ_t).
    seed:
        Base seed for deterministic per-edge draws.
    scale:
        Multiplier applied to every sampled delta (may be negative for
        speedup exploration; see module docstring).
    """

    signature: MachineSignature
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        # One reusable PCG64 whose state is re-keyed per edge: profiling
        # showed SeedSequence construction dominating the whole traversal,
        # and direct 128-bit state injection is ~3x cheaper while keeping
        # the properties that matter — per-uid determinism and stream
        # independence.  The shared bit generator makes a spec NOT thread-
        # safe; every engine here is single-threaded.
        bg = np.random.PCG64(0)
        template = bg.state
        object.__setattr__(self, "_bg", bg)
        object.__setattr__(self, "_template", template)
        object.__setattr__(self, "_gen", np.random.Generator(bg))
        # Every edge key starts with _mix's (seed, kind) prefix: hash it
        # once per kind.
        object.__setattr__(self, "_prefix", {})

    def _rng(self, delta: DeltaSpec) -> np.random.Generator:
        uid = delta.uid
        if not uid:
            raise ValueError(f"DeltaSpec {delta} has no uid; cannot sample deterministically")
        kind = int(delta.kind)
        k = self._prefix.get(kind)
        if k is None:
            k = self._prefix[kind] = _mix((self.seed, kind))
        for v in uid:  # continues _mix((seed, kind, *uid))
            k = _splitmix64(k ^ (v & _MASK64))
        s1 = _splitmix64(k)
        s2 = _splitmix64(s1)
        s3 = _splitmix64(s2)
        inc = ((((s2 << 64) | s3) << 1) | 1) & _MASK128  # odd, 128-bit
        return self._seeded((k << 64) | s1, inc)

    def _seeded(self, state: int, inc: int) -> np.random.Generator:
        """The shared generator, re-keyed to the 128-bit PCG64 ``state``
        and increment ``inc`` with an empty uint32 buffer."""
        st = dict(self._template)
        st["state"] = {"state": state, "inc": inc}
        st["has_uint32"] = 0
        st["uinteger"] = 0
        self._bg.state = st
        return self._gen

    def sample(self, delta: DeltaSpec, weight: float = 0.0) -> float:
        """Draw the δ for one edge (0.0 for ``DeltaKind.NONE``).

        ``weight`` is the edge's observed duration; it matters only for
        OS edges under the interval-scaled extension (one draw per
        ``signature.os_quantum`` of duration, DESIGN.md §4) and is
        ignored in the paper's per-edge model.
        """
        if delta.kind == DeltaKind.NONE:
            return 0.0
        return self._sample_from(self._rng(delta), delta, weight)

    def _sample_from(
        self, rng: np.random.Generator, delta: DeltaSpec, weight: float = 0.0
    ) -> float:
        """:meth:`sample`'s draws for a sampled edge, taken from ``rng``
        as positioned (the compiled sampler passes a lane's stream)."""
        kind = delta.kind
        sig = self.signature
        if kind == DeltaKind.OS:
            value = sig.sample_os_interval(rng, delta.rank, weight)
        elif kind == DeltaKind.LATENCY:
            value = sig.sample_latency(rng, delta.src, delta.dst)
        elif kind == DeltaKind.TRANSFER:
            value = sig.sample_latency(rng, delta.src, delta.dst) + sig.sample_transfer(
                rng, delta.nbytes
            )
        elif kind == DeltaKind.TRANSFER_OS:
            # Fig. 2 data path: δ_λ1 + δ_t(d) + δ_os2 (Eq. 1, second line).
            value = (
                sig.sample_latency(rng, delta.src, delta.dst)
                + sig.sample_transfer(rng, delta.nbytes)
                + sig.sample_os(rng, delta.rank)
            )
        elif kind == DeltaKind.ROUNDTRIP:
            # Rendezvous completion against a posted nonblocking receive:
            # λ(src→dst) + δ_t(d) + δ_os(dst) + λ(dst→src).
            value = (
                sig.sample_latency(rng, delta.src, delta.dst)
                + sig.sample_transfer(rng, delta.nbytes)
                + sig.sample_os(rng, delta.rank)
                + sig.sample_latency(rng, delta.dst, delta.src)
            )
        elif kind == DeltaKind.COLL_FANIN:
            # Fig. 4's l_δ: `rounds` independent (δ_os + δ_λ [+ δ_t]) samples.
            value = 0.0
            for _ in range(delta.rounds):
                value += sig.sample_os(rng, delta.rank)
                value += sig.sample_latency(rng, delta.src, delta.dst)
                if delta.nbytes:
                    value += sig.sample_transfer(rng, delta.nbytes)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown delta kind {kind!r}")
        return value * self.scale

    def scaled(self, scale: float) -> "PerturbationSpec":
        """Same signature/seed with a different global scale (sweeps)."""
        return PerturbationSpec(self.signature, self.seed, scale)

    def expected(self, delta: DeltaSpec, weight: float = 0.0) -> float:
        """Analytic expectation of the edge's delta (for model checks)."""
        kind = delta.kind
        sig = self.signature
        if kind == DeltaKind.NONE:
            return 0.0
        if kind == DeltaKind.OS:
            base = sig.os_noise_for(delta.rank).mean() * sig.os_draws(weight)
        elif kind == DeltaKind.LATENCY:
            base = sig.latency_for(delta.src, delta.dst).mean()
        elif kind == DeltaKind.TRANSFER:
            base = sig.latency_for(delta.src, delta.dst).mean() + sig.per_byte.mean() * delta.nbytes
        elif kind == DeltaKind.TRANSFER_OS:
            base = (
                sig.latency_for(delta.src, delta.dst).mean()
                + sig.per_byte.mean() * delta.nbytes
                + sig.os_noise_for(delta.rank).mean()
            )
        elif kind == DeltaKind.ROUNDTRIP:
            base = (
                sig.latency_for(delta.src, delta.dst).mean()
                + sig.per_byte.mean() * delta.nbytes
                + sig.os_noise_for(delta.rank).mean()
                + sig.latency_for(delta.dst, delta.src).mean()
            )
        elif kind == DeltaKind.COLL_FANIN:
            per_round = (
                sig.os_noise_for(delta.rank).mean()
                + sig.latency_for(delta.src, delta.dst).mean()
                + (sig.per_byte.mean() * delta.nbytes if delta.nbytes else 0.0)
            )
            base = per_round * delta.rounds
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown delta kind {kind!r}")
        return base * self.scale
