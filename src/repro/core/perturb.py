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
from typing import NamedTuple

import numpy as np

from repro.core.graph import DeltaKind, DeltaSpec
from repro.noise.distributions import RandomVariable
from repro.noise.signature import MachineSignature

__all__ = ["DRAW_RECIPES", "DrawRecipe", "PerturbationSpec", "const_term", "draw_steps"]

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


class DrawRecipe(NamedTuple):
    """The draws one delta kind sums, in draw order.

    Each term is one clamped draw: ``"os"`` the edge rank's δ_os,
    ``"lat"`` δ_λ src→dst, ``"back"`` δ_λ dst→src, ``"bytes"`` the
    per-byte δ_t draw times nbytes (no draw when nbytes <= 0).
    ``per_round`` repeats the terms ``delta.rounds`` times;
    ``os_span`` gives the os term ``os_draws(weight)`` draws.
    """

    terms: tuple[str, ...]
    per_round: bool = False
    os_span: bool = False


# The one statement of which draws each sampled kind sums and in what
# order: the vectorized sampler's programs and the certified bounds
# both read it; ``_sample_from`` spells it out by hand as the reference
# they are tested against.
DRAW_RECIPES: dict[DeltaKind, DrawRecipe] = {
    DeltaKind.OS: DrawRecipe(("os",), os_span=True),
    DeltaKind.LATENCY: DrawRecipe(("lat",)),
    DeltaKind.TRANSFER: DrawRecipe(("lat", "bytes")),
    # Fig. 2 data path: δ_λ1 + δ_t(d) + δ_os2 (Eq. 1, second line).
    DeltaKind.TRANSFER_OS: DrawRecipe(("lat", "bytes", "os")),
    # Rendezvous completion against a posted nonblocking receive.
    DeltaKind.ROUNDTRIP: DrawRecipe(("lat", "bytes", "os", "back")),
    # Fig. 4's l_δ: `rounds` independent (δ_os + δ_λ [+ δ_t]) samples.
    DeltaKind.COLL_FANIN: DrawRecipe(("os", "lat", "bytes"), per_round=True),
}


def draw_steps(
    sig: MachineSignature, delta: DeltaSpec, weight: float = 0.0
) -> list[tuple[str, RandomVariable, int]]:
    """A sampled edge's recipe expanded to ``(term, distribution,
    draws)`` steps in draw order: ``draws`` clamped draws summed, and a
    ``"bytes"`` step's one draw times ``delta.nbytes``."""
    recipe = DRAW_RECIPES[delta.kind]
    steps = []
    for term in recipe.terms:
        if term == "os":
            k = sig.os_draws(weight) if recipe.os_span else 1
            steps.append((term, sig.os_noise_for(delta.rank), k))
        elif term == "lat":
            steps.append((term, sig.latency_for(delta.src, delta.dst), 1))
        elif term == "back":
            steps.append((term, sig.latency_for(delta.dst, delta.src), 1))
        elif delta.nbytes > 0:  # "bytes"
            steps.append((term, sig.per_byte, 1))
    return steps * delta.rounds if recipe.per_round else steps


def const_term(value: float, k: int) -> float:
    """``k`` clamped draws that all equal ``value``, summed exactly as
    ``MachineSignature.sample_os_interval`` sums ``k`` draws."""
    if k == 1:
        return max(value, 0.0)
    return float(np.sum(np.maximum(np.full(k, value), 0.0)))


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
