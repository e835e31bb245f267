"""Machine signatures: the parameter bundle handed to the analyzer.

Section 5: "Each parallel platform has a signature that is defined by
the set of metrics determined by various microbenchmarks, and this
signature is provided to the analysis tools, along with an application
trace, to estimate the behavior of the program on the new platform."

A :class:`MachineSignature` collects, as random variables:

``os_noise``
    per-local-edge OS interference δ_os (per-rank overrides supported);
``latency``
    per-message-edge latency perturbation δ_λ (per-link overrides);
``per_byte``
    the data-proportional perturbation rate: δ_t(d) = d · per_byte draw.

Everything is seed-stable and JSON round-trippable so a signature can be
measured once (``repro-microbench``) and replayed across experiments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro._util import atomic_write_text
from repro.noise.distributions import RandomVariable, ZERO
from repro.noise.serialize import from_jsonable, to_jsonable

__all__ = ["MachineSignature"]


def _link_key(src: int, dst: int) -> str:
    return f"{src}->{dst}"


@dataclass(frozen=True)
class MachineSignature:
    """Distributional description of a platform (§5).

    Parameters
    ----------
    os_noise:
        Default δ_os distribution applied to local edges.
    latency:
        Default δ_λ distribution applied to message edges.
    per_byte:
        Distribution of the per-byte perturbation rate; the sampled
        bandwidth delta for a ``d``-byte transfer is ``d * draw``.
    os_noise_by_rank:
        Optional per-rank overrides of ``os_noise``.
    latency_by_link:
        Optional per-directed-link ``(src, dst)`` overrides of ``latency``.
    name:
        Human-readable platform label (shows up in experiment history).
    os_quantum:
        Measurement quantum of ``os_noise`` in cycles (e.g. the FTQ
        quantum, §5.1).  0 (default) means the distribution is applied
        once per local edge regardless of the edge's length — the
        paper's model.  When positive, the analyzer draws one sample per
        quantum of *observed* edge duration, so long compute phases
        accumulate proportionally more interference (the
        interval-scaled extension ablated in ABL3; see DESIGN.md §4).
    """

    os_noise: RandomVariable = ZERO
    latency: RandomVariable = ZERO
    per_byte: RandomVariable = ZERO
    os_noise_by_rank: Mapping[int, RandomVariable] = field(default_factory=dict)
    latency_by_link: Mapping[tuple[int, int], RandomVariable] = field(default_factory=dict)
    name: str = "unnamed"
    os_quantum: float = 0.0

    # -- lookups ---------------------------------------------------------------
    def os_noise_for(self, rank: int) -> RandomVariable:
        """δ_os distribution for a specific rank."""
        return self.os_noise_by_rank.get(rank, self.os_noise)

    def latency_for(self, src: int, dst: int) -> RandomVariable:
        """δ_λ distribution for the directed link ``src -> dst``."""
        return self.latency_by_link.get((src, dst), self.latency)

    # -- sampling helpers used by the perturbation engine -----------------------
    def sample_os(self, rng: np.random.Generator, rank: int) -> float:
        return max(self.os_noise_for(rank).sample(rng), 0.0)

    def sample_latency(self, rng: np.random.Generator, src: int, dst: int) -> float:
        return max(self.latency_for(src, dst).sample(rng), 0.0)

    def sample_transfer(self, rng: np.random.Generator, nbytes: int) -> float:
        """δ_t(d): data-size-proportional perturbation for ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return max(self.per_byte.sample(rng), 0.0) * nbytes

    def os_draws(self, interval: float) -> int:
        """Number of δ_os samples for a local edge of ``interval`` cycles:
        1 in the paper's per-edge model, one per measurement quantum in
        the interval-scaled extension (see ``os_quantum``)."""
        if self.os_quantum <= 0.0 or interval <= 0.0:
            return 1
        return max(1, math.ceil(interval / self.os_quantum))

    def os_draw_counts(self, intervals: np.ndarray) -> np.ndarray:
        """:meth:`os_draws` of every interval in an array (int64), called
        once per distinct interval."""
        intervals = np.asarray(intervals, dtype=np.float64)
        # os_draws never decreases with the interval: one draw at the
        # longest edge means one draw everywhere.
        if not len(intervals) or self.os_draws(float(intervals.max())) == 1:
            return np.ones(len(intervals), dtype=np.int64)
        uw, inv = np.unique(intervals, return_inverse=True)
        return np.array([self.os_draws(w) for w in uw.tolist()], dtype=np.int64)[inv]

    def sample_os_interval(
        self, rng: np.random.Generator, rank: int, interval: float
    ) -> float:
        """δ_os for a local edge spanning ``interval`` observed cycles."""
        k = self.os_draws(interval)
        if k == 1:
            return self.sample_os(rng, rank)
        draws = self.os_noise_for(rank).sample_n(rng, k)
        return float(np.sum(np.maximum(draws, 0.0)))

    # -- derived signatures ------------------------------------------------------
    def scaled(self, factor: float, name: str | None = None) -> "MachineSignature":
        """Signature with every distribution scaled by ``factor``.

        The sweep harness (§6's "varying degrees of noise") is built on
        this: one measured signature, a ladder of scale factors.
        """
        return MachineSignature(
            os_noise=self.os_noise.scaled(factor),
            latency=self.latency.scaled(factor),
            per_byte=self.per_byte.scaled(factor),
            os_noise_by_rank={r: v.scaled(factor) for r, v in self.os_noise_by_rank.items()},
            latency_by_link={k: v.scaled(factor) for k, v in self.latency_by_link.items()},
            name=name or f"{self.name} x{factor:g}",
            os_quantum=self.os_quantum,
        )

    def quiet(self) -> "MachineSignature":
        """The zero-perturbation version of this signature."""
        return MachineSignature(name=f"{self.name} (quiet)")

    # -- serialization -------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "os_quantum": self.os_quantum,
            "os_noise": to_jsonable(self.os_noise),
            "latency": to_jsonable(self.latency),
            "per_byte": to_jsonable(self.per_byte),
            "os_noise_by_rank": {str(r): to_jsonable(v) for r, v in self.os_noise_by_rank.items()},
            "latency_by_link": {
                _link_key(s, t): to_jsonable(v) for (s, t), v in self.latency_by_link.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineSignature":
        by_rank = {int(r): from_jsonable(v) for r, v in data.get("os_noise_by_rank", {}).items()}
        by_link = {}
        for key, v in data.get("latency_by_link", {}).items():
            src, dst = key.split("->")
            by_link[(int(src), int(dst))] = from_jsonable(v)
        return cls(
            os_noise=from_jsonable(data["os_noise"]),
            latency=from_jsonable(data["latency"]),
            per_byte=from_jsonable(data["per_byte"]),
            os_noise_by_rank=by_rank,
            latency_by_link=by_link,
            name=data.get("name", "unnamed"),
            os_quantum=data.get("os_quantum", 0.0),
        )

    def save(self, path: str | Path) -> None:
        atomic_write_text(path, json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "MachineSignature":
        return cls.from_dict(json.loads(Path(path).read_text()))
