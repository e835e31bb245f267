"""Experiment history (§7 future work, implemented).

"The second area of work is to provide a mechanism to provide a richer
set of parameters to the simulation, and maintain a history of analysis
experiments that are performed using our tools."

:class:`ExperimentHistory` is a small append-only JSON registry: each
record stores the experiment name, the *complete* parameterization
(machine signature, seed, scale, mode, build config — everything needed
to reproduce the run exactly, thanks to deterministic sampling) and the
resulting per-rank delays.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.core.perturb import PerturbationSpec
from repro.core.primitives import BuildConfig
from repro.core.traversal import TraversalResult
from repro.noise.signature import MachineSignature

__all__ = ["ExperimentRecord", "ExperimentHistory"]


@dataclass(frozen=True)
class ExperimentRecord:
    """One stored analysis experiment."""

    name: str
    timestamp: float
    params: dict
    delays: tuple
    mode: str
    warnings: tuple

    @property
    def max_delay(self) -> float:
        return max(self.delays) if self.delays else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "timestamp": self.timestamp,
            "params": self.params,
            "delays": list(self.delays),
            "mode": self.mode,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentRecord":
        return cls(
            name=data["name"],
            timestamp=data["timestamp"],
            params=data["params"],
            delays=tuple(data["delays"]),
            mode=data["mode"],
            warnings=tuple(data.get("warnings", ())),
        )


class ExperimentHistory:
    """Append-only JSONL store of analysis experiments."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def record(
        self,
        name: str,
        spec: PerturbationSpec,
        result: TraversalResult,
        config: BuildConfig | None = None,
        extra: dict | None = None,
    ) -> ExperimentRecord:
        """Store one experiment; returns the stored record."""
        params = {
            "signature": spec.signature.to_dict(),
            "seed": spec.seed,
            "scale": spec.scale,
        }
        if config is not None:
            params["build_config"] = {
                "collective_mode": config.collective_mode,
                "eager_threshold": config.eager_threshold,
                "absolute_weights": config.absolute_weights,
            }
        if extra:
            params["extra"] = extra
        rec = ExperimentRecord(
            name=name,
            timestamp=time.time(),
            params=params,
            delays=tuple(result.final_delay),
            mode=result.mode,
            warnings=tuple(result.warnings),
        )
        with open(self.path, "a") as fh:
            fh.write(json.dumps(rec.to_dict()) + "\n")
        return rec

    def __iter__(self) -> Iterator[ExperimentRecord]:
        if not self.path.exists():
            return
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield ExperimentRecord.from_dict(json.loads(line))

    def find(self, name: str) -> list[ExperimentRecord]:
        """All records with the given experiment name, oldest first."""
        return [rec for rec in self if rec.name == name]

    def latest(self, name: str) -> ExperimentRecord | None:
        records = self.find(name)
        return records[-1] if records else None

    def replay_spec(self, rec: ExperimentRecord) -> PerturbationSpec:
        """Reconstruct the exact sampling spec of a stored experiment."""
        return PerturbationSpec(
            MachineSignature.from_dict(rec.params["signature"]),
            seed=rec.params["seed"],
            scale=rec.params["scale"],
        )

    def __len__(self) -> int:
        return sum(1 for _ in self)
