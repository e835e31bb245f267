"""Deterministic test harnesses for the analyzer itself.

:mod:`repro.testing.faults` is the fault-injection harness that proves
the execution backends' retry / timeout / restart / resume paths (used
by ``tests/`` and the CI chaos job); :mod:`repro.testing.slowrank`
manufactures known-culprit traces for the diagnosis layer (used by
``tests/diagnose`` and the CI diagnose job); :mod:`repro.testing.
racegen` manufactures known-verdict wildcard-matching scenarios for the
static verifier (used by ``tests/verify`` and the CI verify job);
:mod:`repro.testing.oracle` is the object-graph reference propagation
every engine is tested against (and ``monte_carlo(engine="graph")``
runs).
"""

from typing import Any

from repro.testing.faults import (
    FAULT_EXIT_CODE,
    FailItem,
    FaultyFn,
    KillWorker,
    SlowItem,
    corrupt_checkpoints,
    item_key,
)

_SLOWRANK_EXPORTS = frozenset({"slow_rank", "slow_rank_memory", "stretch_events"})
_RACEGEN_EXPORTS = frozenset({"SCENARIOS", "write_scenario"})


def __getattr__(name: str) -> Any:
    # Lazy so `python -m repro.testing.<module>` does not pre-import the
    # module it is about to execute (runpy warns on that).
    if name in _SLOWRANK_EXPORTS:
        from repro.testing import slowrank

        return getattr(slowrank, name)
    if name in _RACEGEN_EXPORTS:
        from repro.testing import racegen

        return getattr(racegen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FAULT_EXIT_CODE",
    "FailItem",
    "FaultyFn",
    "KillWorker",
    "SCENARIOS",
    "SlowItem",
    "corrupt_checkpoints",
    "item_key",
    "slow_rank",
    "slow_rank_memory",
    "stretch_events",
    "write_scenario",
]
