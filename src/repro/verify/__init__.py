"""Static verification: certified bounds and match-nondeterminism.

Two sampling-free analyses over a built message-passing graph:

* :mod:`repro.verify.bounds` — interval abstract interpretation of the
  perturbation model through the compiled level schedule, yielding a
  certified ``[lo, hi]`` makespan enclosure every Monte-Carlo replicate
  provably falls inside (:mod:`repro.verify.intervals` supplies the
  per-distribution support intervals and the finite-support policy for
  unbounded families).
* :mod:`repro.verify.matches` — happens-before analysis of wildcard
  receive matching: alternative matchings (match-order races) and
  would-block chains under reordered matches (deadlock potential).

Both surface through the MPG3xx rule pack (:mod:`repro.verify.rules`)
on the shared lint reporting stack; :func:`verify_build` is the entry
point, ``repro-verify`` the CLI.
"""

from repro.verify.bounds import (
    EdgeIntervals,
    MakespanBounds,
    edge_intervals,
    makespan_bounds,
)
from repro.verify.engine import (
    VerifyConfig,
    VerifyContext,
    VerifyReport,
    render_verify_text,
    verify_build,
    verify_to_dict,
)
from repro.verify.intervals import DEFAULT_QUANTILE, Interval, support_interval
from repro.verify.matches import (
    DeadlockChain,
    MatchAnalysis,
    MatchRace,
    analyze_matches,
)

__all__ = [
    "DEFAULT_QUANTILE",
    "DeadlockChain",
    "EdgeIntervals",
    "Interval",
    "MakespanBounds",
    "MatchAnalysis",
    "MatchRace",
    "VerifyConfig",
    "VerifyContext",
    "VerifyReport",
    "analyze_matches",
    "edge_intervals",
    "makespan_bounds",
    "render_verify_text",
    "support_interval",
    "verify_build",
    "verify_to_dict",
]
