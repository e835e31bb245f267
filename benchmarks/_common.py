"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's artifacts (figure,
experiment, or a DESIGN.md ablation) and records its rows/series under
``benchmarks/results/<name>.txt`` (human-readable, quoted by
EXPERIMENTS.md) plus ``benchmarks/results/<name>.json`` (machine-
readable: name, params, timings, metrics — consumed by CI artifact
uploads); the pytest-benchmark fixture times the
analyzer operation under study.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro._util import atomic_write_text

RESULTS_DIR = Path(__file__).parent / "results"

RESULT_SCHEMA = "repro-bench-result/1"


def _jsonable(value):
    """Coerce numpy scalars/arrays and other odd types for json.dump."""
    if hasattr(value, "item") and not hasattr(value, "__len__"):
        return value.item()
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (set, frozenset, tuple)):
        return sorted(value) if isinstance(value, (set, frozenset)) else list(value)
    return str(value)


def emit(
    name: str,
    text: str,
    *,
    params: dict | None = None,
    timings: dict | None = None,
    metrics: dict | None = None,
) -> Path:
    """Write an experiment's rows to the results directory (and stdout).

    Alongside the text artifact, every call records a structured
    ``<name>.json`` with the benchmark's parameters, wall-clock timings
    (seconds unless the key says otherwise), and result metrics.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    atomic_write_text(path, text if text.endswith("\n") else text + "\n")
    record = {
        "schema": RESULT_SCHEMA,
        "name": name,
        "params": params or {},
        "timings": timings or {},
        "metrics": metrics or {},
    }
    atomic_write_text(
        RESULTS_DIR / f"{name}.json",
        json.dumps(record, indent=2, sort_keys=True, default=_jsonable) + "\n",
    )
    print(f"\n===== {name} =====\n{text}")
    return path


def bench_timings(benchmark) -> dict:
    """Wall-clock stats from a pytest-benchmark fixture, for ``emit``.

    Returns an empty dict when the fixture has not run yet or
    benchmarking is disabled (``--benchmark-disable``).
    """
    meta = getattr(benchmark, "stats", None)
    stats = getattr(meta, "stats", meta)
    if stats is None:
        return {}
    try:
        return {
            "mean_s": stats.mean,
            "min_s": stats.min,
            "max_s": stats.max,
            "rounds": stats.rounds,
        }
    except AttributeError:
        return {}


def table(headers: list[str], rows: list[list], widths: list[int] | None = None) -> str:
    """Fixed-width text table."""
    widths = widths or [max(len(str(h)), 12) for h in headers]
    fmt = " ".join(f"{{:>{w}}}" for w in widths)
    lines = [fmt.format(*headers)]
    for row in rows:
        lines.append(fmt.format(*[_fmt(v) for v in row]))
    return "\n".join(lines)


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        return f"{v:.3g}"
    return str(v)
