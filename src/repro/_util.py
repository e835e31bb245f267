"""Shared small utilities used across the :mod:`repro` packages.

Nothing in this module is specific to the paper; it collects the
seed-handling, validation and identifier helpers that every subsystem
needs so that they behave identically everywhere.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "as_rng",
    "spawn_rng",
    "atomic_write_text",
    "check_nonnegative",
    "check_positive",
    "check_rank",
    "ilog2_ceil",
    "pairwise",
    "chunked",
    "format_cycles",
]


# Temp-name uniquifier for the atomic writer.  The pid alone is not
# enough once one process has concurrent writers (a multi-threaded
# daemon): two threads sharing a temp name could interleave write →
# replace and lose one write or raise on a vanished temp file.  next()
# on an itertools.count is atomic under the GIL, so pid + sequence
# gives every in-flight write its own temp file.
_TMP_SEQ = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    Readers never observe a truncated file: a crash mid-write leaves
    either the previous version (or nothing, for a new file) plus a
    stray ``*.tmp.<pid>.<seq>`` — never a half-written artifact.  Every
    artifact writer in the package (obs exporters, benchmark results,
    checkpoint shards, signatures) goes through this.  Concurrent
    writers to the same path (threads or processes) are safe:
    last-writer-wins, and a reader sees one complete version or none.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{next(_TMP_SEQ)}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    return path


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer seed,
    or ``None`` (fresh OS entropy).  Centralising this keeps seeding
    semantics uniform across the simulator, the perturbation engine and
    the microbenchmarks.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` independent child generators from ``rng``.

    Used to give each simulated rank / each edge-class sampler its own
    stream so that adding ranks does not shift the random numbers seen
    by existing ranks.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def check_nonnegative(name: str, value: float) -> float:
    """Validate ``value >= 0`` (and finite), returning it."""
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    """Validate ``value > 0`` (and finite), returning it."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


def check_rank(rank: int, nprocs: int) -> int:
    """Validate a rank index against a communicator size."""
    if not 0 <= rank < nprocs:
        raise ValueError(f"rank {rank} out of range for {nprocs} processes")
    return rank


def ilog2_ceil(n: int) -> int:
    """Smallest ``k`` with ``2**k >= n`` (``n >= 1``).

    The paper's approximate collective model samples noise
    ``ceil(log2 p)`` times per rank; this is that exponent.
    """
    if n < 1:
        raise ValueError(f"ilog2_ceil requires n >= 1, got {n}")
    return (n - 1).bit_length()


def pairwise(seq: Iterable) -> Iterator[tuple]:
    """Yield consecutive pairs ``(s0, s1), (s1, s2), ...``."""
    a, b = itertools.tee(seq)
    next(b, None)
    return zip(a, b)


def chunked(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Yield successive slices of ``seq`` of at most ``size`` items."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def format_cycles(cycles: float) -> str:
    """Human-readable cycle count (``1.25e6`` -> ``'1.25 Mcy'``)."""
    if cycles == 0:
        return "0 cy"
    for scale, unit in ((1e9, "Gcy"), (1e6, "Mcy"), (1e3, "kcy")):
        if abs(cycles) >= scale:
            return f"{cycles / scale:.2f} {unit}"
    return f"{cycles:.0f} cy"
