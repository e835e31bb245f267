"""Trace substrate: event model, codecs, buffered writers, streaming readers.

Implements the paper's §4 tracing layer (minus the C/PMPI part, which is
replaced by :mod:`repro.mpisim.tracing` — see DESIGN.md §2).  Checking
that a trace set describes a correctly completed run is the job of the
trace-level lint rules (:func:`repro.lint.lint_traces`, MPG0xx), which
every analysis CLI runs before it builds a graph.
"""

from repro.trace.events import (
    COLLECTIVE_KINDS,
    COMPLETION_KINDS,
    EventKind,
    EventRecord,
    LOCAL_KINDS,
    NONBLOCKING_KINDS,
    PAIRWISE_KINDS,
    ROOTED_COLLECTIVES,
    TraceMeta,
)
from repro.trace.reader import MemoryTrace, TraceReader, TraceSet, find_trace_files
from repro.trace.writer import TraceSetWriter, TraceWriter, rank_filename

__all__ = [
    "COLLECTIVE_KINDS",
    "COMPLETION_KINDS",
    "EventKind",
    "EventRecord",
    "LOCAL_KINDS",
    "NONBLOCKING_KINDS",
    "PAIRWISE_KINDS",
    "ROOTED_COLLECTIVES",
    "TraceMeta",
    "MemoryTrace",
    "TraceReader",
    "TraceSet",
    "find_trace_files",
    "TraceSetWriter",
    "TraceWriter",
    "rank_filename",
]
