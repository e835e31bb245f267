"""The paper's contribution: message-passing graph construction,
perturbation propagation, and sensitivity analysis (§2–§4, §6)."""

from repro.core.analysis import (
    AbsorptionMap,
    CriticalPath,
    DelayPoint,
    RuntimeImpact,
    absorption_map,
    critical_path,
    delay_timeline,
    runtime_impact,
)
from repro.core.builder import BuildResult, build_graph
from repro.core.checkpoint import (
    CheckpointStore,
    ShardKey,
    build_digest,
    resolve_rows,
    signature_digest,
    trace_digest,
)
from repro.core.compiled import CompiledBatch, CompiledPlan, compiled_plan, propagate
from repro.core.correctness import CorrectnessReport, check_correctness
from repro.core.diagnostics import AnalysisWarning, DiagnosticError
from repro.core.dot import to_dot
from repro.core.graph import (
    DeltaKind,
    DeltaSpec,
    Edge,
    EdgeKind,
    MessagePassingGraph,
    Node,
    Phase,
)
from repro.core.history import ExperimentHistory, ExperimentRecord
from repro.core.influence import InfluenceMatrix, rank_influence
from repro.core.matching import CollectiveGroup, MatchError, MatchResult, match_events
from repro.core.montecarlo import DelayDistribution, monte_carlo
from repro.core.parallel import (
    ChunkTimeoutError,
    ExecutionBackend,
    FaultPolicy,
    ProcessPoolBackend,
    SerialBackend,
    available_cpus,
    map_replicate_batches,
    replicate_items,
    resolve_backend,
)
from repro.core.perturb import PerturbationSpec
from repro.core.primitives import BuildConfig
from repro.core.sweep import SweepPoint, SweepResult, fit_slope, sweep_scales, sweep_signatures
from repro.core.traversal import StreamingTraversal, TraversalResult, propagate_absolute
from repro.core.window import WindowedGraph, extract_window

__all__ = [
    "AbsorptionMap",
    "AnalysisWarning",
    "DiagnosticError",
    "CriticalPath",
    "RuntimeImpact",
    "absorption_map",
    "critical_path",
    "delay_timeline",
    "DelayPoint",
    "runtime_impact",
    "InfluenceMatrix",
    "rank_influence",
    "DelayDistribution",
    "monte_carlo",
    "BuildResult",
    "build_graph",
    "CompiledBatch",
    "CompiledPlan",
    "compiled_plan",
    "CorrectnessReport",
    "check_correctness",
    "to_dot",
    "DeltaKind",
    "DeltaSpec",
    "Edge",
    "EdgeKind",
    "MessagePassingGraph",
    "Node",
    "Phase",
    "ExperimentHistory",
    "ExperimentRecord",
    "CollectiveGroup",
    "MatchError",
    "MatchResult",
    "match_events",
    "PerturbationSpec",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "FaultPolicy",
    "ChunkTimeoutError",
    "available_cpus",
    "resolve_backend",
    "map_replicate_batches",
    "replicate_items",
    "CheckpointStore",
    "ShardKey",
    "build_digest",
    "signature_digest",
    "trace_digest",
    "resolve_rows",
    "BuildConfig",
    "SweepPoint",
    "SweepResult",
    "fit_slope",
    "sweep_scales",
    "sweep_signatures",
    "WindowedGraph",
    "extract_window",
    "StreamingTraversal",
    "TraversalResult",
    "propagate",
    "propagate_absolute",
]
