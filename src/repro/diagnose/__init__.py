"""Automated bottleneck & faulty-rank diagnosis.

The paper's premise is that slowdown questions are answerable by
traversing the message-passing graph; this package automates the
traversal so nobody has to answer "why is this run slow" by hand from
``rank_influence`` numbers.  Following the fault-localization line of
work (Okita et al., arXiv:cs/0310015) and the case for fully automated
MPI analysis pipelines (Aljahdali et al., arXiv:1311.0864), it turns
"which rank/edge is the bottleneck" into a deterministic,
machine-checkable artifact:

* :mod:`repro.diagnose.path` — critical-path extraction (longest
  weighted path with predecessor tracking, computed by the compiled
  plan and bit-identical to the scalar reference oracle);
* :mod:`repro.diagnose.attribution` — decompose the end-to-end
  makespan into per-rank / per-primitive / per-edge contributions
  along that path;
* :mod:`repro.diagnose.anomaly` — anomalous-rank detection comparing
  each rank's subgraph timings against its role peers (robust z-score
  over compute and communication totals, plus Monte-Carlo replicate
  delays when requested);
* :mod:`repro.diagnose.rules` — the MPG2xx diagnosis rule pack,
  reported through the existing :mod:`repro.lint` text / JSON / SARIF
  reporters so CI can gate on findings.

The entry point is :func:`~repro.diagnose.engine.diagnose_build`, over
a built :class:`~repro.core.builder.BuildResult` — for instance the
build :func:`repro.lint.open_run` hands over once the traces passed
their check.
"""

from repro.diagnose.anomaly import (
    AnomalyReport,
    RankAnomaly,
    RankProfile,
    detect_anomalies,
    profile_ranks,
)
from repro.diagnose.attribution import Attribution, attribute_path, classify_edge
from repro.diagnose.engine import (
    DiagnoseConfig,
    DiagnoseContext,
    DiagnosisReport,
    diagnose_build,
    diagnosis_to_dict,
    render_diagnosis_text,
)
from repro.diagnose.path import CriticalPathExtract, extract_critical_path

__all__ = [
    "CriticalPathExtract",
    "extract_critical_path",
    "Attribution",
    "attribute_path",
    "classify_edge",
    "RankProfile",
    "RankAnomaly",
    "AnomalyReport",
    "profile_ranks",
    "detect_anomalies",
    "DiagnoseConfig",
    "DiagnoseContext",
    "DiagnosisReport",
    "diagnose_build",
    "diagnosis_to_dict",
    "render_diagnosis_text",
]
