"""The diagnosis engine and the MPG2xx rule pack: report shape,
severity policy, threshold gating, and the JSON/text renderings."""

from __future__ import annotations

import pytest

from repro.core import build_graph
from repro.diagnose import (
    DiagnoseConfig,
    diagnose_build,
    diagnosis_to_dict,
    render_diagnosis_text,
)
from repro.lint import LintConfig, Severity, all_rules
from repro.lint.report import render_sarif
from repro.testing import slow_rank_memory
from repro.trace.events import EventKind
from tests.lint.helpers import ev, memory_trace

SLOW_FACTOR = 25.0


def finding_ids(report):
    return [f.rule_id for f in report.findings]


def diagnose(trace, config=None, signature=None):
    """Traces in, report out: the graph build, then the diagnosis."""
    return diagnose_build(build_graph(trace), config, signature=signature, trace_set=trace)


class TestConfigValidation:
    def test_defaults_valid(self):
        DiagnoseConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"z_threshold": -1.0},
            {"mode": "bogus"},
            {"replicates": -1},
            {"z_threshold": 0.0},
            {"rel_excess": 0.5},
            {"bottleneck_rank_share": 0.0},
            {"bottleneck_rank_share": 1.5},
            {"serialization_margin": 0.0},
            {"bottleneck_primitive_share": 2.0},
            {"imbalance_ratio": 0.5},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            DiagnoseConfig(**kw)


class TestRulePack:
    def test_catalog_registered(self):
        rules = all_rules("diagnosis")
        assert [r.id for r in rules] == [
            "MPG200", "MPG201", "MPG202", "MPG210", "MPG211", "MPG212",
        ]
        assert all(r.category == "diagnosis" for r in rules)

    def test_summary_always_emitted(self, ring_trace):
        report = diagnose(ring_trace)
        assert "MPG200" in finding_ids(report)
        assert report.graph_checked
        assert report.rules_run == tuple(r.id for r in all_rules("diagnosis"))

    def test_clean_symmetric_run_has_no_warnings(self, ring_trace, stencil_trace):
        for trace in (ring_trace, stencil_trace):
            report = diagnose(trace)
            assert report.warnings == [], finding_ids(report)
            assert report.errors == []

    def test_slow_rank_fires_mpg210_naming_culprit(self, ring_trace):
        report = diagnose(slow_rank_memory(ring_trace, 2, SLOW_FACTOR))
        hits = [f for f in report.findings if f.rule_id == "MPG210"]
        assert hits and hits[0].rank == 2
        assert len(report.warnings) >= 1
        assert "rank 2" in hits[0].message

    def test_mpg201_fires_on_serialized_run(self):
        """One long chain + one short chain: the whole path sits on the
        long rank and the runner-up trails far behind."""
        trace = memory_trace(
            [ev(0, 0, EventKind.INIT, 0.0, 1.0), ev(0, 1, EventKind.FINALIZE, 99.0, 100.0)],
            [ev(1, 0, EventKind.INIT, 0.0, 1.0), ev(1, 1, EventKind.FINALIZE, 9.0, 10.0)],
        )
        report = diagnose(trace)
        assert "MPG201" in finding_ids(report)
        hit = next(f for f in report.findings if f.rule_id == "MPG201")
        assert hit.rank == 0 and hit.severity == Severity.WARNING

    def test_mpg201_spares_balanced_ties(self, ring_trace):
        """A symmetric app whose path merely *stays* on one rank must
        not be called serialized (the runner-up margin gate)."""
        report = diagnose(ring_trace)
        assert "MPG201" not in finding_ids(report)

    def test_disable_and_severity_override(self, ring_trace):
        config = DiagnoseConfig(
            lint=LintConfig(
                disabled=("MPG202",), severity_overrides={"MPG200": Severity.WARNING}
            )
        )
        report = diagnose(ring_trace, config)
        ids = finding_ids(report)
        assert "MPG202" not in ids
        summary = next(f for f in report.findings if f.rule_id == "MPG200")
        assert summary.severity == Severity.WARNING

    def test_replicate_metric_via_pipeline(self, ring_trace, const_signature):
        config = DiagnoseConfig(replicates=4, seed=7)
        report = diagnose(ring_trace, config, signature=const_signature)
        assert report.replicates == 4
        assert "replicate-delay" in report.anomalies.metrics

    def test_replicates_without_signature_rejected(self, ring_trace):
        with pytest.raises(ValueError, match="machine signature"):
            diagnose(ring_trace, DiagnoseConfig(replicates=2))


class TestReportArtifacts:
    def test_report_carries_structured_artifacts(self, ring_trace):
        build = build_graph(ring_trace)
        report = diagnose_build(build)
        assert report.critical_path is not None
        assert report.attribution is not None
        assert report.attribution.makespan == report.critical_path.total_cost
        assert len(report.anomalies.profiles) == build.graph.nprocs

    def test_json_document_schema(self, ring_trace):
        doc = diagnosis_to_dict(diagnose(ring_trace))
        assert doc["schema"] == "repro-diagnosis-report/1"
        diag = doc["diagnosis"]
        assert set(diag) == {"critical_path", "attribution", "anomalies", "replicates"}
        assert diag["critical_path"]["engine"] == "compiled"

    def test_text_rendering(self, ring_trace):
        report = diagnose(ring_trace)
        out = render_diagnosis_text(report, verbose=True)
        assert "critical path:" in out
        assert "top path edges:" in out
        assert "MPG200" in out

    def test_sarif_rendering_reuses_lint_reporter(self, ring_trace):
        import json

        doc = json.loads(render_sarif(diagnose(ring_trace)))
        ids = {r["ruleId"] for r in doc["runs"][0]["results"]}
        assert "MPG200" in ids

    def test_findings_sorted_severity_first(self, ring_trace):
        report = diagnose(slow_rank_memory(ring_trace, 1, SLOW_FACTOR))
        sevs = [int(f.severity) for f in report.findings]
        assert sevs == sorted(sevs, reverse=True)

    def test_engine_choice_does_not_change_findings(self, monkeypatch):
        """Findings (replicate-delay metric included) are identical
        whether the automatic compiled plan is coarse or flat."""
        from repro.apps import ALL_APPS
        from repro.core import compiled
        from repro.mpisim import run
        from repro.noise import Exponential, MachineSignature

        factory, params = ALL_APPS["token_ring"]
        trace = run(factory(params(traversals=8)), nprocs=4, seed=1).trace
        sig = MachineSignature(os_noise=Exponential(80.0))
        findings = []
        for threshold, coarse in ((10**12, False), (0, True)):
            monkeypatch.setattr(compiled, "AUTO_MIN_NODES", threshold)
            build = build_graph(trace)
            rep = diagnose_build(build, DiagnoseConfig(replicates=4), signature=sig)
            assert (compiled.compiled_plan(build).coarse is not None) == coarse
            findings.append([(f.rule_id, f.rank, f.message) for f in rep.findings])
        assert findings[0] == findings[1]
