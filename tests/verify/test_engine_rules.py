"""The verification engine and the MPG3xx rule pack: configuration
validation, rule outcomes on known-verdict builds, severity policy, the
report renderings, and the Monte-Carlo bounds hook."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PerturbationSpec, build_graph, monte_carlo
from repro.core.diagnostics import DiagnosticError
from repro.lint import LintConfig, Severity, all_rules
from repro.lint.report import render_sarif
from repro.mpisim import run
from repro.testing.racegen import NPROCS, deadlock_program, race_program
from repro.verify import (
    VerifyConfig,
    VerifyReport,
    makespan_bounds,
    render_verify_text,
    verify_build,
    verify_to_dict,
)
from repro.core.compiled import compiled_plan


def finding_ids(report):
    return [f.rule_id for f in report.findings]


def verify(trace, config=None, signature=None):
    """Traces in, report out: the graph build, then the verification."""
    return verify_build(build_graph(trace), config, signature=signature, trace_set=trace)


class TestConfigValidation:
    def test_defaults_valid(self):
        VerifyConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"quantile": 0.2},
            {"quantile": 1.0},
            {"mode": "bogus"},
            {"quantile": float("nan")},
            {"quantile": 0.4999},
            {"replicates": -1},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ValueError):
            VerifyConfig(**kw)


class TestRulePack:
    def test_catalog_registered(self):
        rules = all_rules("verify")
        assert [r.id for r in rules] == [
            "MPG300", "MPG301", "MPG302", "MPG303", "MPG310", "MPG311", "MPG312",
        ]
        assert all(r.category == "verify" for r in rules)

    def test_clean_run_with_signature(self, ring_trace, mixed_signature):
        report = verify(ring_trace, signature=mixed_signature)
        assert isinstance(report, VerifyReport)
        assert "MPG300" in finding_ids(report)  # certificate always stated
        assert "MPG301" in finding_ids(report)  # Exponential noise -> q-bounded
        assert report.errors == [] and report.warnings == []
        assert report.rules_run == tuple(r.id for r in all_rules("verify"))

    def test_absolute_certificate_skips_mpg301(self, ring_trace, const_signature):
        report = verify(ring_trace, signature=const_signature)
        assert "MPG300" in finding_ids(report)
        assert "MPG301" not in finding_ids(report)

    def test_no_signature_means_no_bounds_findings(self, ring_trace):
        report = verify(ring_trace)
        assert report.bounds is None
        assert not any(f.rule_id.startswith("MPG30") for f in report.findings)

    def test_containment_pass_fires_mpg302(self, ring_trace, mixed_signature):
        report = verify(
            ring_trace,
            VerifyConfig(replicates=10),
            signature=mixed_signature,
        )
        assert "MPG302" in finding_ids(report)
        assert report.replicates == 10
        assert report.containment_violations == ()

    def test_mpg302_message_names_no_engine(self, ring_trace, mixed_signature):
        report = verify(ring_trace, VerifyConfig(replicates=10), signature=mixed_signature)
        (hit,) = [f for f in report.findings if f.rule_id == "MPG302"]
        assert hit.message == "all 10 Monte-Carlo replicates contained in the certified bounds"

    def test_race_build_fires_mpg311_as_warning(self):
        build = build_graph(run(race_program, nprocs=NPROCS, seed=1).trace)
        report = verify_build(build)
        hits = [f for f in report.findings if f.rule_id == "MPG311"]
        assert len(hits) == 2
        assert all(f.severity == Severity.WARNING for f in hits)
        assert all(f.rank == 0 for f in hits)
        assert "match order" in hits[0].message

    def test_deadlock_build_fires_mpg312(self):
        build = build_graph(run(deadlock_program, nprocs=NPROCS, seed=1).trace)
        report = verify_build(build)
        assert "MPG312" in finding_ids(report)
        hit = next(f for f in report.findings if f.rule_id == "MPG312")
        assert hit.severity == Severity.WARNING
        assert "deadlock" in hit.message

    def test_matches_toggle_off(self):
        build = build_graph(run(race_program, nprocs=NPROCS, seed=1).trace)
        report = verify_build(build, VerifyConfig(matches=False))
        assert report.matches is None
        assert not any(f.rule_id.startswith("MPG31") for f in report.findings)

    def test_replicates_without_signature_rejected(self, ring_trace):
        with pytest.raises(ValueError, match="signature"):
            verify(ring_trace, VerifyConfig(replicates=5))


class TestLintMechanics:
    def test_disable_rule(self, ring_trace, mixed_signature):
        config = VerifyConfig(lint=LintConfig(disabled=("MPG301",)))
        report = verify(ring_trace, config, signature=mixed_signature)
        assert "MPG301" not in finding_ids(report)
        assert "MPG301" not in report.rules_run

    def test_severity_override_promotes_race_to_error(self):
        build = build_graph(run(race_program, nprocs=NPROCS, seed=1).trace)
        config = VerifyConfig(
            lint=LintConfig(severity_overrides={"MPG311": Severity.ERROR})
        )
        report = verify_build(build, config)
        assert report.errors and not report.ok


class TestMonteCarloHook:
    def test_narrowed_bounds_raise_containment_violation(self, ring_trace, mixed_signature):
        """Mutation check end-to-end: monte_carlo(bounds=...) must
        refuse replicates that escape a (deliberately wrong) bound."""
        build = build_graph(ring_trace)
        bounds = makespan_bounds(compiled_plan(build), mixed_signature)
        spec = PerturbationSpec(mixed_signature, seed=3)
        dist = monte_carlo(build, spec, replicates=10)
        narrowed = type(bounds)(
            rank_lo=bounds.rank_lo,
            rank_hi=np.median(dist.samples, axis=0),
            quantile=bounds.quantile,
            q_bounded_edges=bounds.q_bounded_edges,
            sampled_edges=bounds.sampled_edges,
            scale=bounds.scale,
            mode=bounds.mode,
            coarse=bounds.coarse,
        )
        with pytest.raises(DiagnosticError, match="escaped the certified") as exc:
            monte_carlo(build, spec, replicates=10, bounds=narrowed)
        assert exc.value.code == "containment-violation"

    def test_correct_bounds_pass_through(self, ring_trace, mixed_signature):
        build = build_graph(ring_trace)
        bounds = makespan_bounds(compiled_plan(build), mixed_signature)
        spec = PerturbationSpec(mixed_signature, seed=3)
        dist = monte_carlo(build, spec, replicates=10, bounds=bounds)
        assert dist.samples.shape[0] == 10


class TestRenderings:
    def test_text_certificate_and_match_lines(self, ring_trace, mixed_signature):
        report = verify(
            ring_trace, VerifyConfig(replicates=5), signature=mixed_signature
        )
        out = render_verify_text(report)
        assert "certified makespan delay in [" in out
        assert "sound up to q=" in out
        assert "containment cross-check over 5 replicates: all contained" in out
        assert "match analysis:" in out

    def test_verbose_lists_per_rank_intervals(self, ring_trace, mixed_signature):
        report = verify(ring_trace, signature=mixed_signature)
        out = render_verify_text(report, verbose=True)
        assert "rank 0:" in out and "rank 3:" in out

    def test_json_document_schema(self, ring_trace, mixed_signature):
        report = verify(
            ring_trace, VerifyConfig(replicates=5), signature=mixed_signature
        )
        doc = verify_to_dict(report)
        assert doc["schema"] == "repro-verify-report/1"
        v = doc["verification"]
        assert v["bounds"]["makespan_hi"] >= v["bounds"]["makespan_lo"]
        assert v["replicates"] == 5
        assert v["containment_violations"] == []
        # Ring receives use the default ANY_TAG, so they count as
        # (benign) wildcards: 4 ranks x 3 traversals.
        assert v["matches"]["wildcard_receives"] == 12
        assert v["matches"]["races"] == []

    def test_sarif_reuses_lint_reporter(self):
        build = build_graph(run(race_program, nprocs=NPROCS, seed=1).trace)
        report = verify_build(build)
        sarif = render_sarif(report)
        assert '"ruleId": "MPG311"' in sarif or '"MPG311"' in sarif
