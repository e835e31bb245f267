"""CLI tests: ``repro-diagnose``, the ``--diagnose`` tail of
``repro-analyze``, and the ``python -m repro.testing.slowrank``
injection tool — the exact pipeline the CI ``diagnose`` job runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main_analyze, main_diagnose, main_trace
from repro.testing import slowrank

SCHEMA = Path(__file__).parent.parent / "lint" / "sarif-2.1.0-subset.schema.json"


@pytest.fixture(scope="module")
def clean_traces(tmp_path_factory):
    d = tmp_path_factory.mktemp("clean")
    rc = main_trace(
        ["--app", "token_ring", "--nprocs", "4", "--out", str(d),
         "--stem", "ring", "--param", "traversals=2", "--seed", "1"]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def slow_traces(clean_traces, tmp_path_factory):
    """The CI faulty-rank scenario: rank 1 slowed 25x via the module CLI."""
    d = tmp_path_factory.mktemp("slow")
    rc = slowrank.main(
        ["--traces", str(clean_traces), "--stem", "ring",
         "--rank", "1", "--factor", "25", "--out", str(d)]
    )
    assert rc == 0
    return d


class TestReproDiagnose:
    def test_list_rules(self, capsys):
        assert main_diagnose(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("MPG2") == 6
        assert "[anomalous-rank]" in out

    def test_clean_run_exits_zero_even_on_warning_gate(self, clean_traces, capsys):
        rc = main_diagnose(
            ["--traces", str(clean_traces), "--stem", "ring", "--fail-on", "warning"]
        )
        assert rc == 0
        assert "0 warning(s)" in capsys.readouterr().out

    def test_slow_rank_fails_warning_gate_naming_culprit(self, slow_traces, capsys):
        rc = main_diagnose(
            ["--traces", str(slow_traces), "--stem", "ring", "--fail-on", "warning"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "MPG210" in out
        assert "rank 1" in out

    def test_fail_on_never_always_exits_zero(self, slow_traces):
        rc = main_diagnose(
            ["--traces", str(slow_traces), "--stem", "ring", "--fail-on", "never"]
        )
        assert rc == 0

    def test_json_document(self, slow_traces, tmp_path):
        out = tmp_path / "report.json"
        rc = main_diagnose(
            ["--traces", str(slow_traces), "--stem", "ring",
             "--format", "json", "--out", str(out), "--fail-on", "never"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-diagnosis-report/1"
        assert doc["diagnosis"]["anomalies"]["anomalies"][0]["rank"] == 1

    def test_sarif_validates_and_locates_trace_files(self, slow_traces, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        out = tmp_path / "report.sarif"
        rc = main_diagnose(
            ["--traces", str(slow_traces), "--stem", "ring",
             "--format", "sarif", "--out", str(out), "--fail-on", "never"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, json.loads(SCHEMA.read_text()))
        results = doc["runs"][0]["results"]
        assert {"MPG200", "MPG210"} <= {r["ruleId"] for r in results}
        hit = next(r for r in results if r["ruleId"] == "MPG210")
        assert hit["level"] == "warning"
        uri = hit["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert uri.endswith("ring.rank0001.trace.jsonl")

    def test_sarif_bit_identical_across_engines(self, tmp_path, monkeypatch):
        """The acceptance criterion: the SARIF document (replicate-delay
        metric included) is byte-equal whether the automatic compiled
        plan is coarse or flat."""
        from repro.core import compiled
        from repro.diagnose import engine as diagnose_engine

        rc = main_trace(
            ["--app", "token_ring", "--nprocs", "4", "--out", str(tmp_path),
             "--stem", "ring", "--param", "traversals=8", "--seed", "1"]
        )
        assert rc == 0
        plans = []

        def spy(build):
            plans.append(compiled.compiled_plan(build))
            return plans[-1]

        monkeypatch.setattr(diagnose_engine, "compiled_plan", spy)
        docs = []
        for name, threshold in (("flat", 10**12), ("coarse", 0)):
            monkeypatch.setattr(compiled, "AUTO_MIN_NODES", threshold)
            out = tmp_path / f"{name}.sarif"
            rc = main_diagnose(
                ["--traces", str(tmp_path), "--stem", "ring", "--measure", "quiet",
                 "--replicates", "4", "--format", "sarif", "--out", str(out),
                 "--fail-on", "never"]
            )
            assert rc == 0
            docs.append(out.read_bytes())
        assert [p.coarse is None for p in plans] == [True, False]
        assert docs[0] == docs[1]

    def test_threshold_flags_reach_config(self, clean_traces, capsys):
        # an absurdly low imbalance bar makes MPG211 fire on any run
        rc = main_diagnose(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--imbalance-ratio", "1.0", "--fail-on", "never"]
        )
        assert rc == 0
        assert "MPG211" in capsys.readouterr().out

    def test_disable_rule(self, clean_traces, capsys):
        rc = main_diagnose(
            ["--traces", str(clean_traces), "--stem", "ring", "--disable", "MPG202"]
        )
        assert rc == 0
        assert "MPG202" not in capsys.readouterr().out

    def test_missing_traces_is_usage_error(self):
        with pytest.raises(SystemExit):
            main_diagnose([])


class TestAnalyzeDiagnoseFlag:
    def test_analyze_emits_diagnosis(self, clean_traces, tmp_path, capsys):
        out = tmp_path / "diag.json"
        rc = main_analyze(
            ["--traces", str(clean_traces), "--stem", "ring", "--lint", "off",
             "--measure", "quiet", "--replicates", "2",
             "--diagnose", "--diagnose-format", "json", "--diagnose-out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-diagnosis-report/1"

    def test_streaming_engine_refused(self, clean_traces):
        with pytest.raises(SystemExit, match="compiled engine"):
            main_analyze(
                ["--traces", str(clean_traces), "--stem", "ring",
                 "--measure", "quiet", "--engine", "streaming", "--diagnose"]
            )
