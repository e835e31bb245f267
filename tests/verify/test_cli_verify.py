"""CLI tests: ``repro-verify``, the ``--verify`` pre-flight of
``repro-analyze``, and the ``python -m repro.testing.racegen`` fixture
tool — the exact pipeline the CI ``verify`` job runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import main_analyze, main_microbench, main_trace, main_verify
from repro.testing import racegen


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
def signature(tmp_path_factory):
    sig = tmp_path_factory.mktemp("sig") / "sig.json"
    rc = main_microbench(["--machine", "noisy", "--out", str(sig), "--seed", "0"])
    assert rc == 0
    return sig


@pytest.fixture(scope="module")
def race_traces(tmp_path_factory):
    d = tmp_path_factory.mktemp("race")
    rc = racegen.main(["--scenario", "race", "--out", str(d), "--stem", "racegen"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def clean_scenario_traces(tmp_path_factory):
    d = tmp_path_factory.mktemp("benign")
    rc = racegen.main(["--scenario", "clean", "--out", str(d), "--stem", "racegen"])
    assert rc == 0
    return d


class TestReproVerify:
    def test_list_rules(self, capsys):
        assert main_verify(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("MPG3") == 7
        assert "[certified-bounds]" in out
        assert "[match-order-race]" in out

    def test_requires_traces_and_stem(self):
        with pytest.raises(SystemExit):
            main_verify([])

    def test_replicates_need_signature(self, clean_traces):
        with pytest.raises(SystemExit, match="--replicates needs"):
            main_verify(
                ["--traces", str(clean_traces), "--stem", "ring", "--replicates", "5"]
            )

    def test_clean_app_with_bounds_gates_clean(self, clean_traces, signature, capsys):
        rc = main_verify(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--signature", str(signature), "--replicates", "10",
             "--fail-on", "warning"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "certified makespan delay in [" in out
        assert "all contained" in out

    def test_json_report_to_file(self, clean_traces, signature, tmp_path):
        out = tmp_path / "report.json"
        rc = main_verify(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--signature", str(signature),
             "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-verify-report/1"
        assert doc["verification"]["bounds"]["makespan_hi"] > 0

    def test_race_fixture_fails_warning_gate_naming_receive(self, race_traces, capsys):
        rc = main_verify(
            ["--traces", str(race_traces), "--stem", "racegen", "--fail-on", "warning"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "MPG311" in out
        assert "ambiguous wildcard receive r0#" in out

    def test_race_fixture_passes_default_gate(self, race_traces):
        # warnings only: the default --fail-on error lets it through
        assert main_verify(["--traces", str(race_traces), "--stem", "racegen"]) == 0

    def test_clean_scenario_passes_warning_gate(self, clean_scenario_traces, capsys):
        rc = main_verify(
            ["--traces", str(clean_scenario_traces), "--stem", "racegen",
             "--fail-on", "warning"]
        )
        assert rc == 0
        assert "MPG310" in capsys.readouterr().out

    def test_sarif_report(self, race_traces, tmp_path):
        out = tmp_path / "report.sarif"
        rc = main_verify(
            ["--traces", str(race_traces), "--stem", "racegen",
             "--format", "sarif", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert {r["ruleId"] for r in doc["runs"][0]["results"]} >= {"MPG311"}

    def test_disable_rule_silences_race(self, race_traces):
        rc = main_verify(
            ["--traces", str(race_traces), "--stem", "racegen",
             "--fail-on", "warning", "--disable", "MPG311"]
        )
        assert rc == 0

    def test_quantile_flag_validated(self, clean_traces, signature):
        with pytest.raises(ValueError, match="quantile"):
            main_verify(
                ["--traces", str(clean_traces), "--stem", "ring",
                 "--signature", str(signature), "--quantile", "0.1"]
            )


class TestAnalyzeVerifyPreflight:
    def test_preflight_runs_and_analysis_proceeds(self, clean_traces, signature, capsys):
        rc = main_analyze(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--signature", str(signature), "--verify", "--replicates", "8"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "certified makespan delay in [" in out
        assert "monte carlo: 8 replicates" in out

    def test_preflight_report_to_file(self, clean_traces, signature, tmp_path, capsys):
        vout = tmp_path / "verify.json"
        rc = main_analyze(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--signature", str(signature), "--verify",
             "--verify-format", "json", "--verify-out", str(vout)]
        )
        assert rc == 0
        doc = json.loads(vout.read_text())
        assert doc["schema"] == "repro-verify-report/1"

    def test_streaming_engine_rejected(self, clean_traces, signature):
        with pytest.raises(SystemExit, match="compiled engine"):
            main_analyze(
                ["--traces", str(clean_traces), "--stem", "ring",
                 "--signature", str(signature), "--verify",
                 "--engine", "streaming"]
            )


class TestRacegenTool:
    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            racegen.main(["--scenario", "nope", "--out", str(tmp_path)])

    def test_write_scenario_unknown_name(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            racegen.write_scenario("nope", str(tmp_path), "x")

    def test_deadlock_scenario_flags_mpg312(self, tmp_path, capsys):
        d = tmp_path / "deadlock"
        assert racegen.main(["--scenario", "deadlock", "--out", str(d)]) == 0
        rc = main_verify(
            ["--traces", str(d), "--stem", "racegen", "--fail-on", "warning"]
        )
        assert rc == 1
        assert "MPG312" in capsys.readouterr().out
