"""Tests for the command-line entry points (invoked in-process)."""

import json

import pytest

from repro.cli import main_analyze, main_dot, main_microbench, main_sweep, main_trace


@pytest.fixture
def traced(tmp_path):
    """A small traced run plus a measured signature on disk."""
    rc = main_trace(
        [
            "--app",
            "token_ring",
            "--nprocs",
            "4",
            "--machine",
            "quiet",
            "--out",
            str(tmp_path),
            "--stem",
            "ring",
            "--param",
            "traversals=2",
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    sig_path = tmp_path / "sig.json"
    rc = main_microbench(
        ["--machine", "noisy", "--out", str(sig_path), "--seed", "0"]
    )
    assert rc == 0
    return tmp_path, sig_path


class TestTrace:
    def test_produces_files(self, traced):
        tmp_path, _ = traced
        files = sorted(tmp_path.glob("ring.rank*.trace.jsonl"))
        assert len(files) == 4

    def test_binary_flag(self, tmp_path):
        main_trace(
            [
                "--app",
                "pipeline",
                "--nprocs",
                "3",
                "--out",
                str(tmp_path),
                "--binary",
                "--param",
                "items=3",
            ]
        )
        assert len(list(tmp_path.glob("pipeline.rank*.trace.bin"))) == 3

    def test_bad_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main_trace(
                ["--app", "token_ring", "--nprocs", "2", "--out", str(tmp_path), "--param", "oops"]
            )

    def test_unknown_app_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main_trace(["--app", "quicksort", "--nprocs", "2", "--out", str(tmp_path)])


class TestMicrobench:
    def test_signature_is_loadable_json(self, traced):
        _, sig_path = traced
        data = json.loads(sig_path.read_text())
        assert {"os_noise", "latency", "per_byte"} <= set(data)

    def test_fit_method(self, tmp_path):
        out = tmp_path / "fit.json"
        rc = main_microbench(["--machine", "noisy", "--out", str(out), "--method", "fit"])
        assert rc == 0
        assert out.exists()


class TestAnalyze:
    def test_incore_report(self, traced, capsys):
        tmp_path, sig_path = traced
        rc = main_analyze(
            ["--traces", str(tmp_path), "--stem", "ring", "--signature", str(sig_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "graph:" in out
        assert "critical path" in out
        assert "absorption ratio" in out
        assert "correctness: 0 order violation(s)" in out

    def test_streaming_engine(self, traced, capsys):
        tmp_path, sig_path = traced
        rc = main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--engine",
                "streaming",
            ]
        )
        assert rc == 0
        assert "streaming traversal" in capsys.readouterr().out

    def test_history_recorded(self, traced, capsys):
        tmp_path, sig_path = traced
        hist = tmp_path / "hist.jsonl"
        main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--history",
                str(hist),
                "--name",
                "cli-test",
            ]
        )
        lines = hist.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "cli-test"

    def test_requires_signature_source(self, traced):
        tmp_path, _ = traced
        with pytest.raises(SystemExit):
            main_analyze(["--traces", str(tmp_path), "--stem", "ring"])


class TestObservability:
    def test_profile_writes_valid_chrome_trace(self, traced, capsys):
        from repro.obs import validate_chrome_trace_file

        tmp_path, sig_path = traced
        profile = tmp_path / "profile.json"
        rc = main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--replicates",
                "4",
                "--profile",
                str(profile),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "graph:" in captured.out  # results still on stdout
        assert "profile written" in captured.err  # diagnostics on stderr

        obj = validate_chrome_trace_file(profile)
        names = {e["name"] for e in obj["traceEvents"]}
        assert {"analyze", "build_graph", "read_traces", "match_events",
                "compiled.compile", "compiled.sample", "compiled.propagate",
                "monte_carlo", "replicate_batch"} <= names

    def test_metrics_out(self, traced, capsys):
        tmp_path, sig_path = traced
        metrics_path = tmp_path / "metrics.json"
        rc = main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert rc == 0
        payload = json.loads(metrics_path.read_text())
        metrics = payload["metrics"]
        assert metrics["graph.nodes"] > 0
        assert metrics["trace.files_read"] >= 4
        assert metrics["traversal.propagations"] == 1

    def test_no_session_leaks_between_invocations(self, traced):
        from repro import obs

        tmp_path, sig_path = traced
        main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--profile",
                str(tmp_path / "p.json"),
            ]
        )
        assert not obs.enabled()

    def test_quiet_silences_diagnostics(self, traced, capsys):
        tmp_path, sig_path = traced
        rc = main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--quiet",
                "--profile",
                str(tmp_path / "p.json"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert "graph:" in captured.out
        assert "profile written" not in captured.err

    def test_sweep_profile(self, traced, capsys):
        from repro.obs import validate_chrome_trace_file

        tmp_path, sig_path = traced
        profile = tmp_path / "sweep-profile.json"
        rc = main_sweep(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--scales",
                "0,1",
                "--profile",
                str(profile),
            ]
        )
        assert rc == 0
        obj = validate_chrome_trace_file(profile)
        names = {e["name"] for e in obj["traceEvents"]}
        assert "sweep_scales" in names


class TestSweep:
    def test_table_and_slope(self, traced, capsys):
        tmp_path, sig_path = traced
        rc = main_sweep(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--signature",
                str(sig_path),
                "--scales",
                "0,1,2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scale=2" in out
        assert "slope" in out


class TestDot:
    def test_writes_dot_file(self, traced, capsys):
        tmp_path, _ = traced
        out = tmp_path / "g.dot"
        rc = main_dot(["--traces", str(tmp_path), "--stem", "ring", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert text.startswith('digraph "ring"')
        assert "cluster_rank3" in text

    def test_stdout_mode(self, traced, capsys):
        tmp_path, _ = traced
        main_dot(["--traces", str(tmp_path), "--stem", "ring"])
        assert "digraph" in capsys.readouterr().out


class TestReplay:
    def test_replay_table(self, traced, capsys):
        from repro.cli import main_replay

        tmp_path, _ = traced
        rc = main_replay(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--latency",
                "100",
                "--bandwidth",
                "20",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan:" in out
        assert "speedup" in out

    def test_analyze_prints_trace_stats(self, traced, capsys):
        from repro.cli import main_analyze

        tmp_path, sig_path = traced
        main_analyze(
            ["--traces", str(tmp_path), "--stem", "ring", "--signature", str(sig_path)]
        )
        assert "trace:" in capsys.readouterr().out

    def test_dot_seq_range(self, traced, capsys):
        from repro.cli import main_dot

        tmp_path, _ = traced
        out = tmp_path / "w.dot"
        main_dot(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--out",
                str(out),
                "--seq-range",
                "0:3",
            ]
        )
        text = out.read_text()
        # Window keeps only seqs 0..2: far fewer nodes than the full graph.
        assert text.count("label=") < 60


class TestMeasureFlow:
    def test_analyze_with_inline_measurement(self, traced, capsys):
        """--measure PRESET runs the microbenchmarks instead of loading a
        signature file."""
        tmp_path, _ = traced
        rc = main_analyze(
            [
                "--traces",
                str(tmp_path),
                "--stem",
                "ring",
                "--measure",
                "noisy",
                "--engine",
                "streaming",
            ]
        )
        assert rc == 0
        assert "max delay" in capsys.readouterr().out


class TestCheckpointDir:
    def test_holds_json_shards_only(self, traced, capsys):
        """``--checkpoint D`` never reads a pickle planted where a plan
        cache would look, writes nothing but ``*.json`` shards, and a
        ``--resume`` rerun prints the same bytes."""
        import pickle

        from repro.core import build_graph
        from repro.core.checkpoint import build_digest
        from repro.trace.reader import TraceSet
        from tests.core.test_checkpoint import PlantedPlan

        tmp_path, sig_path = traced
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        marker = tmp_path / "unpickled"
        digest = build_digest(build_graph(TraceSet.open(tmp_path, "ring")))
        planted = ckpt / f"plan-{digest}-auto.pkl"
        planted.write_bytes(pickle.dumps(PlantedPlan(marker)))
        argv = ["--traces", str(tmp_path), "--stem", "ring", "--signature", str(sig_path),
                "--replicates", "4", "--checkpoint", str(ckpt)]
        outs = []
        for extra in ([], ["--resume"]):
            assert main_analyze(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert not marker.exists()
        written = {p.name for p in ckpt.iterdir()} - {planted.name}
        assert len(written) == 4 and all(name.endswith(".json") for name in written)
        assert outs[0] == outs[1]


class TestCoarsening:
    def test_analysis_json_identical_coarse_vs_flat(self, tmp_path, monkeypatch):
        """Phase coarsening is automatic and invisible: the same
        ``--replicates 64 --diagnose`` analysis of an iterative stencil
        gives byte-identical diagnosis JSON whether the ``coarsen="auto"``
        size threshold makes the plan coarse or keeps it flat."""
        from repro import cli
        from repro.core import compiled
        from repro.noise import Constant, Exponential, MachineSignature

        sig = tmp_path / "sig.json"
        MachineSignature(
            os_noise=Exponential(120.0), latency=Exponential(60.0), per_byte=Constant(0.005)
        ).save(sig)
        rc = main_trace(
            ["--app", "stencil1d", "--nprocs", "4", "--machine", "quiet",
             "--out", str(tmp_path), "--stem", "st", "--param", "iterations=600",
             "--seed", "1"]
        )
        assert rc == 0
        plans = []

        def spy(*args, **kwargs):
            plans.append(compiled.compiled_plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(cli, "compiled_plan", spy)
        docs = []
        for name, threshold in (("flat", 10**12), ("coarse", 0)):
            monkeypatch.setattr(compiled, "AUTO_MIN_NODES", threshold)
            out = tmp_path / f"{name}-diagnosis.json"
            rc = main_analyze(
                ["--traces", str(tmp_path), "--stem", "st", "--signature", str(sig),
                 "--seed", "7", "--replicates", "64", "--diagnose",
                 "--diagnose-format", "json", "--diagnose-out", str(out)]
            )
            assert rc == 0
            docs.append(out.read_bytes())
        assert [p.coarse is None for p in plans] == [True, False]
        assert docs[0] == docs[1]


class TestOneDecode:
    """A run decodes each rank file once: the front door's check,
    ``trace_stats`` and the build read one columnar decode."""

    @pytest.mark.parametrize("tool", ["analyze", "diagnose", "verify"])
    def test_files_read_once_per_rank(self, traced, tool):
        from repro.cli import main_diagnose, main_verify

        tmp_path, sig_path = traced
        main = {"analyze": main_analyze, "diagnose": main_diagnose, "verify": main_verify}[tool]
        out = tmp_path / f"{tool}-metrics.json"
        main(
            ["--traces", str(tmp_path), "--stem", "ring", "--signature", str(sig_path),
             "--metrics-out", str(out), "--quiet"]
        )
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["trace.files_read"] == 4
        assert metrics["trace.events_read"] == metrics["graph.nodes"] // 2

    def test_streaming_holds_one_rank_at_a_time(self, traced, monkeypatch):
        """``--engine streaming`` keeps no decode: while it decodes a
        rank, at most the previous rank's columns are still alive."""
        import weakref

        from repro.trace.reader import TraceReader

        tmp_path, sig_path = traced
        decoded: list = []
        alive_at_decode: list[int] = []
        columns = TraceReader.columns

        def spy(self):
            alive_at_decode.append(sum(ref() is not None for ref in decoded))
            frame = columns(self)
            decoded.append(weakref.ref(frame))
            return frame

        monkeypatch.setattr(TraceReader, "columns", spy)
        rc = main_analyze(
            ["--traces", str(tmp_path), "--stem", "ring", "--signature", str(sig_path),
             "--engine", "streaming", "--quiet"]
        )
        assert rc == 0
        assert alive_at_decode and max(alive_at_decode) <= 1
