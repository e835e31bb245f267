"""CLI tests: the ``repro-lint`` entry point and the front door every
trace-reading tool passes — ``repro-analyze`` / ``repro-sweep`` /
``repro-diagnose`` / ``repro-verify`` / ``repro-dot`` /
``repro-metrics`` / ``repro-replay`` / ``repro-lint`` (``--lint`` on
the first two).

The acceptance-critical pair: a seeded-defect trace set is refused by
``--lint strict``, while every bundled example app lints clean.
"""

from __future__ import annotations

import json

import pytest

from repro.apps import ALL_APPS
from repro.cli import (
    main_analyze,
    main_diagnose,
    main_dot,
    main_lint,
    main_metrics,
    main_microbench,
    main_replay,
    main_sweep,
    main_trace,
    main_verify,
)
from repro.lint import lint_run
from repro.mpisim import run
from repro.trace.events import EventKind
from repro.trace.reader import TraceSet
from repro.trace.writer import TraceSetWriter
from tests.lint.helpers import ev


@pytest.fixture(scope="module")
def clean_traces(tmp_path_factory):
    """A small clean token_ring trace set on disk."""
    d = tmp_path_factory.mktemp("clean")
    rc = main_trace(
        ["--app", "token_ring", "--nprocs", "4", "--out", str(d),
         "--stem", "ring", "--param", "traversals=2", "--seed", "1"]
    )
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def defect_traces(tmp_path_factory):
    """A 2-rank trace set with a send that is never received (MPG102)."""
    d = tmp_path_factory.mktemp("defect")
    with TraceSetWriter(d, "bad", nprocs=2) as w:
        w.record(ev(0, 0, EventKind.INIT, 0.0, 1.0))
        w.record(ev(0, 1, EventKind.SEND, 1.0, 2.0, peer=1, tag=0, nbytes=64))
        w.record(ev(0, 2, EventKind.FINALIZE, 2.0, 3.0))
        w.record(ev(1, 0, EventKind.INIT, 0.0, 1.0))
        w.record(ev(1, 1, EventKind.FINALIZE, 1.0, 2.0))
    return d


@pytest.fixture(scope="module")
def unframed_traces(tmp_path_factory):
    """A trace whose only defect is a missing FINALIZE (MPG004, warning)."""
    d = tmp_path_factory.mktemp("unframed")
    with TraceSetWriter(d, "open", nprocs=1) as w:
        w.record(ev(0, 0, EventKind.INIT, 0.0, 1.0))
    return d


class TestReproLint:
    def test_list_rules(self, capsys):
        assert main_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert out.count("MPG") == 25  # full catalog, incl. MPG2xx diagnosis + MPG3xx verify
        assert "[overlapping-events]" in out
        assert "[graph-cycle]" in out
        assert "[anomalous-rank]" in out
        assert "[certified-bounds]" in out

    def test_clean_trace_exits_zero(self, clean_traces, capsys):
        rc = main_lint(["--traces", str(clean_traces), "--stem", "ring"])
        assert rc == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_defect_trace_exits_nonzero(self, defect_traces, capsys):
        rc = main_lint(["--traces", str(defect_traces), "--stem", "bad"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "MPG102" in out
        assert "1 send(s) but 0 receive(s)" in out

    def test_json_report_to_file(self, defect_traces, tmp_path):
        out = tmp_path / "report.json"
        rc = main_lint(
            ["--traces", str(defect_traces), "--stem", "bad",
             "--format", "json", "--out", str(out)]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-lint-report/1"
        assert doc["summary"]["errors"] == 1
        assert doc["findings"][0]["rule"] == "MPG102"

    def test_sarif_report_to_file(self, defect_traces, tmp_path):
        out = tmp_path / "report.sarif"
        rc = main_lint(
            ["--traces", str(defect_traces), "--stem", "bad",
             "--format", "sarif", "--out", str(out)]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "MPG102"

    def test_fail_on_never(self, defect_traces):
        rc = main_lint(
            ["--traces", str(defect_traces), "--stem", "bad", "--fail-on", "never"]
        )
        assert rc == 0

    def test_fail_on_warning(self, unframed_traces):
        relaxed = main_lint(["--traces", str(unframed_traces), "--stem", "open", "--trace-only"])
        strict = main_lint(
            ["--traces", str(unframed_traces), "--stem", "open", "--trace-only",
             "--fail-on", "warning"]
        )
        assert relaxed == 0
        assert strict == 1

    def test_disable_rule(self, unframed_traces):
        rc = main_lint(
            ["--traces", str(unframed_traces), "--stem", "open", "--trace-only",
             "--fail-on", "warning", "--disable", "MPG004,MPG006"]
        )
        assert rc == 0

    def test_severity_override(self, unframed_traces):
        rc = main_lint(
            ["--traces", str(unframed_traces), "--stem", "open", "--trace-only",
             "--severity", "MPG004=error"]
        )
        assert rc == 1

    def test_bad_severity_spec(self):
        with pytest.raises(SystemExit):
            main_lint(["--traces", "x", "--stem", "y", "--severity", "MPG004"])

    def test_requires_traces_and_stem(self):
        with pytest.raises(SystemExit):
            main_lint([])


class TestAnalyzeGating:
    def test_strict_blocks_defect_trace(self, defect_traces):
        with pytest.raises(SystemExit, match=r"repro-lint found .*MPG102"):
            main_analyze(
                ["--traces", str(defect_traces), "--stem", "bad",
                 "--measure", "noisy", "--lint", "strict"]
            )

    def test_sweep_strict_blocks_defect_trace(self, defect_traces):
        with pytest.raises(SystemExit, match="repro-lint found"):
            main_sweep(
                ["--traces", str(defect_traces), "--stem", "bad",
                 "--measure", "noisy", "--scales", "0,1", "--lint", "strict"]
            )

    def test_strict_passes_clean_trace(self, clean_traces, capsys):
        rc = main_analyze(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--measure", "noisy", "--engine", "streaming", "--lint", "strict"]
        )
        assert rc == 0
        assert "max delay" in capsys.readouterr().out

    def test_warn_mode_logs_but_proceeds(self, unframed_traces, caplog):
        # warn mode flags the unframed trace yet does not abort; the run
        # then fails later on its own merits (no signature), proving the
        # lint pass itself let it through.
        with pytest.raises(SystemExit):
            main_analyze(
                ["--traces", str(unframed_traces), "--stem", "open", "--lint", "warn"]
            )
        assert any("lint MPG004" in r.message for r in caplog.records)
        # Logged once: the trace pack is the only pre-build check.
        assert sum("not FINALIZE" in r.message for r in caplog.records) == 1


def _copy_traces(src, dst, edit=None):
    """Copy a text trace set, passing rank files' event lines through ``edit``."""
    dst.mkdir()
    for path in sorted(src.glob("*.jsonl")):
        header, *events = path.read_text().splitlines()
        if edit is not None:
            events = edit(path.name, events)
        (dst / path.name).write_text("\n".join([header, *events]) + "\n")
    return dst


def _drop_first(kind, rank):
    """An edit under which ``rank`` loses its first ``kind`` event; later
    records are renumbered so the trace pack sees a dense, well-formed
    stream and only matching fails."""

    def edit(name, events):
        if f".rank{rank:04d}." not in name:
            return events
        records = [json.loads(line) for line in events]
        i = next(i for i, r in enumerate(records) if r[0] == kind)
        del records[i]
        for seq, r in enumerate(records):
            r[2] = seq
        return [json.dumps(r) for r in records]

    return edit


@pytest.fixture(scope="module")
def malformed_traces(clean_traces, tmp_path_factory):
    """The clean ring traces broken four ways, with the rule each must name."""
    root = tmp_path_factory.mktemp("malformed")
    return {
        "header-only": (_copy_traces(clean_traces, root / "hdr", lambda n, e: []), "MPG003"),
        "truncated": (
            _copy_traces(
                clean_traces, root / "trunc", lambda n, e: e[:2] + e[3:] if ".rank0001." in n else e
            ),
            "MPG003",
        ),
        "unpaired": (
            _copy_traces(clean_traces, root / "unpaired", _drop_first(EventKind.RECV, 1)),
            "MPG102",
        ),
        "missing-send": (
            _copy_traces(clean_traces, root / "nosend", _drop_first(EventKind.SEND, 0)),
            "MPG102",
        ),
    }


@pytest.fixture(scope="module")
def signature_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sig") / "sig.json"
    assert main_microbench(["--machine", "noisy", "--seed", "0", "--out", str(path)]) == 0
    return path


TOOLS = {
    "analyze": (main_analyze, True),
    "sweep": (main_sweep, True),
    "diagnose": (main_diagnose, False),
    "verify": (main_verify, False),
    "dot": (main_dot, False),
    "metrics": (main_metrics, False),
    "replay": (main_replay, False),
}

#: Every tool refuses every defect: metrics checks its traces with the
#: graph pack, and replay ends with the leftover check a receive gone
#: leaves its eager send to.
REFUSALS = [
    (tool, defect)
    for tool in sorted(TOOLS)
    for defect in ("header-only", "truncated", "unpaired", "missing-send")
]


def _exit_line(main, argv):
    """The one line ``main(argv)`` ends with — the ``SystemExit`` message
    the interpreter prints to stderr, exiting with status 1."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str)  # exit status 1, message on stderr
    assert message.count("\n") == 0
    return message


class TestMalformedTraceRefusal:
    """Every analysis CLI refuses a malformed trace set by rule id: exit
    status 1 and one stderr line, the way the interpreter reports the
    ``SystemExit`` message — never a traceback or a silent result."""

    @pytest.mark.parametrize("tool,defect", REFUSALS)
    def test_refused_by_rule_id(self, tool, defect, malformed_traces, signature_file):
        main, needs_signature = TOOLS[tool]
        traces, rule_id = malformed_traces[defect]
        argv = ["--traces", str(traces), "--stem", "ring", "--quiet"]
        if needs_signature:
            argv += ["--signature", str(signature_file)]
        assert rule_id in _exit_line(main, argv)

    @pytest.mark.parametrize("engine", ["compiled", "streaming"])
    @pytest.mark.parametrize("tool", ["analyze", "sweep"])
    def test_missing_send_named_by_both_engines(
        self, tool, engine, malformed_traces, signature_file
    ):
        """A dropped send blocks the streaming traversal; the stall names
        the same rule the compiled build does, in words, not tuples."""
        main, _ = TOOLS[tool]
        traces, _ = malformed_traces["missing-send"]
        argv = ["--traces", str(traces), "--stem", "ring", "--quiet"]
        argv += ["--signature", str(signature_file), "--engine", engine]
        message = _exit_line(main, argv)
        assert message.startswith("MPG102 [unmatched-endpoint] rank ")
        assert "event #" in message.split(":")[0]
        assert "('" not in message

    @pytest.mark.parametrize("tool", ["analyze", "sweep"])
    def test_streaming_refuses_unpaired(self, tool, malformed_traces, signature_file):
        """An eager send whose receive was dropped never blocks the
        streaming traversal; it still ends the run, naming the send."""
        main, _ = TOOLS[tool]
        traces, _ = malformed_traces["unpaired"]
        argv = ["--traces", str(traces), "--stem", "ring", "--quiet"]
        argv += ["--signature", str(signature_file)]
        argv += ["--engine", "streaming", "--eager-threshold", "1000000"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = exc.value.code
        assert isinstance(message, str)
        assert message.startswith("MPG102 [unmatched-endpoint] rank 0, event #")
        assert "unpaired pairwise event" in message


    def test_refused_trace_pays_no_build(self, malformed_traces, monkeypatch):
        """The truncated ring is refused for its trace defect alone: once
        the trace rules found an error, metrics' door runs neither the
        graph rules nor their build.  repro-lint, which refuses nothing,
        still reports the build's echo of the lost event."""
        traces, _ = malformed_traces["truncated"]
        assert "MPG102" in lint_run(TraceSet.open(traces, "ring")).counts()

        def no_build(*args, **kwargs):
            raise AssertionError("a refused trace set was built")

        monkeypatch.setattr("repro.lint.engine.build_graph", no_build)
        message = _exit_line(main_metrics, ["--traces", str(traces), "--stem", "ring"])
        assert "ERROR finding(s) (MPG003); " in message
        assert "first: MPG003 [truncated-trace] rank 1" in message

    @pytest.mark.parametrize(
        "main,extra,named",
        [
            (main_replay, [], "MPG102 [unmatched-endpoint] rank 0, event #"),
            (main_replay, ["--cpu-factors", "1,2"], "MPG102 [unmatched-endpoint] rank 0, event #"),
            (main_metrics, ["--ideal"], "repro-lint found 1 ERROR finding(s) (MPG102)"),
        ],
        ids=["replay", "replay-ladder", "metrics-ideal"],
    )
    def test_dropped_receive_is_not_replayed(self, main, extra, named, malformed_traces):
        """A ring whose rank 1 lost its first RECV is no run to re-time:
        no makespan, no speed-up, no POP numbers — one line naming the
        unpaired send (replay's leftover check) or the rule (metrics'
        door, which runs the graph pack before it replays)."""
        traces, _ = malformed_traces["unpaired"]
        argv = ["--traces", str(traces), "--stem", "ring", "--quiet", *extra]
        assert _exit_line(main, argv).startswith(named)


@pytest.fixture(scope="module")
def unreadable_traces(clean_traces, tmp_path_factory):
    """The clean ring made unreadable three ways: ``(traces, stem, name)``
    with the file (or directory) each refusal must name."""
    root = tmp_path_factory.mktemp("unreadable")
    bad_line = _copy_traces(
        clean_traces,
        root / "line",
        lambda n, e: e[:2] + ['[3,1,2,"oops"]'] + e[3:] if ".rank0001." in n else e,
    )
    binary = root / "bin"
    assert main_trace(
        ["--app", "token_ring", "--nprocs", "4", "--out", str(binary), "--stem", "ring",
         "--param", "traversals=2", "--seed", "1", "--binary", "--quiet"]
    ) == 0
    cut = binary / "ring.rank0001.trace.bin"
    cut.write_bytes(cut.read_bytes()[:-5])
    return {
        "missing-stem": (bad_line, "nope", str(bad_line)),
        "bad-text-line": (bad_line, "ring", str(bad_line / "ring.rank0001.trace.jsonl")),
        "truncated-binary": (binary, "ring", str(cut)),
    }


class TestUnreadableInput:
    """Every trace-reading tool ends an unopenable or undecodable trace
    set with one line naming the file — never a traceback."""

    @pytest.mark.parametrize("case", ["missing-stem", "bad-text-line", "truncated-binary"])
    @pytest.mark.parametrize("tool", sorted([*TOOLS, "lint"]))
    def test_names_the_file(self, tool, case, unreadable_traces, signature_file):
        main, needs_signature = {**TOOLS, "lint": (main_lint, False)}[tool]
        traces, stem, name = unreadable_traces[case]
        argv = ["--traces", str(traces), "--stem", stem, "--quiet"]
        if needs_signature:
            argv += ["--signature", str(signature_file)]
        message = _exit_line(main, argv)
        assert name in message
        if case != "missing-stem":
            assert "rank 1" in message

    @pytest.mark.parametrize("content", ["not json", '{"traceEvents": []}'])
    def test_metrics_import_names_the_file(self, content, tmp_path):
        path = tmp_path / "outside.json"
        path.write_text(content + "\n")
        message = _exit_line(main_metrics, ["--import", str(path), "--quiet"])
        assert message.startswith(f"cannot read Chrome trace {path}: ")

    @pytest.mark.parametrize("tool", ["analyze", "sweep"])
    def test_signature_names_the_file(self, tool, clean_traces, tmp_path):
        path = tmp_path / "sig.json"
        path.write_text("not json\n")
        argv = ["--traces", str(clean_traces), "--stem", "ring", "--quiet"]
        message = _exit_line(TOOLS[tool][0], [*argv, "--signature", str(path)])
        assert message.startswith(f"cannot read machine signature {path}: ")

    def test_line_and_record_numbers(self, unreadable_traces):
        traces, _, _ = unreadable_traces["bad-text-line"]
        assert "line 4: malformed trace line" in _exit_line(
            main_lint, ["--traces", str(traces), "--stem", "ring"]
        )
        traces, _, _ = unreadable_traces["truncated-binary"]
        assert "truncated binary trace record" in _exit_line(
            main_lint, ["--traces", str(traces), "--stem", "ring"]
        )


class TestStrictBuildsOnce:
    """``--lint strict`` analyzes the graph its graph rules checked: the
    pipeline counters match ``--lint warn``, which builds once too."""

    @pytest.mark.parametrize("tool", ["analyze", "sweep"])
    def test_same_counters_as_warn(self, tool, clean_traces, signature_file, tmp_path):
        main, _ = TOOLS[tool]
        counters = {}
        for mode in ("warn", "strict"):
            out = tmp_path / f"{mode}.json"
            rc = main(
                ["--traces", str(clean_traces), "--stem", "ring", "--signature",
                 str(signature_file), "--lint", mode, "--metrics-out", str(out), "--quiet"]
            )
            assert rc == 0
            metrics = json.loads(out.read_text())["metrics"]
            counters[mode] = {k: metrics[k] for k in ("match.transfers", "graph.nodes")}
        assert counters["strict"] == counters["warn"]
        assert counters["warn"]["match.transfers"] == 8  # 4 ranks x 2 traversals


APP_PARAMS = {
    "token_ring": {"traversals": 2},
    "stencil1d": {"iterations": 3},
    "stencil2d": {"iterations": 2},
    "master_worker": {"tasks": 9},
    "allreduce_iter": {"iterations": 4},
    "fft_transpose": {"stages": 2},
    "butterfly_allreduce": {"iterations": 2},
    "pipeline": {"items": 5},
    "random_sparse": {"iterations": 2},
}


class TestAllAppsLintClean:
    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_app_traces_have_zero_errors(self, name):
        factory, params_cls = ALL_APPS[name]
        params = params_cls(**APP_PARAMS.get(name, {}))
        nprocs = 8 if name == "butterfly_allreduce" else 4
        res = run(factory(params), nprocs=nprocs, seed=1)
        report = lint_run(res.trace)
        assert report.ok, f"{name}: {[f.message for f in report.errors[:3]]}"
        assert report.graph_checked

    def test_one_app_end_to_end_via_cli(self, clean_traces, tmp_path, capsys):
        out = tmp_path / "ring.sarif"
        rc = main_lint(
            ["--traces", str(clean_traces), "--stem", "ring",
             "--format", "sarif", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["results"] == []
