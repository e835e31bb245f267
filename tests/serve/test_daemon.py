"""End-to-end daemon tests over real HTTP on an ephemeral port.

One module-scoped daemon (fault injection enabled) serves every test;
a background thread runs its event loop.  The heart of the file is the
bit-identity block: for **every** endpoint, the daemon's response must
equal the direct library call — and for the endpoints with a CLI JSON
twin, the client's rendering must equal the CLI's output file
byte-for-byte.
"""

import asyncio
import json
import threading

import pytest

from repro.cli import main_diagnose, main_metrics, main_verify
from repro.core import BuildConfig, PerturbationSpec, build_graph, monte_carlo, sweep_scales
from repro.machines import PRESETS
from repro.microbench import measure_machine
from repro.mpisim import run_to_files
from repro.noise import MachineSignature
from repro.serve import ReproServer, ServeClient, ServeConfig, ServeError
from repro.serve.client import (
    render_analyze,
    render_diagnose,
    render_metrics,
    render_sweep,
    render_verify,
    request_json,
)
from repro.trace import TraceSet
from tests.conftest import _ring_program


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("serve-e2e")
    run_to_files(_ring_program, d / "traces", "ring", nprocs=4, seed=3, program_name="ring")
    sig = measure_machine(PRESETS["quiet"](4, seed=1), seed=1).to_signature()
    sig.save(d / "sig.json")
    return d


@pytest.fixture(scope="module")
def daemon(workdir):
    """A live daemon in a background thread; yields (server, base_url)."""
    config = ServeConfig(port=0, allow_fault_injection=True)
    server = ReproServer(config)
    started = threading.Event()
    loop_holder = {}

    def run_loop():
        loop = asyncio.new_event_loop()
        loop_holder["loop"] = loop
        asyncio.set_event_loop(loop)

        async def main():
            await server.start()
            started.set()
            try:
                await asyncio.Event().wait()  # park until cancelled
            finally:
                await server.stop()

        try:
            loop.run_until_complete(main())
        except asyncio.CancelledError:
            pass
        finally:
            loop.close()

    thread = threading.Thread(target=run_loop, daemon=True)
    thread.start()
    assert started.wait(10), "daemon failed to start"
    yield server, f"http://127.0.0.1:{server.port}"
    loop = loop_holder["loop"]
    for task in asyncio.all_tasks(loop):
        loop.call_soon_threadsafe(task.cancel)
    thread.join(10)


@pytest.fixture(scope="module")
def client(daemon):
    _, url = daemon
    return ServeClient(url, timeout=120)


@pytest.fixture(scope="module")
def signature_dict(workdir):
    return MachineSignature.load(workdir / "sig.json").to_dict()


class TestProbesAndRouting:
    def test_healthz(self, client):
        h = client.healthz()
        assert h["schema"] == "repro-serve-health/1"
        assert h["ok"] is True
        assert h["cache"]["capacity"] == 8

    def test_unknown_route_404(self, daemon):
        _, url = daemon
        env = request_json(f"{url}/nope")
        assert env["ok"] is False
        assert env["error"]["code"] == "not-found"

    def test_unknown_endpoint_404(self, daemon):
        _, url = daemon
        env = request_json(f"{url}/v1/transmogrify", {"schema": "x"})
        assert env["error"]["code"] == "not-found"

    def test_get_on_job_endpoint_405(self, daemon):
        _, url = daemon
        env = request_json(f"{url}/v1/analyze")
        assert env["error"]["code"] == "method-not-allowed"

    def test_post_on_healthz_405(self, daemon):
        _, url = daemon
        env = request_json(f"{url}/healthz", {"x": 1})
        assert env["error"]["code"] == "method-not-allowed"

    def test_non_json_body_400(self, daemon):
        import urllib.error
        import urllib.request

        _, url = daemon
        req = urllib.request.Request(f"{url}/v1/analyze", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req)
        assert exc_info.value.code == 400
        assert json.loads(exc_info.value.read())["error"]["code"] == "bad-request"

    def test_schema_violation_400(self, client, workdir):
        with pytest.raises(ServeError, match="bogus_param") as exc_info:
            client.job("analyze", traces=str(workdir / "traces"), stem="ring",
                       params={"bogus_param": 1})
        assert exc_info.value.code == "bad-request"

    def test_missing_signature_400(self, client, workdir):
        with pytest.raises(ServeError) as exc_info:
            client.job("analyze", traces=str(workdir / "traces"), stem="ring",
                       params={"replicates": 2})
        assert exc_info.value.code == "bad-request"


class TestBitIdentity:
    """Daemon responses == direct library calls, rendered == CLI bytes."""

    def test_analyze_equals_monte_carlo(self, client, workdir, signature_dict):
        env = client.job(
            "analyze", traces=str(workdir / "traces"), stem="ring",
            signature=signature_dict, params={"replicates": 7, "seed": 5, "scale": 2.0},
        )
        traces = TraceSet.open(workdir / "traces", "ring")
        build = build_graph(traces, BuildConfig())
        spec = PerturbationSpec(
            MachineSignature.load(workdir / "sig.json"), seed=5, scale=2.0
        )
        dist = monte_carlo(build, spec, replicates=7)
        want = {
            "replicates": dist.replicates,
            "nprocs": dist.nprocs,
            "seeds": [int(s) for s in dist.seeds],
            "samples": [[float(v) for v in row] for row in dist.samples],
        }
        got = env["result"]
        for key, value in want.items():
            assert got[key] == value, key
        assert render_analyze(got) == render_analyze(json.loads(json.dumps(got)))

    def test_sweep_equals_sweep_scales(self, client, workdir, signature_dict):
        scales = [0.0, 0.5, 2.0]
        env = client.job(
            "sweep", traces=str(workdir / "traces"), stem="ring",
            signature=signature_dict, params={"scales": scales, "seed": 3},
        )
        traces = TraceSet.open(workdir / "traces", "ring")
        spec = PerturbationSpec(MachineSignature.load(workdir / "sig.json"), seed=3)
        result = sweep_scales(traces, spec, scales)
        want = [
            {"label": p.label, "x": float(p.x),
             "delays": [float(d) for d in p.delays], "mode": p.mode}
            for p in result.points
        ]
        assert env["result"]["points"] == want
        assert render_sweep(env["result"]).endswith("\n")

    def test_diagnose_renders_cli_bytes(self, client, workdir, tmp_path):
        traces = str(workdir / "traces")
        env = client.job("diagnose", traces=traces, stem="ring", params={})
        cli_out = tmp_path / "cli.json"
        main_diagnose(["--traces", traces, "--stem", "ring",
                       "--format", "json", "--out", str(cli_out), "--quiet"])
        assert render_diagnose(env["result"]) == cli_out.read_text()

    def test_verify_renders_cli_bytes(self, client, workdir, tmp_path):
        traces = str(workdir / "traces")
        env = client.job("verify", traces=traces, stem="ring", params={})
        cli_out = tmp_path / "cli.json"
        main_verify(["--traces", traces, "--stem", "ring",
                     "--format", "json", "--out", str(cli_out), "--quiet"])
        assert render_verify(env["result"]) == cli_out.read_text()

    def test_metrics_renders_cli_bytes(self, client, workdir, tmp_path):
        traces = str(workdir / "traces")
        env = client.job("metrics", traces=traces, stem="ring", params={"windows": 4})
        cli_out = tmp_path / "cli.json"
        main_metrics(["--traces", traces, "--stem", "ring", "--windows", "4",
                      "--format", "json", "--out", str(cli_out), "--quiet"])
        assert render_metrics(env["result"]) == cli_out.read_text()

    def test_upload_mode_equals_dir_mode(self, client, workdir):
        traces = workdir / "traces"
        upload = {p.name: p.read_text() for p in traces.iterdir()}
        from_dir = client.job("diagnose", traces=str(traces), stem="ring", params={})
        from_upload = client.job("diagnose", upload=upload, stem="ring", params={})
        assert from_upload["result"]["report"] == from_dir["result"]["report"]
        # identical bytes -> identical build key -> served from one entry
        assert from_upload["build"]["key"] == from_dir["build"]["key"]


class TestInputErrors:
    def test_header_only_rank_is_refused_by_rule_id(self, client, workdir):
        """The daemon checks an upload through the same front door as the
        CLIs: a rank file holding only its header is refused by the trace
        pack, naming the rule, before any graph is built."""
        upload = {p.name: p.read_text() for p in (workdir / "traces").iterdir()}
        rank1 = next(name for name in upload if ".rank0001." in name)
        upload[rank1] = upload[rank1].splitlines(keepends=True)[0]
        with pytest.raises(ServeError) as exc_info:
            client.job("diagnose", upload=upload, stem="ring", params={})
        assert exc_info.value.code == "input-error"
        assert "MPG003" in exc_info.value.message
        assert client.healthz()["ok"] is True


class TestFaultContainment:
    def test_injected_error_is_contained(self, client, workdir, signature_dict):
        with pytest.raises(ServeError) as exc_info:
            client.job("analyze", traces=str(workdir / "traces"), stem="ring",
                       signature=signature_dict, params={"replicates": 2}, inject="error")
        assert exc_info.value.code == "fault-injected"
        assert client.healthz()["ok"] is True

    def test_killed_worker_is_contained(self, client, workdir, signature_dict):
        with pytest.raises(ServeError) as exc_info:
            client.job("analyze", traces=str(workdir / "traces"), stem="ring",
                       signature=signature_dict, params={"replicates": 2},
                       inject="kill-worker")
        assert exc_info.value.code == "worker-lost"
        # the pool died; the daemon did not
        assert client.healthz()["ok"] is True
        env = client.job("metrics", traces=str(workdir / "traces"), stem="ring",
                         params={"windows": 2})
        assert env["ok"] is True

    def test_injection_forbidden_by_default(self, workdir):
        async def main():
            server = ReproServer(ServeConfig(port=0))
            await server.start()
            url = f"http://127.0.0.1:{server.port}"

            def call():
                c = ServeClient(url, timeout=30)
                with pytest.raises(ServeError) as exc_info:
                    c.job("metrics", traces=str(workdir / "traces"), stem="ring",
                          inject="error")
                assert exc_info.value.code == "forbidden"

            await asyncio.to_thread(call)
            await server.stop()

        asyncio.run(main())


class TestAdmissionAndTimeouts:
    def test_backpressure_429(self, workdir):
        async def main():
            server = ReproServer(ServeConfig(port=0, max_pending=1))
            server.stats.active = 1  # a job is (virtually) in flight
            status, env = await server._run_job(
                "metrics",
                {"schema": "repro-serve-request/1",
                 "traces": str(workdir / "traces"), "stem": "ring"},
            )
            assert status == 429
            assert env["error"]["code"] == "overloaded"
            assert server.stats.rejected == 1

        asyncio.run(main())

    def test_job_timeout_504(self, workdir):
        async def main():
            server = ReproServer(ServeConfig(port=0, job_timeout=1e-6))
            status, env = await server._run_job(
                "metrics",
                {"schema": "repro-serve-request/1",
                 "traces": str(workdir / "traces"), "stem": "ring"},
            )
            assert status == 504
            assert env["error"]["code"] == "timeout"
            assert server.stats.timeouts == 1

        asyncio.run(main())


class TestConcurrentCoalescing:
    def test_concurrent_requests_one_build_one_compile(self, workdir, signature_dict):
        """The acceptance criterion: concurrent requests sharing a trace
        set and signature pay for exactly one graph build and one plan
        compile — proven by the daemon's own span histogram."""
        from repro.mpisim import run_to_files as _rtf

        fresh = workdir / "fresh-traces"
        if not fresh.exists():
            _rtf(_ring_program, fresh, "ring", nprocs=4, seed=11, program_name="ring")

        async def main():
            server = ReproServer(ServeConfig(port=0))
            await server.start()
            url = f"http://127.0.0.1:{server.port}"

            def one(seed):
                c = ServeClient(url, timeout=120)
                return c.job("analyze", traces=str(fresh), stem="ring",
                             signature=signature_dict,
                             params={"replicates": 3, "seed": seed})

            def fan_out():
                import concurrent.futures as cf
                with cf.ThreadPoolExecutor(4) as ex:
                    return list(ex.map(one, [0, 0, 1, 2]))

            envs = await asyncio.to_thread(fan_out)
            metrics = await asyncio.to_thread(
                lambda: ServeClient(url, timeout=30).metricsz()
            )
            await server.stop()
            return envs, metrics

        envs, metrics = asyncio.run(main())
        assert len(envs) == 4 and all(e["ok"] for e in envs)
        assert len({e["build"]["key"] for e in envs}) == 1
        assert metrics["spans"]["build_graph"] == 1
        assert metrics["spans"]["compiled.compile"] == 1
        assert metrics["cache"]["builds"] == 1
        assert metrics["cache"]["coalesced"] + metrics["cache"]["hits"] == 3
        # identical-seed requests got bit-identical answers
        same_seed = [e for e in envs if e["result"]["seeds"][0] == 0]
        assert len(same_seed) >= 2
        assert same_seed[0]["result"] == same_seed[1]["result"]


class TestMetricsz:
    def test_span_histogram_proves_one_build(self, client):
        """Runs after the whole module hammered one trace set: every
        request above shared a single graph build and plan compile."""
        m = client.metricsz()
        assert m["schema"] == "repro-serve-metrics/1"
        spans = m["spans"]
        assert spans.get("serve.request", 0) >= 10
        assert spans.get("build_graph", 0) == 1
        assert spans.get("compiled.compile", 0) == 1
        assert m["cache"]["builds"] == 1
        assert m["cache"]["hits"] >= 5
        assert m["metrics"]["serve.requests"] >= 10
