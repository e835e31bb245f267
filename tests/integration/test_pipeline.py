"""End-to-end pipeline tests: simulate → trace files → validate → graph →
perturb → analyze, through the public API exactly as a user would."""

import pytest

from repro.apps import (
    AllreduceIterParams,
    StencilParams,
    TokenRingParams,
    allreduce_iter,
    stencil1d,
    token_ring,
)
from repro.core import (
    BuildConfig,
    PerturbationSpec,
    StreamingTraversal,
    absorption_map,
    build_graph,
    check_correctness,
    critical_path,
    propagate,
    runtime_impact,
    sweep_scales,
)
from repro.lint import lint_run
from repro.machines import noisy_cluster, quiet_cluster
from repro.microbench import measure_machine
from repro.mpisim import run, run_to_files
from repro.noise import Constant, MachineSignature
from repro.testing import oracle
from repro.trace import TraceSet

from tests.conftest import assert_engines_agree


@pytest.mark.parametrize("binary", [False, True])
def test_full_file_based_pipeline(tmp_path, binary):
    """The complete paper workflow over on-disk traces."""
    machine = quiet_cluster(4, seed=0)
    run_to_files(
        token_ring(TokenRingParams(traversals=3)),
        tmp_path,
        "ring",
        machine=machine,
        seed=1,
        binary=binary,
        program_name="token_ring",
    )
    traces = TraceSet.open(tmp_path, "ring")
    assert lint_run(traces).ok

    sig = MachineSignature(os_noise=Constant(200.0), latency=Constant(100.0))
    spec = PerturbationSpec(sig, seed=0)
    build = build_graph(traces)
    res = propagate(build, spec)
    assert check_correctness(build, res).ok
    assert res.max_delay > 0

    impact = runtime_impact(build, res)
    assert impact.max_slowdown > 0
    cp = critical_path(build, res)
    assert cp.total_delay == pytest.approx(res.max_delay)
    am = absorption_map(build, res)
    assert 0.0 <= am.overall_ratio() <= 1.0

    streaming = StreamingTraversal(spec).run(traces)
    for a, b in zip(oracle.propagate(build, spec).final_delay, streaming.final_delay):
        assert a == pytest.approx(b)


def test_microbench_to_analysis_loop(tmp_path):
    """Measure a noisy preset, analyze a quiet-machine trace with its
    signature — the §5/§6 'how would this app behave over there' flow."""
    quiet = quiet_cluster(4, seed=0)
    trace = run(
        allreduce_iter(AllreduceIterParams(iterations=5)), machine=quiet, seed=2
    ).trace
    noisy = noisy_cluster(2, seed=0)
    report = measure_machine(noisy, seed=0, ftq_quanta=512, pingpong_iterations=64,
                             bandwidth_iterations=8, mraz_messages=64)
    sig = report.to_signature()
    sig_file = tmp_path / "noisy.json"
    sig.save(sig_file)
    spec = PerturbationSpec(MachineSignature.load(sig_file), seed=1)
    res = assert_engines_agree(trace, spec)
    assert res.max_delay > 0


def test_skewed_clocks_do_not_change_predictions():
    """§4.1 in action: the same run traced through wildly skewed clocks
    must yield identical *delays* (only per-rank intervals matter)."""
    prog = stencil1d(StencilParams(iterations=3))
    base = quiet_cluster(5, skewed_clocks=False)
    skewed = quiet_cluster(5, seed=9)  # random offsets up to 1e9 cycles
    sig = MachineSignature(os_noise=Constant(100.0), latency=Constant(40.0))
    spec = PerturbationSpec(sig, seed=0)

    trace_a = run(prog, machine=base, seed=4).trace
    trace_b = run(prog, machine=skewed, seed=4).trace
    res_a = propagate(build_graph(trace_a), spec)
    res_b = propagate(build_graph(trace_b), spec)
    for a, b in zip(res_a.final_delay, res_b.final_delay):
        assert a == pytest.approx(b, abs=1e-4)


def test_collective_mode_changes_prediction_not_validity(ring_trace):
    sig = MachineSignature(os_noise=Constant(100.0), latency=Constant(40.0))
    spec = PerturbationSpec(sig, seed=0)
    hub = propagate(build_graph(ring_trace), spec)
    bfly_build = build_graph(ring_trace, BuildConfig(collective_mode="butterfly"))
    bfly = propagate(bfly_build, spec)
    assert check_correctness(bfly_build, bfly).ok
    # Both models produce positive, same-order delays (ABL1 measures the gap).
    assert hub.max_delay > 0 and bfly.max_delay > 0
    ratio = hub.max_delay / bfly.max_delay
    assert 0.2 < ratio < 5.0


def test_sweep_over_file_traces(tmp_path):
    run_to_files(
        token_ring(TokenRingParams(traversals=2)),
        tmp_path,
        "ring",
        machine=quiet_cluster(3, seed=0),
        seed=0,
    )
    traces = TraceSet.open(tmp_path, "ring")
    sig = MachineSignature(latency=Constant(100.0))
    sweep = sweep_scales(traces, PerturbationSpec(sig, seed=0), [0.0, 1.0, 2.0])
    assert sweep.max_delays()[0] == 0.0
    assert sweep.max_delays()[2] == pytest.approx(2 * sweep.max_delays()[1])
