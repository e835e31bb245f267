"""Cold start: the analysis tools never import scipy.

scipy backs one job, fitting microbenchmark samples to distribution
families (§5), done once per machine by ``repro-microbench`` or an
analysis's ``--measure``.  The traversal only consumes the fitted
signature, so every other tool starts without it.  ``repro-verify``'s
quantile bounds for Normal-family and Gamma draws, and sampling a
TruncatedNormal, need :mod:`scipy.special` only, never
:mod:`scipy.stats`.  Nor does any tool load the object-graph test
oracle, :mod:`repro.testing.oracle`.  Each check runs
its entry points in a fresh interpreter, where ``sys.modules`` shows
what a user's start-up paid for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.noise import Exponential, MachineSignature
from repro.noise.distributions import Gamma, LogNormal, TruncatedNormal

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs ``[[entry_point, argv], ...]`` from ``argv[1]`` in order and
#: prints, after each, its exit status and whether the module named by
#: ``argv[2]`` is loaded.
PROBE = """
import json, sys
from repro import cli
rows = []
for name, argv in json.loads(sys.argv[1]):
    try:
        rc = getattr(cli, name)(argv)
    except SystemExit as exc:
        rc = exc.code
    rows.append([name, rc, sys.argv[2] in sys.modules])
print(json.dumps(rows))
"""


def run_fresh(*calls, module="scipy"):
    """``[[name, exit status, module loaded], ...]`` for ``calls`` run
    one after another in one new interpreter."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(calls), module],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def ring(tmp_path_factory):
    """A 2-rank token_ring trace set and an exponential signature."""
    d = tmp_path_factory.mktemp("cold-start")
    argv = ["--app", "token_ring", "--nprocs", "2", "--out", str(d), "--stem", "ring", "--quiet"]
    assert cli.main_trace(argv) == 0
    MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(25.0), name="exponential"
    ).save(d / "sig.json")
    return d


def analysis_args(d, *signature):
    """An analysis of ``d``'s ring under ``signature`` flags (default:
    its exponential signature)."""
    signature = signature or ("--signature", str(d / "sig.json"))
    return ["--traces", str(d), "--stem", "ring", *signature, "--quiet"]


def test_help_loads_no_scipy():
    rows = run_fresh(*[(name, ["--help"]) for name in cli.__all__])
    assert rows == [[name, 0, False] for name in cli.__all__]


def test_analysis_runs_load_no_scipy(ring):
    tools = ("main_analyze", "main_diagnose", "main_verify")
    rows = run_fresh(*[(name, analysis_args(ring)) for name in tools])
    assert rows == [[name, 0, False] for name in tools]


def test_analysis_runs_load_no_oracle(ring):
    """The object-graph oracle is a test reference: no tool loads it,
    Monte-Carlo replicates included."""
    runs = [
        ("main_analyze", [*analysis_args(ring), "--replicates", "4"]),
        ("main_sweep", analysis_args(ring)),
        ("main_diagnose", analysis_args(ring)),
        ("main_verify", analysis_args(ring)),
    ]
    rows = run_fresh(*runs, module="repro.testing.oracle")
    assert rows == [[name, 0, False] for name, _ in runs]


def test_verify_bounds_load_no_scipy_stats(ring):
    """Bounding LogNormal and Gamma draws takes scipy.special's
    quantiles, not scipy.stats."""
    MachineSignature(
        os_noise=LogNormal(4.0, 0.5), latency=Gamma(2.0, 10.0), name="lognormal"
    ).save(ring / "lognormal.json")
    verify = analysis_args(ring, "--signature", str(ring / "lognormal.json"))
    assert run_fresh(("main_verify", verify), module="scipy.stats") == [["main_verify", 0, False]]
    assert run_fresh(("main_verify", verify), module="scipy.special") == [["main_verify", 0, True]]


def test_truncated_normal_analysis_loads_no_scipy_stats(ring):
    """Sampling and the moments of a TruncatedNormal take scipy.special's
    ndtr/ndtri, not scipy.stats."""
    MachineSignature(
        os_noise=TruncatedNormal(50.0, 10.0, lower=0.0), latency=Exponential(25.0), name="trunc"
    ).save(ring / "trunc.json")
    analyze = analysis_args(ring, "--signature", str(ring / "trunc.json"))
    assert run_fresh(("main_analyze", analyze), module="scipy.stats") == [["main_analyze", 0, False]]
    assert run_fresh(("main_analyze", analyze), module="scipy.special") == [
        ["main_analyze", 0, True]
    ]


def test_fitting_loads_scipy(ring):
    """The two exceptions: measuring a machine fits its samples."""
    measure = analysis_args(ring, "--measure", "quiet")
    microbench = ["--machine", "quiet", "--out", str(ring / "measured.json"), "--quiet"]
    assert run_fresh(("main_microbench", microbench)) == [["main_microbench", 0, True]]
    assert run_fresh(("main_analyze", measure)) == [["main_analyze", 0, True]]


def test_fitting_names_still_exported():
    import repro.noise
    from repro.noise import FitResult, fit_best, fitting

    assert (FitResult, fit_best) == (fitting.FitResult, fitting.fit_best)
    assert {"FitResult", "fit_best"} <= set(repro.noise.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        repro.noise.no_such_name  # noqa: B018
