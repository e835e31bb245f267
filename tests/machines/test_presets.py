"""Tests for the preset simulated platforms."""

import pytest

from repro.apps import TokenRingParams, token_ring
from repro.lint import lint_run
from repro.machines import PRESETS, asciq_like, noisy_cluster, quiet_cluster, wan_grid
from repro.mpisim import run


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_build_and_run(name):
    machine = PRESETS[name](4, seed=0)
    assert machine.nprocs == 4
    res = run(token_ring(TokenRingParams(traversals=2)), machine=machine, seed=1)
    assert res.makespan > 0
    assert lint_run(res.trace).ok


def test_presets_deterministic():
    a = run(token_ring(TokenRingParams(traversals=2)), machine=noisy_cluster(4, seed=0), seed=1)
    b = run(token_ring(TokenRingParams(traversals=2)), machine=noisy_cluster(4, seed=0), seed=1)
    assert a.finish_times == b.finish_times


def test_noise_ordering_quiet_fastest():
    """The preset ladder orders as designed: quiet < noisy for the same
    workload, and the WAN grid's slow links dominate everything."""
    prog = token_ring(TokenRingParams(traversals=3, token_bytes=4096))
    quiet = run(prog, machine=quiet_cluster(4, seed=0), seed=1).makespan
    noisy = run(prog, machine=noisy_cluster(4, seed=0), seed=1).makespan
    wan = run(prog, machine=wan_grid(4, seed=0), seed=1).makespan
    assert quiet < noisy < wan


def test_asciq_daemon_phases_differ_per_rank():
    machine = asciq_like(8, skewed_clocks=False)
    phases = {machine.noise[r].parts[0].phase for r in range(8)}
    assert len(phases) == 8  # unsynchronized daemons — the ASCI Q killer


def test_skewed_clocks_default_on():
    machine = quiet_cluster(4, seed=3)
    assert any(c.offset != 0.0 for c in machine.clocks)
    plain = quiet_cluster(4, skewed_clocks=False)
    assert plain.clocks == ()
