"""The acceptance scenario, end to end through the real CLI:

a ``repro-sweep`` killed mid-flight (fault-injection hook
``REPRO_FAULT_KILL_AFTER_SHARDS``) and re-invoked with ``--resume``
produces stdout **bit-identical** to an uninterrupted serial run.

These tests shell out: the injected kill is ``os._exit``, which must
take down a real process, not the test runner.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main_trace
from repro.core.checkpoint import KILL_AFTER_SHARDS_ENV
from repro.testing import FAULT_EXIT_CODE

SRC = str(Path(__file__).resolve().parents[2] / "src")
SWEEP = "from repro.cli import main_sweep; import sys; sys.exit(main_sweep(sys.argv[1:]))"


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traces")
    rc = main_trace(
        ["--app", "token_ring", "--nprocs", "4", "--out", str(out),
         "--stem", "ring", "--param", "traversals=2", "--seed", "1"]
    )
    assert rc == 0
    return out


def run_sweep(traced, extra, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop(KILL_AFTER_SHARDS_ENV, None)
    if env_extra:
        env.update(env_extra)
    argv = [sys.executable, "-c", SWEEP,
            "--traces", str(traced), "--stem", "ring",
            "--measure", "quiet", "--seed", "1", "--quiet"] + extra
    return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)


class TestKillAndResume:
    def test_killed_sweep_resumes_bit_identical(self, traced, tmp_path):
        ckpt = str(tmp_path / "ckpt")

        clean = run_sweep(traced, [])
        assert clean.returncode == 0, clean.stderr

        killed = run_sweep(
            traced, ["--checkpoint", ckpt], env_extra={KILL_AFTER_SHARDS_ENV: "3"}
        )
        assert killed.returncode == FAULT_EXIT_CODE, killed.stderr
        shards = list(Path(ckpt).glob("*.json"))
        assert len(shards) == 3  # partial progress survived the kill

        resumed = run_sweep(traced, ["--checkpoint", ckpt, "--resume"])
        assert resumed.returncode == 0, resumed.stderr
        assert resumed.stdout == clean.stdout

    def test_resume_after_clean_run_is_all_cache(self, traced, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = run_sweep(traced, ["--checkpoint", ckpt])
        assert first.returncode == 0, first.stderr
        again = run_sweep(traced, ["--checkpoint", ckpt, "--resume"])
        assert again.returncode == 0, again.stderr
        assert again.stdout == first.stdout

    def test_resume_requires_checkpoint(self, traced):
        res = run_sweep(traced, ["--resume"])
        assert res.returncode != 0
        assert "--resume requires --checkpoint" in res.stderr
