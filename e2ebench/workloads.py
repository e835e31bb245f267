"""The three benchmark workloads and their seeded input generation.

Each workload fixes an application, its size, the machine signature the
analyzer is given, and how much work one timed sample of each
end-to-end metric does.  The sizes are fixed; only ``--seed`` varies the
inputs (trace timestamps, wildcard match order, the measured signature
and the Monte-Carlo seeds).  See README.md for why each was chosen.

Run as a script, this module generates one workload's inputs into a
directory::

    python3 e2ebench/workloads.py WORKLOAD SEED OUTDIR

It runs in its own process so that simulating the traces and measuring
the signature never touch the analyzer's timings or its peak RSS.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

NPROCS = 4
STEM = "app"
TINY_STEM = "tiny"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``analyze_calls`` / ``dv_calls`` are the one-shot analyze and
    diagnose+verify passes timed together as one sample, and
    ``mc_replicates`` the replicates of one timed ``monte_carlo`` call,
    sized so that a sample takes up to about a second: long enough to
    time well, short enough for its bracketing calibration to track the
    machine's speed.  The stencil's one-shot analysis alone takes about
    4 s, so its other samples are smaller, to fit four rounds in a run.  ``reference_seeds`` replicates are checked against
    the graph reference engine.  ``coarsens`` says whether
    ``coarsen="auto"`` must take the coarse path; a run checks it, so a
    workload that changes path fails instead of changing its timings.
    """

    name: str
    app: str
    params: dict = field(default_factory=dict)
    signature: str = "exponential"  # or "measured"
    analyze_calls: int = 1
    mc_replicates: int = 16
    dv_calls: int = 1
    reference_seeds: int = 3
    coarsens: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # 1300 iterations x 4 ranks x 5 events = 26 008 events, 52 016
        # nodes: just above AUTO_MIN_NODES, so coarsen="auto" coarsens.
        Workload(
            "stencil-oneshot",
            "stencil1d",
            {"iterations": 1300},
            mc_replicates=8,
            reference_seeds=2,
            coarsens=True,
        ),
        # ~1k events of hub collectives; the measured signature sends half
        # the sampler lanes through the scalar fallback.
        Workload(
            "allreduce-measured",
            "allreduce_iter",
            {"iterations": 250},
            signature="measured",
            analyze_calls=2,
            mc_replicates=4,
            dv_calls=10,
        ),
        # ~4k events with wildcard receives: never coarsens, and the
        # match-nondeterminism analysis dominates verify.
        Workload(
            "masterworker-verify",
            "master_worker",
            {"tasks": 1000},
            mc_replicates=64,
        ),
    )
}


def exponential_signature():
    from repro.noise import Constant, Exponential, MachineSignature

    return MachineSignature(
        os_noise=Exponential(80.0),
        latency=Exponential(25.0),
        per_byte=Constant(0.005),
        name="exponential",
    )


def generate(workload: Workload, seed: int, out: Path) -> None:
    """Write the workload's traces, signature and set-up trace to ``out``."""
    from repro.apps import ALL_APPS
    from repro.apps.token_ring import TokenRingParams, token_ring
    from repro.machines.presets import noisy_cluster
    from repro.microbench import measure_machine
    from repro.mpisim import run_to_files

    factory, params_cls = ALL_APPS[workload.app]
    machine = noisy_cluster(NPROCS, seed=seed)
    run_to_files(
        factory(params_cls(**workload.params)),
        out,
        STEM,
        machine=machine,
        seed=seed,
        program_name=workload.app,
    )
    if workload.signature == "measured":
        signature = measure_machine(machine, seed=seed).to_signature()
    else:
        signature = exponential_signature()
    signature.save(out / "signature.json")
    # A two-rank trace the set-up probe compiles, which loads the
    # sampler tables the way the first real analysis would.
    run_to_files(token_ring(TokenRingParams(traversals=1)), out, TINY_STEM, nprocs=2, seed=seed)


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: workloads.py {{{','.join(WORKLOADS)}}} SEED OUTDIR")
    generate(WORKLOADS[sys.argv[1]], int(sys.argv[2]), Path(sys.argv[3]))
