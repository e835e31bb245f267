"""Differential test: the column-mask match analysis returns exactly
what the pairwise reference (``tests/verify/matchref.py``) returns —
the whole ``MatchAnalysis``, tuple order included — on drawn round
plans with wildcard forms, on every bundled app, and on the racegen
scenarios."""

from __future__ import annotations

import json
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.core import build_graph
from repro.core.matching import MatchResult
from repro.mpisim import run, run_to_files
from repro.testing.racegen import NPROCS, SCENARIOS
from repro.trace.events import EventKind, EventRecord
from repro.verify import DeadlockChain, MatchRace, analyze_matches
from repro.verify.matches import _happens_before

from tests.conftest import plan_program
from tests.verify.matchref import main as matchref_main
from tests.verify.matchref import reference, reference_clocks

APP_PARAMS = {
    "token_ring": {"traversals": 2},
    "stencil1d": {"iterations": 2},
    "stencil2d": {"iterations": 2},
    "master_worker": {"tasks": 40},
    "allreduce_iter": {"iterations": 3},
    "fft_transpose": {"stages": 2},
    "butterfly_allreduce": {"iterations": 2},
    "pipeline": {"items": 4},
    "random_sparse": {"iterations": 2},
}

_round = st.one_of(
    st.tuples(st.just("fanin"), st.integers(0, 4096)),
    st.tuples(st.just("ifanin"), st.integers(0, 4096)),
    st.tuples(st.just("anytag"), st.integers(0, 4096)),
    st.tuples(st.just("pinned"), st.integers(0, 4096)),
    st.tuples(st.just("compute"), st.integers(100, 3000)),
    st.tuples(st.just("ring"), st.integers(0, 2000)),
    st.tuples(st.just("xchg"), st.integers(0, 2000)),
    st.tuples(st.just("nb"), st.integers(0, 2000)),
    st.tuples(st.just("barrier")),
)


def assert_same(build):
    assert np.array_equal(_happens_before(build).vc, reference_clocks(build).vc)
    got = analyze_matches(build)
    assert got == reference(build)
    return got


def hand_built(events, transfers, completions=()):
    """A build-like object over hand-written events: the analysis reads
    only ``events`` and ``match``."""
    match = MatchResult(
        transfer_of=dict(transfers),
        reverse_transfer_of={r: s for s, r in transfers},
        completion_of=dict(completions),
    )
    return SimpleNamespace(events=events, match=match)


@given(
    plan=st.lists(_round, min_size=1, max_size=6),
    p=st.integers(2, 5),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_drawn_plans_match_reference(plan, p, seed):
    assert_same(build_graph(run(plan_program(plan), nprocs=p, seed=seed).trace))


@pytest.mark.parametrize(
    "plan, races, deadlocks",
    [
        ([("fanin", 64)], True, False),
        ([("ifanin", 64)], True, False),
        ([("anytag", 64)], True, True),
        ([("pinned", 64)], True, True),
    ],
)
def test_each_wildcard_form_reaches_its_branch(plan, races, deadlocks):
    """The drawn plans exercise every branch: each form alone yields
    races, and on four ranks the pinned form and the ANY_TAG form (whose
    one tag-20 message an ANY_TAG receive could steal) deadlock chains."""
    got = assert_same(build_graph(run(plan_program(plan), nprocs=4, seed=1).trace))
    assert got.wildcard_receives > 0
    assert bool(got.races) == races
    assert bool(got.deadlocks) == deadlocks


@lru_cache(maxsize=None)
def app_build(name, seed):
    factory, params_cls = ALL_APPS[name]
    nprocs = 8 if name == "butterfly_allreduce" else 4
    trace = run(factory(params_cls(**APP_PARAMS[name])), nprocs=nprocs, seed=seed).trace
    return build_graph(trace)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_apps_match_reference(name, seed):
    assert_same(app_build(name, seed))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_racegen_scenarios_match_reference(scenario):
    trace = run(SCENARIOS[scenario], nprocs=NPROCS, seed=1).trace
    assert_same(build_graph(trace))


def test_module_prints_the_verify_matches_block(tmp_path, capsys):
    """``python -m tests.verify.matchref`` prints what ``repro-verify
    --format json`` reports under ``verification.matches``."""
    from repro import cli

    factory, params_cls = ALL_APPS["master_worker"]
    run_to_files(factory(params_cls(tasks=12)), tmp_path, "mw", nprocs=4, seed=1)
    out = tmp_path / "verify.json"
    argv = ["--traces", str(tmp_path), "--stem", "mw", "--format", "json", "--out", str(out)]
    assert cli.main_verify([*argv, "--quiet"]) == 0
    capsys.readouterr()
    assert matchref_main(["--traces", str(tmp_path), "--stem", "mw"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == json.loads(out.read_text())["verification"]["matches"]
    assert printed["races"]


def test_an_event_does_not_happen_before_itself():
    """A self-addressed SENDRECV (which the simulator refuses, but a
    trace may hold) is both a receive's completion point and a send to
    that receive's rank.  ``hb(a, a)`` is false, so the send stays a
    candidate for the receive completing at it, and the receive whose
    completion is ``m1`` itself can still take ``m1``."""
    ev = EventRecord
    events = [
        [
            ev(0, 0, EventKind.IRECV, 0.0, 1.0, peer=0, req=1, src_any=True),
            ev(0, 1, EventKind.SENDRECV, 1.0, 2.0, peer=0, nbytes=8, recv_peer=1, src_any=True),
            ev(0, 2, EventKind.WAIT, 2.0, 3.0, reqs=(1,), completed=(1,)),
        ],
        [ev(1, 0, EventKind.SEND, 0.0, 1.0, peer=0, nbytes=64)],
    ]
    build = hand_built(events, [((0, 1), (0, 0)), ((1, 0), (0, 1))], [((0, 0), (0, 2))])
    got = assert_same(build)
    assert got.races == (
        MatchRace(recv=(0, 0), matched=(0, 1), alternatives=((1, 0),), divergent=((1, 0),)),
        MatchRace(recv=(0, 1), matched=(1, 0), alternatives=((0, 1),), divergent=((0, 1),)),
    )


@pytest.mark.parametrize("pinned_tag_any", [False, True])
def test_deadlock_only_without_another_feasible_sender(pinned_tag_any):
    """The wildcard could steal rank 2's tag-5 message from the receive
    pinned to rank 2.  That receive starves only when no other feasible
    sender is left: with its tag pinned too, rank 2's tag-6 send cannot
    serve it; posted with ``ANY_TAG``, it can."""
    ev = EventRecord
    events = [
        [
            ev(0, 0, EventKind.RECV, 0.0, 1.0, peer=1, tag=5, src_any=True),
            ev(0, 1, EventKind.RECV, 1.0, 2.0, peer=2, tag=5, tag_any=pinned_tag_any),
            ev(0, 2, EventKind.RECV, 2.0, 3.0, peer=2, tag=6),
        ],
        [ev(1, 0, EventKind.SEND, 0.0, 1.0, peer=0, tag=5)],
        [
            ev(2, 0, EventKind.SEND, 0.0, 1.0, peer=0, tag=5),
            ev(2, 1, EventKind.SEND, 1.0, 2.0, peer=0, tag=6),
        ],
    ]
    transfers = [((1, 0), (0, 0)), ((2, 0), (0, 1)), ((2, 1), (0, 2))]
    got = assert_same(hand_built(events, transfers))
    starved = DeadlockChain(recv=(0, 0), matched=(1, 0), stolen=(2, 0), starved=(0, 1))
    assert got.deadlocks == (() if pinned_tag_any else (starved,))


def test_cycle_is_refused():
    """Two receives each matched to a send posted after the other: the
    happens-before edges form a cycle, which both clock builds refuse."""
    ev = EventRecord
    events = [
        [
            ev(r, 0, EventKind.RECV, 0.0, 1.0, peer=1 - r),
            ev(r, 1, EventKind.SEND, 1.0, 2.0, peer=1 - r),
        ]
        for r in (0, 1)
    ]
    build = hand_built(events, [((0, 1), (1, 0)), ((1, 1), (0, 0))])
    for analysis in (analyze_matches, reference):
        with pytest.raises(ValueError, match="cycle"):
            analysis(build)
