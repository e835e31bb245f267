"""Edge-case behaviour of the simulation engine."""


from repro.lint import lint_run
from repro.mpisim import (
    Allreduce,
    Barrier,
    Bcast,
    Compute,
    Recv,
    ReduceScatter,
    Scan,
    Send,
    Waitall,
    run,
)
from repro.trace.events import EventKind


class TestDegenerate:
    def test_empty_program(self):
        def prog(me):
            return
            yield  # pragma: no cover

        res = run(prog, nprocs=3, seed=0)
        for rank in range(3):
            kinds = [e.kind for e in res.trace.events_of(rank)]
            assert kinds == [EventKind.INIT, EventKind.FINALIZE]

    def test_zero_cycle_compute(self):
        def prog(me):
            yield Compute(0.0)
            yield Compute(0.0)

        res = run(prog, nprocs=1, seed=0)
        assert res.makespan > 0  # just the init/finalize overheads

    def test_single_rank_collectives(self):
        def prog(me):
            yield Barrier()
            yield Allreduce(nbytes=64)
            yield Bcast(root=0, nbytes=8)
            yield Scan(nbytes=8)
            yield ReduceScatter(nbytes=8)

        res = run(prog, nprocs=1, seed=0)
        assert lint_run(res.trace).ok
        colls = [e for e in res.trace.events_of(0) if e.kind.is_collective]
        assert len(colls) == 5

    def test_zero_byte_messages(self):
        def prog(me):
            if me.rank == 0:
                yield Send(dest=1, nbytes=0)
                yield Recv(source=1)
            else:
                yield Recv(source=0)
                yield Send(dest=0, nbytes=0)

        res = run(prog, nprocs=2, seed=0)
        assert lint_run(res.trace).ok

    def test_empty_waitall(self):
        def prog(me):
            statuses = yield Waitall([])
            assert statuses == []

        res = run(prog, nprocs=1, seed=0)
        wa = [e for e in res.trace.events_of(0) if e.kind == EventKind.WAITALL]
        assert len(wa) == 1
        assert wa[0].reqs == ()


class TestManyMessagesOneChannel:
    def test_heavy_channel_fifo(self):
        """Hundreds of same-channel messages keep strict FIFO pairing."""
        n = 300

        def prog(me):
            if me.rank == 0:
                for i in range(n):
                    yield Send(dest=1, nbytes=i % 97)
            else:
                for i in range(n):
                    st = yield Recv(source=0)
                    assert st.nbytes == i % 97  # order preserved

        res = run(prog, nprocs=2, seed=0)
        assert lint_run(res.trace).ok


class TestManyRanks:
    def test_wide_barrier(self):
        def prog(me):
            yield Compute(10.0 * me.rank)
            yield Barrier()

        res = run(prog, nprocs=200, seed=0)
        entries = []
        exits = []
        for rank in range(200):
            ev = next(e for e in res.trace.events_of(rank) if e.kind == EventKind.BARRIER)
            entries.append(ev.t_start)
            exits.append(ev.t_end)
        assert min(exits) > max(entries)

    def test_trace_validates_at_scale(self):
        def prog(me):
            p = me.size
            yield Send(dest=(me.rank + 1) % p, nbytes=8) if me.rank % 2 == 0 else Compute(1.0)
            if me.rank % 2 == 0:
                yield Recv(source=(me.rank - 1) % p)
            else:
                yield Recv(source=(me.rank - 1) % p)
                yield Send(dest=(me.rank + 1) % p, nbytes=8)

        # Even p so the alternating pattern closes the ring.
        res = run(prog, nprocs=64, seed=0)
        assert lint_run(res.trace).ok
