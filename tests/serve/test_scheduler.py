"""Build-cache tests: content addressing, LRU, coalescing, containment.

Everything here drives :class:`~repro.serve.scheduler.BuildCache`
directly on a private event loop (``asyncio.run`` inside sync tests —
the suite carries no async test plugin).
"""

import asyncio
import itertools
import shutil
import time

import pytest

from repro.core.primitives import BuildConfig
from repro.mpisim import run_to_files
from repro.serve.scheduler import BuildCache, _dir_key, _upload_key
from repro.serve.wire import ServeError
from tests.conftest import _ring_program


@pytest.fixture(scope="module")
def traces_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("serve-traces")
    run_to_files(_ring_program, d, "ring", nprocs=4, seed=3, program_name="ring")
    return d


def _request(traces=None, stem="ring", upload=None):
    return {"traces": traces, "stem": stem, "upload": upload, "signature": None,
            "params": {}, "inject": None}


class TestContentAddressing:
    def test_same_dir_twice_hits_cache(self, traces_dir):
        async def main():
            cache = BuildCache(4)
            e1, cached1 = await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            e2, cached2 = await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            assert (cached1, cached2) == (False, True)
            assert e1 is e2
            assert cache.stats()["builds"] == 1
            assert cache.stats()["hits"] == 1
            cache.clear()
        asyncio.run(main())

    def test_renamed_dir_with_same_bytes_hits_cache(self, traces_dir, tmp_path):
        copy = tmp_path / "elsewhere"
        shutil.copytree(traces_dir, copy)
        async def main():
            cache = BuildCache(4)
            _, cached1 = await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            _, cached2 = await cache.entry_for(_request(str(copy)), BuildConfig())
            assert (cached1, cached2) == (False, True)
            assert cache.stats()["builds"] == 1
            cache.clear()
        asyncio.run(main())

    def test_upload_of_identical_bytes_shares_the_entry(self, traces_dir):
        upload = {p.name: p.read_text() for p in sorted(traces_dir.iterdir())}
        async def main():
            cache = BuildCache(4)
            _, cached1 = await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            entry, cached2 = await cache.entry_for(_request(upload=upload), BuildConfig())
            assert (cached1, cached2) == (False, True)
            assert entry.tempdir is None  # served from the dir-built entry
            cache.clear()
        asyncio.run(main())

    def test_different_config_is_a_different_key(self, traces_dir):
        async def main():
            cache = BuildCache(4)
            await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            await cache.entry_for(
                _request(str(traces_dir)), BuildConfig(collective_mode="butterfly")
            )
            assert cache.stats()["builds"] == 2
            cache.clear()
        asyncio.run(main())

    def test_dir_and_upload_key_agree_on_content(self, traces_dir):
        upload = {p.name: p.read_text() for p in traces_dir.iterdir()}
        config = BuildConfig()
        assert _dir_key(traces_dir, "ring", config) == _upload_key(upload, config)

    def test_missing_stem_is_input_error(self, traces_dir):
        async def main():
            cache = BuildCache(4)
            with pytest.raises(ServeError, match="no trace files"):
                await cache.entry_for(_request(str(traces_dir), stem="ghost"), BuildConfig())
        asyncio.run(main())


class TestCoalescing:
    def test_concurrent_requests_share_one_build(self, traces_dir):
        async def main():
            cache = BuildCache(4)
            results = await asyncio.gather(
                *(cache.entry_for(_request(str(traces_dir)), BuildConfig()) for _ in range(6))
            )
            entries = {id(e) for e, _ in results}
            assert len(entries) == 1
            assert cache.stats()["builds"] == 1
            # one requester paid, the rest coalesced onto its task
            assert sum(1 for _, cached in results if not cached) == 1
            assert cache.stats()["coalesced"] == 5
            cache.clear()
        asyncio.run(main())

    def test_key_hashed_after_the_build_still_counts_as_coalesced(
        self, traces_dir, monkeypatch
    ):
        """A request that arrived while the build ran is coalesced even
        when its own key hashing finishes only after the build did."""
        from repro.serve import scheduler

        cache = BuildCache(4)
        calls = itertools.count()

        def late_key(*args):
            if next(calls) == 1:  # the second hasher outlasts the build
                deadline = time.monotonic() + 60
                while cache.builds == 0 and time.monotonic() < deadline:
                    time.sleep(0.005)
            return _dir_key(*args)

        monkeypatch.setattr(scheduler, "_dir_key", late_key)

        async def main():
            results = await asyncio.gather(
                *(cache.entry_for(_request(str(traces_dir)), BuildConfig()) for _ in range(2))
            )
            assert sorted(cached for _, cached in results) == [False, True]
            assert cache.stats()["builds"] == 1
            assert cache.stats()["coalesced"] == 1
            assert cache.stats()["hits"] == 0
            cache.clear()
        asyncio.run(main())

    def test_build_survives_requester_cancellation(self, traces_dir):
        async def main():
            cache = BuildCache(4)
            task = asyncio.ensure_future(
                cache.entry_for(_request(str(traces_dir)), BuildConfig())
            )
            # let the build get registered in flight, then abandon it
            while not cache._inflight:
                await asyncio.sleep(0.001)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            # the shielded build completes and lands in the cache anyway
            await asyncio.gather(*cache._inflight.values())
            await asyncio.sleep(0)  # let done-callbacks run
            assert cache.stats()["builds"] == 1
            _, cached = await cache.entry_for(_request(str(traces_dir)), BuildConfig())
            assert cached is True
            cache.clear()
        asyncio.run(main())

    def test_failed_build_is_not_cached_and_retries(self, traces_dir, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "ring.rank0000.trace.jsonl").write_text("this is not a trace\n")
        async def main():
            cache = BuildCache(4)
            with pytest.raises(ServeError):
                await cache.entry_for(_request(str(bad)), BuildConfig())
            assert cache.stats()["builds"] == 0
            assert len(cache) == 0
            assert not cache._inflight
        asyncio.run(main())


class TestLRU:
    def test_eviction_keeps_capacity_and_cleans_up(self, traces_dir):
        upload = {p.name: p.read_text() for p in traces_dir.iterdir()}
        async def main():
            cache = BuildCache(1)
            e1, _ = await cache.entry_for(_request(upload=upload), BuildConfig())
            tempdir = e1.tempdir
            assert tempdir is not None
            await cache.entry_for(
                _request(str(traces_dir)), BuildConfig(collective_mode="butterfly")
            )
            assert len(cache) == 1
            assert e1.tempdir is None  # evicted entry's upload dir cleaned up
            cache.clear()
        asyncio.run(main())

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BuildCache(0)


class TestTraceRootConfinement:
    def test_outside_path_is_forbidden(self, traces_dir, tmp_path):
        async def main():
            cache = BuildCache(2, trace_root=str(tmp_path))
            with pytest.raises(ServeError, match="outside"):
                await cache.entry_for(_request(str(traces_dir)), BuildConfig())
        asyncio.run(main())

    def test_relative_path_resolves_under_root(self, traces_dir, tmp_path):
        shutil.copytree(traces_dir, tmp_path / "inside")
        async def main():
            cache = BuildCache(2, trace_root=str(tmp_path))
            _, cached = await cache.entry_for(_request("inside"), BuildConfig())
            assert cached is False
            cache.clear()
        asyncio.run(main())

    def test_dotdot_escape_is_forbidden(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        async def main():
            cache = BuildCache(2, trace_root=str(root))
            with pytest.raises(ServeError, match="outside"):
                await cache.entry_for(_request("../"), BuildConfig())
        asyncio.run(main())
