"""Golden bit-identity hashes for graph construction and plan compilation.

Every bundled app at the CI serve-smoke sizes (quiet machine, seed 1)
is built under each combination of ``collective_mode``,
``eager_threshold`` and ``absolute_weights``.  Per case three values are
pinned as literals:

* a sha256 over every node column (rank, seq, phase, kind, t_local,
  label) and every edge column (src, dst, kind, weight, label, and the
  delta's kind, rank, src, dst, nbytes, rounds and uid), in id order;
* a sha256 over the compiled plan's arrays: the level schedule,
  ``uid_mat``/``uid_len``/``uid_kind``, ``final_node`` and
  ``final_t_local`` (the plan is compiled with ``coarsen="on"``, so the
  coarse IR's id arrays are covered whenever a phase is detected);
* :func:`repro.core.checkpoint.build_digest`.

A change to how graphs are stored or compiled must leave all three
unchanged: node and edge ids, floats and uids feed the sampler's RNG
streams, checkpoint keys and every CLI output.
"""

from __future__ import annotations

import hashlib
import itertools

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.core import BuildConfig, build_graph, compiled_plan
from repro.core.checkpoint import build_digest
from repro.machines import PRESETS
from repro.mpisim import run

# CI serve-smoke sizes (.github/workflows/ci.yml), plus two runs long
# enough for phase coarsening to apply.
APPS = {
    "token_ring": (4, {"traversals": 2}),
    "stencil1d": (4, {"iterations": 3}),
    "stencil2d": (4, {"iterations": 2}),
    "master_worker": (4, {"tasks": 9}),
    "allreduce_iter": (4, {"iterations": 4}),
    "fft_transpose": (4, {"stages": 2}),
    "butterfly_allreduce": (8, {"iterations": 2}),
    "pipeline": (4, {"items": 5}),
    "random_sparse": (4, {"iterations": 2}),
}
COARSE_APPS = {
    "stencil1d-long": ("stencil1d", 4, {"iterations": 12}),
    "allreduce_iter-long": ("allreduce_iter", 4, {"iterations": 12}),
}
CONFIGS = {
    f"{mode}-{'eager64' if eager else 'sync'}-{'abs' if absw else 'rel'}": BuildConfig(
        collective_mode=mode, eager_threshold=eager, absolute_weights=absw
    )
    for mode, eager, absw in itertools.product(("hub", "butterfly"), (None, 64), (False, True))
}

_TRACES: dict = {}


def _trace(app: str, nprocs: int, params: dict):
    key = (app, nprocs, tuple(sorted(params.items())))
    if key not in _TRACES:
        factory, params_cls = ALL_APPS[app]
        machine = PRESETS["quiet"](nprocs, seed=1)
        _TRACES[key] = run(factory(params_cls(**params)), machine=machine, seed=1).trace
    return _TRACES[key]


def _f(x: float) -> str:
    return float(x).hex()


def graph_hash(graph) -> str:
    h = hashlib.sha256()
    h.update(f"p={graph.nprocs};n={len(graph.nodes)};e={len(graph.edges)}\n".encode())
    for n in graph.nodes:
        h.update(
            f"{n.node_id},{n.rank},{n.seq},{int(n.phase)},{int(n.kind)},"
            f"{_f(n.t_local)},{n.label!r}\n".encode()
        )
    for e in graph.edges:
        d = e.delta
        h.update(
            f"{e.src},{e.dst},{int(e.kind)},{_f(e.weight)},{e.label!r},"
            f"{int(d.kind)},{d.rank},{d.src},{d.dst},{d.nbytes},{d.rounds},"
            f"{tuple(d.uid)!r}\n".encode()
        )
    h.update(repr(list(graph.final_nodes)).encode())
    return h.hexdigest()


def _arr(h, name: str, a) -> None:
    a = np.ascontiguousarray(a)
    h.update(f"{name}:{a.dtype.str}:{a.shape}\n".encode())
    h.update(a.tobytes())


def plan_hash(plan) -> str:
    h = hashlib.sha256()
    h.update(f"{plan.nprocs}:{plan.n_nodes}:{plan.n_edges}:{len(plan.levels)}\n".encode())
    for i, lv in enumerate(plan.levels):
        for label, name in (("nodes", "dst"), ("src", "src"), ("eid", "ecol"), ("segs", "segs")):
            _arr(h, f"L{i}.{label}", getattr(lv, name))
        # Per-node in-edge counts; the level keeps only the ``segs`` offsets.
        _arr(h, f"L{i}.sizes", np.diff(lv.segs, append=len(lv.ecol)))
        h.update(f"L{i}.single={bool(lv.single)}\n".encode())
    for name in ("uid_mat", "uid_len", "uid_kind", "final_node", "final_t_local"):
        _arr(h, name, getattr(plan, name))
    ir = plan.coarse
    if ir is None:
        h.update(b"coarse=None\n")
    else:
        h.update(
            f"coarse m={ir.m} fold={ir.fold} n_t={ir.n_t} n_te={ir.n_te} "
            f"n_pre={ir.n_pre} n_post={ir.n_post} W={ir.W}\n".encode()
        )
        for name in (
            "run_node_ids",
            "run_edge_ids",
            "pre_node_ids",
            "post_node_ids",
            "static_eids",
            "final_pos",
            "fold_src_pos",
            "zero_offs",
        ):
            _arr(h, name, getattr(ir, name))
        if ir.n_taps:
            _arr(h, "tap_inst", ir.tap_inst)
            _arr(h, "tap_off", ir.tap_off)
        for region in ("pre_levels", "post_levels"):
            for i, lv in enumerate(getattr(ir, region)):
                for name in ("dst", "src", "ecol", "segs"):
                    _arr(h, f"{region}{i}.{name}", getattr(lv, name))
        for i, lv in enumerate(ir.tmpl_levels):
            for name in ("dst", "src_lag", "src_ref", "ecol", "segs"):
                _arr(h, f"tmpl{i}.{name}", getattr(lv, name))
    return h.hexdigest()


def _cases():
    for app, (nprocs, params) in APPS.items():
        for cname in CONFIGS:
            yield f"{app}-{cname}", (app, nprocs, params, cname)
    for case, (app, nprocs, params) in COARSE_APPS.items():
        yield f"{case}-hub-sync-rel", (app, nprocs, params, "hub-sync-rel")


CASES = dict(_cases())

# case -> (graph sha256, plan sha256, build_digest)
GOLDEN = {
    "allreduce_iter-butterfly-eager64-abs": (
        "08b4258c64ea3accfafe0b72ca9f848a66ac0b606f018cf1014c84b6c0d21587",
        "cb2f51d16e0e7a86854f5cce97ca19689a0430daa1ca93c94ba7e0f3a5c92583",
        "96016612c5a6413d",
    ),
    "allreduce_iter-butterfly-eager64-rel": (
        "08b4258c64ea3accfafe0b72ca9f848a66ac0b606f018cf1014c84b6c0d21587",
        "cb2f51d16e0e7a86854f5cce97ca19689a0430daa1ca93c94ba7e0f3a5c92583",
        "96016612c5a6413d",
    ),
    "allreduce_iter-butterfly-sync-abs": (
        "08b4258c64ea3accfafe0b72ca9f848a66ac0b606f018cf1014c84b6c0d21587",
        "cb2f51d16e0e7a86854f5cce97ca19689a0430daa1ca93c94ba7e0f3a5c92583",
        "96016612c5a6413d",
    ),
    "allreduce_iter-butterfly-sync-rel": (
        "08b4258c64ea3accfafe0b72ca9f848a66ac0b606f018cf1014c84b6c0d21587",
        "cb2f51d16e0e7a86854f5cce97ca19689a0430daa1ca93c94ba7e0f3a5c92583",
        "96016612c5a6413d",
    ),
    "allreduce_iter-hub-eager64-abs": (
        "62b0df18a83a958b7477aaf739e5e042462c7ccbda6c7f6fb287bcb5aecd0623",
        "ae7fb1d9fe3e8bb01b866d43a8059c3f700bb77f694ac945478a92d04c8bdeb8",
        "52496365b2f77e13",
    ),
    "allreduce_iter-hub-eager64-rel": (
        "62b0df18a83a958b7477aaf739e5e042462c7ccbda6c7f6fb287bcb5aecd0623",
        "ae7fb1d9fe3e8bb01b866d43a8059c3f700bb77f694ac945478a92d04c8bdeb8",
        "52496365b2f77e13",
    ),
    "allreduce_iter-hub-sync-abs": (
        "62b0df18a83a958b7477aaf739e5e042462c7ccbda6c7f6fb287bcb5aecd0623",
        "ae7fb1d9fe3e8bb01b866d43a8059c3f700bb77f694ac945478a92d04c8bdeb8",
        "52496365b2f77e13",
    ),
    "allreduce_iter-hub-sync-rel": (
        "62b0df18a83a958b7477aaf739e5e042462c7ccbda6c7f6fb287bcb5aecd0623",
        "ae7fb1d9fe3e8bb01b866d43a8059c3f700bb77f694ac945478a92d04c8bdeb8",
        "52496365b2f77e13",
    ),
    "allreduce_iter-long-hub-sync-rel": (
        "96c77cd739bb93d6aa9ff88a8e5a0bb6387a5b2e347ae9d7837943a5bfd5c4c5",
        "c8940a69776fc6fb88178d5f96dbb5c3771a548f95660a251d55fa7ad81da171",
        "7c0112358f07f8bc",
    ),
    "butterfly_allreduce-butterfly-eager64-abs": (
        "8485e634eaccd702ce53b0c9e49fc148c0e360fa4505c7885b51a8d150aa5b65",
        "8e7ca22047fc365ae170a99e7f5c263a4b1186f86727f1e62734106c341641cb",
        "08ad94852b3c94c3",
    ),
    "butterfly_allreduce-butterfly-eager64-rel": (
        "7fa28a9d09658fb2396b20ebd2dcb8bc12776573650dc7a5a5a1fbbe10b0b3b0",
        "8e7ca22047fc365ae170a99e7f5c263a4b1186f86727f1e62734106c341641cb",
        "a3ceb30585a5df4d",
    ),
    "butterfly_allreduce-butterfly-sync-abs": (
        "458e7b5d21d9850aea503ac3588f4463bc1010eea1edee1d42740ae9131bace0",
        "2442c426f5a44a2572bbef04f173e04b27cb74e940b910cf6f376a688580f74d",
        "3ca3bd0fec0bc955",
    ),
    "butterfly_allreduce-butterfly-sync-rel": (
        "93514d67b0a2e3ba2021d4af05c2212980a3f056e79992ef2ffc8f78c2976fa0",
        "2442c426f5a44a2572bbef04f173e04b27cb74e940b910cf6f376a688580f74d",
        "a51d9f86a09a497c",
    ),
    "butterfly_allreduce-hub-eager64-abs": (
        "8485e634eaccd702ce53b0c9e49fc148c0e360fa4505c7885b51a8d150aa5b65",
        "8e7ca22047fc365ae170a99e7f5c263a4b1186f86727f1e62734106c341641cb",
        "08ad94852b3c94c3",
    ),
    "butterfly_allreduce-hub-eager64-rel": (
        "7fa28a9d09658fb2396b20ebd2dcb8bc12776573650dc7a5a5a1fbbe10b0b3b0",
        "8e7ca22047fc365ae170a99e7f5c263a4b1186f86727f1e62734106c341641cb",
        "a3ceb30585a5df4d",
    ),
    "butterfly_allreduce-hub-sync-abs": (
        "458e7b5d21d9850aea503ac3588f4463bc1010eea1edee1d42740ae9131bace0",
        "2442c426f5a44a2572bbef04f173e04b27cb74e940b910cf6f376a688580f74d",
        "3ca3bd0fec0bc955",
    ),
    "butterfly_allreduce-hub-sync-rel": (
        "93514d67b0a2e3ba2021d4af05c2212980a3f056e79992ef2ffc8f78c2976fa0",
        "2442c426f5a44a2572bbef04f173e04b27cb74e940b910cf6f376a688580f74d",
        "a51d9f86a09a497c",
    ),
    "fft_transpose-butterfly-eager64-abs": (
        "d39573f8b3521adc65fd8be79db53d965d425a6f19ed73a02452a3a93045c10b",
        "f2c3d200fbc12acd6ff7e7be9342db8aa4ca01c4602cabed71b7d55e66c72f2d",
        "90be14e984e8139f",
    ),
    "fft_transpose-butterfly-eager64-rel": (
        "d39573f8b3521adc65fd8be79db53d965d425a6f19ed73a02452a3a93045c10b",
        "f2c3d200fbc12acd6ff7e7be9342db8aa4ca01c4602cabed71b7d55e66c72f2d",
        "90be14e984e8139f",
    ),
    "fft_transpose-butterfly-sync-abs": (
        "d39573f8b3521adc65fd8be79db53d965d425a6f19ed73a02452a3a93045c10b",
        "f2c3d200fbc12acd6ff7e7be9342db8aa4ca01c4602cabed71b7d55e66c72f2d",
        "90be14e984e8139f",
    ),
    "fft_transpose-butterfly-sync-rel": (
        "d39573f8b3521adc65fd8be79db53d965d425a6f19ed73a02452a3a93045c10b",
        "f2c3d200fbc12acd6ff7e7be9342db8aa4ca01c4602cabed71b7d55e66c72f2d",
        "90be14e984e8139f",
    ),
    "fft_transpose-hub-eager64-abs": (
        "24e8af2174f93de600fc7828778adea50b56f5a49b9bb3ef05bd53652fbc6386",
        "461c35e13b67887a7ca8a5d934c065357026262c4aec5f23167b85d2139b6047",
        "459a6ad7f3630dd7",
    ),
    "fft_transpose-hub-eager64-rel": (
        "24e8af2174f93de600fc7828778adea50b56f5a49b9bb3ef05bd53652fbc6386",
        "461c35e13b67887a7ca8a5d934c065357026262c4aec5f23167b85d2139b6047",
        "459a6ad7f3630dd7",
    ),
    "fft_transpose-hub-sync-abs": (
        "24e8af2174f93de600fc7828778adea50b56f5a49b9bb3ef05bd53652fbc6386",
        "461c35e13b67887a7ca8a5d934c065357026262c4aec5f23167b85d2139b6047",
        "459a6ad7f3630dd7",
    ),
    "fft_transpose-hub-sync-rel": (
        "24e8af2174f93de600fc7828778adea50b56f5a49b9bb3ef05bd53652fbc6386",
        "461c35e13b67887a7ca8a5d934c065357026262c4aec5f23167b85d2139b6047",
        "459a6ad7f3630dd7",
    ),
    "master_worker-butterfly-eager64-abs": (
        "07b78803a390f168fada1e715518cb2908e9627d535d4c14852776d5b30880c0",
        "f6fb4e15c15ed922c301bdd1f7dec611ed95c0322af3f4ede99ceaf91cefb20f",
        "076bc9b3d42da93d",
    ),
    "master_worker-butterfly-eager64-rel": (
        "23c680ab862b47d2a6040da4f75731aabff6d1514e69e8e7f23086d57f71f42f",
        "f6fb4e15c15ed922c301bdd1f7dec611ed95c0322af3f4ede99ceaf91cefb20f",
        "c94674275ed6d9eb",
    ),
    "master_worker-butterfly-sync-abs": (
        "40a29509aa6a48ec2e5442d55466f55e78115119f17536f5d505648c99532a0f",
        "729c0d52da28d1f1ca4ad22d5d3da3f98b506bb81a077f9e4688272e27dbfe7f",
        "4e9861a621690961",
    ),
    "master_worker-butterfly-sync-rel": (
        "307e171be6f1e0c1c346abaeca7418d4b7446dd57f35ce5809ba45279cf511a8",
        "729c0d52da28d1f1ca4ad22d5d3da3f98b506bb81a077f9e4688272e27dbfe7f",
        "507a6fe8c18f4ff4",
    ),
    "master_worker-hub-eager64-abs": (
        "07b78803a390f168fada1e715518cb2908e9627d535d4c14852776d5b30880c0",
        "f6fb4e15c15ed922c301bdd1f7dec611ed95c0322af3f4ede99ceaf91cefb20f",
        "076bc9b3d42da93d",
    ),
    "master_worker-hub-eager64-rel": (
        "23c680ab862b47d2a6040da4f75731aabff6d1514e69e8e7f23086d57f71f42f",
        "f6fb4e15c15ed922c301bdd1f7dec611ed95c0322af3f4ede99ceaf91cefb20f",
        "c94674275ed6d9eb",
    ),
    "master_worker-hub-sync-abs": (
        "40a29509aa6a48ec2e5442d55466f55e78115119f17536f5d505648c99532a0f",
        "729c0d52da28d1f1ca4ad22d5d3da3f98b506bb81a077f9e4688272e27dbfe7f",
        "4e9861a621690961",
    ),
    "master_worker-hub-sync-rel": (
        "307e171be6f1e0c1c346abaeca7418d4b7446dd57f35ce5809ba45279cf511a8",
        "729c0d52da28d1f1ca4ad22d5d3da3f98b506bb81a077f9e4688272e27dbfe7f",
        "507a6fe8c18f4ff4",
    ),
    "pipeline-butterfly-eager64-abs": (
        "012e2011cdb97d92672927d2005b45deade809fa01f022c603b21c35a99597ff",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "b7de93c3c2c64c7f",
    ),
    "pipeline-butterfly-eager64-rel": (
        "87505b0eb69807285c1cb28901a8a387f31a3bf3a229e74eb0aef1e0545f95e3",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "a7346bd3fb68f5f5",
    ),
    "pipeline-butterfly-sync-abs": (
        "012e2011cdb97d92672927d2005b45deade809fa01f022c603b21c35a99597ff",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "b7de93c3c2c64c7f",
    ),
    "pipeline-butterfly-sync-rel": (
        "87505b0eb69807285c1cb28901a8a387f31a3bf3a229e74eb0aef1e0545f95e3",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "a7346bd3fb68f5f5",
    ),
    "pipeline-hub-eager64-abs": (
        "012e2011cdb97d92672927d2005b45deade809fa01f022c603b21c35a99597ff",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "b7de93c3c2c64c7f",
    ),
    "pipeline-hub-eager64-rel": (
        "87505b0eb69807285c1cb28901a8a387f31a3bf3a229e74eb0aef1e0545f95e3",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "a7346bd3fb68f5f5",
    ),
    "pipeline-hub-sync-abs": (
        "012e2011cdb97d92672927d2005b45deade809fa01f022c603b21c35a99597ff",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "b7de93c3c2c64c7f",
    ),
    "pipeline-hub-sync-rel": (
        "87505b0eb69807285c1cb28901a8a387f31a3bf3a229e74eb0aef1e0545f95e3",
        "d8ed940cbd6eccffd59ff259cee1a2aa5cd7d82f48dc19b477461405376d731d",
        "a7346bd3fb68f5f5",
    ),
    "random_sparse-butterfly-eager64-abs": (
        "5ef3c53286e22304eaca6031b0755c92764cb55990aa238974368db4cee523dd",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "f285fa73b7b79d5c",
    ),
    "random_sparse-butterfly-eager64-rel": (
        "16576569f43bd4fbc7ec8fbc6f6dfdbdfda81dd4ffad990da4db0e5762d2cac4",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "11726e580748b51a",
    ),
    "random_sparse-butterfly-sync-abs": (
        "5ef3c53286e22304eaca6031b0755c92764cb55990aa238974368db4cee523dd",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "f285fa73b7b79d5c",
    ),
    "random_sparse-butterfly-sync-rel": (
        "16576569f43bd4fbc7ec8fbc6f6dfdbdfda81dd4ffad990da4db0e5762d2cac4",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "11726e580748b51a",
    ),
    "random_sparse-hub-eager64-abs": (
        "5ef3c53286e22304eaca6031b0755c92764cb55990aa238974368db4cee523dd",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "f285fa73b7b79d5c",
    ),
    "random_sparse-hub-eager64-rel": (
        "16576569f43bd4fbc7ec8fbc6f6dfdbdfda81dd4ffad990da4db0e5762d2cac4",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "11726e580748b51a",
    ),
    "random_sparse-hub-sync-abs": (
        "5ef3c53286e22304eaca6031b0755c92764cb55990aa238974368db4cee523dd",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "f285fa73b7b79d5c",
    ),
    "random_sparse-hub-sync-rel": (
        "16576569f43bd4fbc7ec8fbc6f6dfdbdfda81dd4ffad990da4db0e5762d2cac4",
        "b913531955543e06b3ca795babaed131cf5b66c38b8b1e83e0798a3b600d3cd7",
        "11726e580748b51a",
    ),
    "stencil1d-butterfly-eager64-abs": (
        "5c33f41bdb5f925399a4b26375a42811c7faf3e03cc7f4755e78d1b0bfb9ee78",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "f94367545ee67ea1",
    ),
    "stencil1d-butterfly-eager64-rel": (
        "17077f5d934d4789a38f5faea0be7b52efaac6528c18cad3e0d896475e108498",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "d14a8a2be1ed13ac",
    ),
    "stencil1d-butterfly-sync-abs": (
        "5c33f41bdb5f925399a4b26375a42811c7faf3e03cc7f4755e78d1b0bfb9ee78",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "f94367545ee67ea1",
    ),
    "stencil1d-butterfly-sync-rel": (
        "17077f5d934d4789a38f5faea0be7b52efaac6528c18cad3e0d896475e108498",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "d14a8a2be1ed13ac",
    ),
    "stencil1d-hub-eager64-abs": (
        "5c33f41bdb5f925399a4b26375a42811c7faf3e03cc7f4755e78d1b0bfb9ee78",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "f94367545ee67ea1",
    ),
    "stencil1d-hub-eager64-rel": (
        "17077f5d934d4789a38f5faea0be7b52efaac6528c18cad3e0d896475e108498",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "d14a8a2be1ed13ac",
    ),
    "stencil1d-hub-sync-abs": (
        "5c33f41bdb5f925399a4b26375a42811c7faf3e03cc7f4755e78d1b0bfb9ee78",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "f94367545ee67ea1",
    ),
    "stencil1d-hub-sync-rel": (
        "17077f5d934d4789a38f5faea0be7b52efaac6528c18cad3e0d896475e108498",
        "7761debf5bd12e1b6c5fc5fef60308c5d15a9839c99c787a3abda394fbbaf7b1",
        "d14a8a2be1ed13ac",
    ),
    "stencil1d-long-hub-sync-rel": (
        "0aaf5b735dc7e157b61a602ed0f0e603f2a462dfec00b0e12f9b5b0e203e3ce3",
        "ba72528623aae9959e98a5abc65ed8dfd9eca0f6c5500069b9765d7668cb50a3",
        "1fb192a0fc43649e",
    ),
    "stencil2d-butterfly-eager64-abs": (
        "89a6bac91fe4ad54e3812c4b8fd57ef01e958b3b29bde3861f4054ee6a5261e9",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "05e18e7825e3e2c6",
    ),
    "stencil2d-butterfly-eager64-rel": (
        "93b70b321472dca087a3a0e2aa66d2d94e5c5f371cd93d7e628f4b6802618831",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "75d06da03dfe6439",
    ),
    "stencil2d-butterfly-sync-abs": (
        "89a6bac91fe4ad54e3812c4b8fd57ef01e958b3b29bde3861f4054ee6a5261e9",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "05e18e7825e3e2c6",
    ),
    "stencil2d-butterfly-sync-rel": (
        "93b70b321472dca087a3a0e2aa66d2d94e5c5f371cd93d7e628f4b6802618831",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "75d06da03dfe6439",
    ),
    "stencil2d-hub-eager64-abs": (
        "89a6bac91fe4ad54e3812c4b8fd57ef01e958b3b29bde3861f4054ee6a5261e9",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "05e18e7825e3e2c6",
    ),
    "stencil2d-hub-eager64-rel": (
        "93b70b321472dca087a3a0e2aa66d2d94e5c5f371cd93d7e628f4b6802618831",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "75d06da03dfe6439",
    ),
    "stencil2d-hub-sync-abs": (
        "89a6bac91fe4ad54e3812c4b8fd57ef01e958b3b29bde3861f4054ee6a5261e9",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "05e18e7825e3e2c6",
    ),
    "stencil2d-hub-sync-rel": (
        "93b70b321472dca087a3a0e2aa66d2d94e5c5f371cd93d7e628f4b6802618831",
        "b84a523bcef6cbf6c1daca94135bd84c7f7ec48478f097153de40201ad7c365d",
        "75d06da03dfe6439",
    ),
    "token_ring-butterfly-eager64-abs": (
        "b62770aba77275a52252707df56c52b0bb58791fcdfde70f6cdba2d373fe9d00",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "734397a04d17c763",
    ),
    "token_ring-butterfly-eager64-rel": (
        "87f5a7bf69f8e7959adc099cc1b84a0107ce9fc37b3fb6e5f5464fa1e9d82ecd",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "e046bbb34852c3f4",
    ),
    "token_ring-butterfly-sync-abs": (
        "b62770aba77275a52252707df56c52b0bb58791fcdfde70f6cdba2d373fe9d00",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "734397a04d17c763",
    ),
    "token_ring-butterfly-sync-rel": (
        "87f5a7bf69f8e7959adc099cc1b84a0107ce9fc37b3fb6e5f5464fa1e9d82ecd",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "e046bbb34852c3f4",
    ),
    "token_ring-hub-eager64-abs": (
        "b62770aba77275a52252707df56c52b0bb58791fcdfde70f6cdba2d373fe9d00",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "734397a04d17c763",
    ),
    "token_ring-hub-eager64-rel": (
        "87f5a7bf69f8e7959adc099cc1b84a0107ce9fc37b3fb6e5f5464fa1e9d82ecd",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "e046bbb34852c3f4",
    ),
    "token_ring-hub-sync-abs": (
        "b62770aba77275a52252707df56c52b0bb58791fcdfde70f6cdba2d373fe9d00",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "734397a04d17c763",
    ),
    "token_ring-hub-sync-rel": (
        "87f5a7bf69f8e7959adc099cc1b84a0107ce9fc37b3fb6e5f5464fa1e9d82ecd",
        "6a33891f7bf4cbd21c905d3682b4f9ebaab66e84b55cb2b85d86da9c9746230e",
        "e046bbb34852c3f4",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_build_and_plan_bit_identical(case):
    app, nprocs, params, cname = CASES[case]
    build = build_graph(_trace(app, nprocs, params), CONFIGS[cname])
    got = (
        graph_hash(build.graph),
        plan_hash(compiled_plan(build, coarsen="on")),
        build_digest(build),
    )
    assert got == GOLDEN[case]


def test_long_cases_coarsen():
    """The golden set really covers the coarse IR."""
    for case, (app, nprocs, params) in COARSE_APPS.items():
        build = build_graph(_trace(app, nprocs, params), CONFIGS["hub-sync-rel"])
        assert compiled_plan(build, coarsen="on").coarse is not None, case
