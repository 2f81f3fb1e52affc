"""Graph-family scale/stress harness — BASELINE.md evidence for the
distributed tiers of pagerank / connected components / k-core /
triangle counting.

Builds a deterministic synthetic host graph big enough to clear every
driver-tier budget (so the DISTRIBUTED plans actually run) and times
each operator at the given parallelism:

* nodes: ``n`` hosts (default 3M — above the 2M node/edge budgets)
* edges: ~4 per node — three multiplicative arms
  (``h → (h*m + c) mod n`` for m in 3,7,11, the host-fixture shape)
  plus the chain arm ``h → h+1`` (long diameters for CC/BFS), with a
  planted hot star (node 0 gains ~n/1000 extra in-edges) so degree
  skew is present, as on a real link graph.

    RAY_GRAFT_CPUS=8  python tools/stress_graph.py [n_nodes]
    RAY_GRAFT_CPUS=32 python tools/stress_graph.py [n_nodes]

``GRAFT_STAGES`` (comma list of pagerank,cc,kcore,triangles; default
all) selects stages — the iterative join-heavy stages (cc, kcore) run
tens of minutes per leg at 3M nodes on 8 CPUs, so the scaling ROW is
measured on the bounded-pass stages (pagerank, triangles) at two CPU
levels, and cc/kcore get one absolute-cost timing at 32.

Prints one JSON line per operator with wall seconds; run at two CPU
levels in fresh processes for the scaling row (the same protocol as
``bench.py --scaling``).
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from dots_ocr_ray.util import make_quiet_hook as _make_quiet
from dots_ocr_ray.util import quiet_ray_data_schema_warnings as _quiet


def edge_dataset(n_nodes: int):
    import numpy as np
    import pyarrow as pa

    import ray.data

    def _block(lo: int, hi: int) -> "pa.Table":
        h = np.arange(lo, hi, dtype=np.int64)
        src = np.concatenate([h, h, h, h])
        dst = np.concatenate(
            [
                (h * 3 + 1) % n_nodes,
                (h * 7 + 2) % n_nodes,
                (h * 11 + 5) % n_nodes,
                (h + 1) % n_nodes,
            ]
        )
        # planted hot star onto node 0 from a 0.1% slice
        star = h[h % 1000 == 7]
        src = np.concatenate([src, star])
        dst = np.concatenate([dst, np.zeros(len(star), dtype=np.int64)])
        return pa.table(
            {"src": pa.array(src, type=pa.int64()), "dst": pa.array(dst, type=pa.int64())}
        )

    n_blocks = 64
    step = (n_nodes + n_blocks - 1) // n_blocks
    bounds = [(i * step, min((i + 1) * step, n_nodes)) for i in range(n_blocks)]
    bounds = [(lo, hi) for lo, hi in bounds if lo < hi]
    return ray.data.from_items(
        [{"lo": lo, "hi": hi} for lo, hi in bounds]
    ).map_batches(
        lambda t: _block(int(t.column("lo")[0].as_py()), int(t.column("hi")[0].as_py())),
        batch_format="pyarrow",
        batch_size=1,
    )


def main() -> None:
    n_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 3_000_000
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    stages = set(
        os.environ.get("GRAFT_STAGES", "pagerank,cc,kcore,triangles").split(",")
    )
    import ray

    _quiet()
    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR", runtime_env={"worker_process_setup_hook": _make_quiet()})
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from dots_ocr_ray.pipelines.dedup import cluster_assign
    from dots_ocr_ray.pipelines.graph import kcore, pagerank, triangle_count
    from dots_ocr_ray.util import bucket_keyed_fold

    results: dict[str, float] = {}

    def _stage(name, val):
        results[name] = val
        print(json.dumps({"stage": name, "val": val, "num_cpus": cpus}), flush=True)

    t0 = time.time()
    edges = edge_dataset(n_nodes).materialize()
    _stage("build_edges", round(time.time() - t0, 2))
    n_edges = edges.count()

    if "pagerank" in stages:
        t0 = time.time()
        pr = pagerank(edges, num_iters=3)
        _stage("pagerank_3it", round(time.time() - t0, 2))
        assert pr.num_rows == n_nodes
    t0 = time.time()
    import pyarrow as pa

    import ray.data

    # CC runs on the CHAIN-FREE arms: the multiplicative arms alone
    # have ~log-n diameter, so min-label + pointer jumping converges in
    # a handful of rounds.  The 3M-hop chain would need ~22 pointer-
    # jump rounds (~30+ min/leg) — that O(log D) convergence behavior
    # is pinned by the 15-hop-chain unit fixture instead; this harness
    # measures per-round throughput at scale, not round count.
    def _drop_chain(t: pa.Table) -> pa.Table:
        import numpy as np

        s = t.column("src").to_numpy(zero_copy_only=False)
        d = t.column("dst").to_numpy(zero_copy_only=False)
        keep = d != (s + 1) % n_nodes
        return pa.table(
            {"a": pa.array(s[keep]), "b": pa.array(d[keep])}
        )

    if "cc" in stages:
        cc_edges = edges.map_batches(_drop_chain, batch_format="pyarrow")
        nodes = edges.select_columns(["src"]).map_batches(
            lambda t: pa.table({"id": t.column("src")}), batch_format="pyarrow"
        )
        cc = cluster_assign(
            bucket_keyed_fold(nodes, "id", {}),
            cc_edges,
            id_col="id",
        )
        n_cc = cc.count()
        _stage("connected_components", round(time.time() - t0, 2))
        assert n_cc == n_nodes

    if "kcore" in stages:
        t0 = time.time()
        core = kcore(edges, k=4)
        _stage("kcore_k4", round(time.time() - t0, 2))
        results["kcore_nodes"] = core.count()

    if "triangles" in stages:
        t0 = time.time()
        tri = triangle_count(edges)
        _stage("triangle_count", round(time.time() - t0, 2))
        results["n_triangles"] = int(tri.column("n_triangles")[0].as_py())

    print(
        json.dumps(
            {
                "harness": "stress_graph",
                "n_nodes": n_nodes,
                "n_edges": n_edges,
                "num_cpus": cpus,
                **results,
            }
        )
    )
    ray.shutdown()


if __name__ == "__main__":
    main()
