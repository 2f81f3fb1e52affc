"""Link-graph ops: degree rollup and two-tier PageRank
(pipelines/graph.py)."""

import numpy as np
import pyarrow as pa
import pytest

import ray.data


def _edges(rows):
    return ray.data.from_items([{"src": s, "dst": d} for s, d in rows])


def test_degree_table(ray_session):
    from dots_ocr_ray.pipelines.graph import degree_table

    ds = _edges([(0, 1), (0, 2), (1, 2), (2, 0), (0, 1)])  # multi-edge 0->1
    out = {
        r["host"]: (r["out_deg"], r["in_deg"]) for r in degree_table(ds).take_all()
    }
    assert out == {0: (3, 1), 1: (1, 2), 2: (1, 2)}


def test_pagerank_tiers_match_and_sum_to_one(ray_session, exchange_tier):
    from dots_ocr_ray.pipelines.graph import pagerank

    rows = [(i % 11, (i * 7 + 3) % 11) for i in range(200)] + [(12, 0)]  # 12 dangles? no: 12 has out-edge
    rows.append((0, 13))  # 13 is a dangling node (in-edges only)
    ds = _edges(rows)
    t_b = pagerank(ds, num_iters=4)
    exchange_tier()
    t_d = pagerank(ds, num_iters=4)
    rb = dict(zip(t_b.column("host").to_pylist(), t_b.column("rank").to_pylist()))
    rd = dict(zip(t_d.column("host").to_pylist(), t_d.column("rank").to_pylist()))
    assert set(rb) == set(rd)
    assert max(abs(rb[h] - rd[h]) for h in rb) < 1e-12
    assert abs(sum(rb.values()) - 1.0) < 1e-9
    assert all(v > 0 for v in rb.values())


def test_pagerank_star_graph_center_dominates(ray_session):
    from dots_ocr_ray.pipelines.graph import pagerank

    # every leaf points at the center; center dangles
    ds = _edges([(i, 0) for i in range(1, 9)])
    t = pagerank(ds, num_iters=10)
    ranks = dict(zip(t.column("host").to_pylist(), t.column("rank").to_pylist()))
    assert ranks[0] == max(ranks.values())
    leaf_vals = [ranks[i] for i in range(1, 9)]
    assert np.allclose(leaf_vals, leaf_vals[0])


def test_host_edges_rule(ray_session):
    from dots_ocr_ray.pipelines.graph import host_edges_from_documents

    edges = host_edges_from_documents("/root/testdata/sf0.001").take_all()
    import pyarrow.parquet as pq

    n_docs = pq.read_metadata("/root/testdata/sf0.001/documents.parquet").num_rows
    assert len(edges) == 3 * n_docs
    for e in edges[:10]:
        assert 0 <= e["src"] < 40 and 0 <= e["dst"] < 40


def test_connected_hosts_structure_and_tier_parity(ray_session, exchange_tier):
    """The chain fixture yields 25 path components of 16 hosts; the
    driver union-find tier and the distributed min-label propagation
    tier must agree exactly (15-hop chains are label propagation's
    worst case)."""
    from dots_ocr_ray.pipelines.graph import connected_hosts

    sf = "/root/testdata/sf0.001"
    drv = {r["host"]: r["component"] for r in connected_hosts(sf).take_all()}
    exchange_tier()
    dst = {r["host"]: r["component"] for r in connected_hosts(sf).take_all()}
    assert drv == dst
    assert len(drv) == 400
    assert all(comp == host - host % 16 for host, comp in drv.items())
    assert len(set(drv.values())) == 25


def test_inbound_anchor_stats(ray_session):
    """Hand-computed rollup: a hot target with an anchor-count tie must
    break to the lexicographically smallest anchor; multi-batch input
    exercises the partial-count merge."""
    import pyarrow as pa
    import ray.data

    from dots_ocr_ray.pipelines.graph import inbound_anchor_stats

    rows = (
        # hot target: 2×"beta" + 2×"alpha" (tie → alpha), 3 sources
        [("s1", "T", "beta"), ("s2", "T", "beta"), ("s1", "T", "alpha"), ("s3", "T", "alpha")]
        # cold target: single link
        + [("s9", "U", "only")]
        # same source linking twice with the same anchor: n_sources dedups
        + [("s1", "V", "x"), ("s1", "V", "x")]
    )
    links = ray.data.from_arrow(
        pa.table(
            {
                "url": pa.array([r[0] for r in rows]),
                "href": pa.array([r[1] for r in rows]),
                "anchor": pa.array([r[2] for r in rows]),
            }
        )
    ).repartition(3)
    got = {r["href"]: r for r in inbound_anchor_stats(links).take_all()}
    assert got["T"]["n_inbound"] == 4
    assert got["T"]["n_sources"] == 3
    assert got["T"]["n_anchors"] == 2
    assert got["T"]["top_anchor"] == "alpha"
    assert got["U"] == {"href": "U", "n_inbound": 1, "n_sources": 1, "n_anchors": 1, "top_anchor": "only"}
    assert got["V"]["n_inbound"] == 2 and got["V"]["n_sources"] == 1 and got["V"]["top_anchor"] == "x"


def test_frontier_schedule_politeness(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import frontier_schedule

    urls = (
        [f"https://a.test/p{i}" for i in range(5)]
        + [f"https://b.test/q{i}" for i in range(3)]
        + ["https://c.test/solo"]
    )
    out = frontier_schedule(
        ray.data.from_arrow(pa.table({"url": pa.array(urls)}))
    ).take_all()
    assert len(out) == len(urls)
    # no host appears twice within a wave
    seen = set()
    for r in out:
        key = (r["wave"], r["host"])
        assert key not in seen
        seen.add(key)
    # waves are consecutive per host, in deterministic url order
    a_rows = sorted((r["url"], r["wave"]) for r in out if r["host"] == "a.test")
    assert [w for _, w in a_rows] == [0, 1, 2, 3, 4]
    assert [r["wave"] for r in out if r["host"] == "c.test"] == [0]


def test_triangle_count_known_graphs(ray_session):
    from dots_ocr_ray.pipelines.graph import triangle_count

    # K4 = 4 triangles; edges fed DIRECTED + duplicated + self-loop to
    # exercise canonicalization
    k4 = [(a, b) for a in range(4) for b in range(4) if a != b] + [(0, 0), (1, 2)]
    edges = ray.data.from_items([{"src": s, "dst": d} for s, d in k4]).repartition(3)
    assert triangle_count(edges).column("n_triangles")[0].as_py() == 4
    # star graph: no triangles regardless of hub degree
    star = ray.data.from_items([{"src": 0, "dst": i} for i in range(1, 20)])
    assert triangle_count(star).column("n_triangles")[0].as_py() == 0


def test_triangle_count_partition_independent(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.graph import triangle_count

    rng = np.random.RandomState(7)
    rows = [{"src": int(rng.randint(0, 30)), "dst": int(rng.randint(0, 30))} for _ in range(300)]
    a = triangle_count(ray.data.from_items(rows)).column("n_triangles")[0].as_py()
    b = triangle_count(ray.data.from_items(rows).repartition(11)).column("n_triangles")[0].as_py()
    # reference O(n^3) count over the canonical simple graph
    adj = np.zeros((30, 30), dtype=bool)
    for r in rows:
        s, d = r["src"], r["dst"]
        if s != d:
            adj[s, d] = adj[d, s] = True
    ref = int(np.trace(np.linalg.matrix_power(adj.astype(np.int64), 3)) // 6)
    assert a == b == ref


def test_bfs_depths_known_graph_and_tier_parity(ray_session, exchange_tier):
    from dots_ocr_ray.pipelines.graph import bfs_depths

    # 0 -> 1 -> 2 -> 3 chain with a shortcut 0 -> 2 and a cycle 3 -> 0;
    # 9 is disconnected (via 8 -> 9 only, unreachable from seed 0)
    rows = [(0, 1), (1, 2), (2, 3), (0, 2), (3, 0), (8, 9)]
    expect = {0: 0, 1: 1, 2: 1, 3: 2}
    got_b = {
        r["host"]: r["depth"] for r in bfs_depths(_edges(rows), seeds=[0]).take_all()
    }
    exchange_tier()
    got_d = {r["host"]: r["depth"] for r in bfs_depths(_edges(rows), seeds=[0]).take_all()}
    assert got_b == expect
    assert got_d == expect


def test_bfs_depths_multi_seed_and_max_depth(ray_session):
    from dots_ocr_ray.pipelines.graph import bfs_depths

    chain = [(i, i + 1) for i in range(10)]
    # two seeds: min-hop from EITHER; 5 is depth 0 (itself a seed)
    got = {
        r["host"]: r["depth"]
        for r in bfs_depths(_edges(chain), seeds=[0, 5]).take_all()
    }
    assert got[0] == 0 and got[5] == 0
    assert got[3] == 3  # from seed 0
    assert got[7] == 2  # from seed 5, not 7 from seed 0
    # max_depth truncates the frontier expansion
    capped = {
        r["host"]: r["depth"]
        for r in bfs_depths(_edges(chain), seeds=[0], max_depth=3).take_all()
    }
    assert max(capped.values()) == 3 and set(capped) == {0, 1, 2, 3}
    # a seed with no edges still appears at depth 0
    lone = {
        r["host"]: r["depth"]
        for r in bfs_depths(_edges([(1, 2)]), seeds=[99]).take_all()
    }
    assert lone == {99: 0}


def test_hits_tiers_match_and_hub_authority_split(ray_session, exchange_tier):
    from dots_ocr_ray.pipelines.graph import hits

    # bipartite-ish: 0 and 1 point at 5, 6, 7 — pure hubs vs pure
    # authorities; HITS must separate the two roles exactly
    rows = [(h, a) for h in (0, 1) for a in (5, 6, 7)]
    t_b = hits(_edges(rows), num_iters=4)
    exchange_tier()
    t_d = hits(_edges(rows), num_iters=4)
    hb = dict(zip(t_b.column("host").to_pylist(), t_b.column("hub").to_pylist()))
    ab = dict(zip(t_b.column("host").to_pylist(), t_b.column("authority").to_pylist()))
    hd = dict(zip(t_d.column("host").to_pylist(), t_d.column("hub").to_pylist()))
    ad = dict(zip(t_d.column("host").to_pylist(), t_d.column("authority").to_pylist()))
    assert set(hb) == set(hd) == {0, 1, 5, 6, 7}
    assert max(abs(hb[h] - hd[h]) for h in hb) < 1e-12
    assert max(abs(ab[h] - ad[h]) for h in ab) < 1e-12
    assert abs(sum(hb.values()) - 1.0) < 1e-9
    assert abs(sum(ab.values()) - 1.0) < 1e-9
    # hubs carry all hub mass, authorities all authority mass
    assert hb[0] > 0.4 and hb[1] > 0.4 and hb[5] == 0.0
    assert ab[5] > 0.3 and ab[6] > 0.3 and ab[0] == 0.0


def test_personalized_pagerank_tiers_and_seed_mass(ray_session, exchange_tier):
    from dots_ocr_ray.pipelines.graph import pagerank

    rows = [(i % 11, (i * 7 + 3) % 11) for i in range(200)]
    rows.append((0, 13))  # 13 dangles
    t_b = pagerank(_edges(rows), num_iters=4, seeds=[0, 5])
    exchange_tier()
    t_d = pagerank(_edges(rows), num_iters=4, seeds=[0, 5])
    exchange_tier(False)
    rb = dict(zip(t_b.column("host").to_pylist(), t_b.column("rank").to_pylist()))
    rd = dict(zip(t_d.column("host").to_pylist(), t_d.column("rank").to_pylist()))
    assert set(rb) == set(rd)
    assert max(abs(rb[h] - rd[h]) for h in rb) < 1e-12
    assert abs(sum(rb.values()) - 1.0) < 1e-9
    # teleport goes only to seeds: a node unreachable from the seeds
    # has rank exactly 0 — add one and check
    rows2 = [(0, 1), (1, 0), (7, 8)]  # 7->8 disconnected from seed 0
    t2 = pagerank(_edges(rows2), num_iters=4, seeds=[0])
    r2 = dict(zip(t2.column("host").to_pylist(), t2.column("rank").to_pylist()))
    assert r2[7] == 0.0
    assert r2[0] > r2[1] > 0
    # no seed present in the graph → explicit error, both tiers
    import pytest as _pytest

    with _pytest.raises(ValueError):
        pagerank(_edges(rows2), num_iters=2, seeds=[99])
    exchange_tier()
    with _pytest.raises(ValueError):
        pagerank(_edges(rows2), num_iters=2, seeds=[99])


def test_kcore_tiers_match_reference_peel(ray_session):
    from dots_ocr_ray.pipelines.graph import kcore

    def ref(pairs, k):
        from collections import defaultdict

        adj = defaultdict(set)
        for a, b in pairs:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        alive = set(adj)
        changed = True
        while changed:
            changed = False
            for n in list(alive):
                if n in alive and len(adj[n] & alive) < k:
                    alive.discard(n)
                    changed = True
        return alive

    clique = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    chain = [(4, 10), (10, 11), (11, 12)]
    # duplicates, reversed edges and self-loops must not inflate degrees
    noisy = clique + chain + [(1, 0), (0, 1), (2, 2), (3, 1)]
    tri = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    for pairs, k in [(clique + chain, 4), (noisy, 4), (tri, 2), (tri, 3)]:
        exp = ref(pairs, k)
        ds = _edges(pairs)
        got_driver = {r["host"] for r in kcore(ds, k=k).take_all()}
        got_dist = {r["host"] for r in kcore(_edges(pairs), k=k, edge_budget=0).take_all()}
        assert got_driver == exp
        assert got_dist == exp


def test_triangle_count_tier_parity(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.graph import triangle_count

    rng = np.random.RandomState(17)
    rows = [(int(a), int(b)) for a, b in rng.randint(0, 40, (600, 2))]
    t_drv = triangle_count(_edges(rows)).column("n_triangles")[0].as_py()
    t_dist = triangle_count(_edges(rows), pair_budget=0).column("n_triangles")[0].as_py()
    t_wedge = triangle_count(_edges(rows), wedge_budget=0).column("n_triangles")[0].as_py()
    assert t_drv == t_dist == t_wedge
    assert t_drv > 0


def _lpa_dict(tbl):
    return dict(zip(tbl.column("host").to_pylist(), tbl.column("community").to_pylist()))


def _lpa(ds, **kw):
    from dots_ocr_ray.pipelines.graph import label_propagation

    out = label_propagation(ds, **kw)
    import pyarrow.compute as pc

    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
        or [pa.table({"host": pa.array([], pa.int64()), "community": pa.array([], pa.int64())})]
    )
    return t.take(pc.sort_indices(t, sort_keys=[("host", "ascending")]))


def test_label_propagation_two_cliques_with_bridge(ray_session):
    # two 4-cliques joined by one bridge edge: LPA must keep them as
    # two communities labelled by each clique's min node id
    clique = lambda base: [
        (base + i, base + j) for i in range(4) for j in range(i + 1, 4)
    ]
    ds = _edges(clique(0) + clique(10) + [(3, 10)])
    got = _lpa_dict(_lpa(ds, num_iters=6))
    assert {got[i] for i in range(4)} == {0}
    assert {got[10 + i] for i in range(4)} == {10}


def test_label_propagation_tier_parity_and_dup_immunity(ray_session, exchange_tier):
    # duplicated + self-loop + reversed edges must not change votes;
    # the distributed tier must equal the driver tier exactly
    rows = [(i % 13, (i * 5 + 2) % 13) for i in range(300)]
    rows += [(2, 2), (5, 5)]  # self-loops dropped
    rows += rows[:40]  # duplicates collapsed exactly
    ds = _edges(rows)
    drv = _lpa(ds, num_iters=5)
    exchange_tier()
    dist = _lpa(ds, num_iters=5)
    exchange_tier(False)
    assert drv.equals(dist)

    # multiplicity immunity: single copy of each edge gives the same result
    uniq = sorted({(min(s, d), max(s, d)) for s, d in rows if s != d})
    assert _lpa(_edges(uniq), num_iters=5).equals(drv)


def test_label_propagation_bipartite_self_vote_damping(ray_session):
    # a 2-node path is worst-case for naive synchronous LPA (labels
    # swap forever); the self-vote makes min-label win and stay stable
    ds = _edges([(7, 8)])
    for iters in (2, 3, 10):
        got = _lpa_dict(_lpa(ds, num_iters=iters))
        assert got == {7: 7, 8: 7}


def test_label_propagation_empty_and_ring(ray_session):
    ds = _edges([(1, 1)])  # only a self-loop -> empty graph
    assert _lpa(ds, num_iters=3).num_rows == 0

    # a 5-ring converges to the min label everywhere
    ring = [(i, (i + 1) % 5) for i in range(5)]
    got = _lpa_dict(_lpa(_edges(ring), num_iters=10))
    assert set(got.values()) == {0}


def _walks_table(ds, **kw):
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.graph import random_walks

    out = random_walks(ds, **kw)
    t = pa.concat_tables(
        [b for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
        or [
            pa.table(
                {
                    "start_host": pa.array([], pa.int64()),
                    "walk_id": pa.array([], pa.int64()),
                    "step": pa.array([], pa.int64()),
                    "host": pa.array([], pa.int64()),
                }
            )
        ]
    )
    return t.take(
        pc.sort_indices(
            t,
            sort_keys=[
                ("start_host", "ascending"),
                ("walk_id", "ascending"),
                ("step", "ascending"),
            ],
        )
    )


def test_random_walks_tier_parity_and_dup_immunity(ray_session, exchange_tier):
    rows = [(i % 9, (i * 4 + 1) % 9) for i in range(120)]
    rows += rows[:30]  # duplicate edges must not bias choices
    ds = _edges(rows)
    bt = _walks_table(ds, walks_per_node=3, walk_len=5, seed=11)
    exchange_tier()
    dt = _walks_table(ds, walks_per_node=3, walk_len=5, seed=11)
    exchange_tier(False)
    assert bt.equals(dt)
    uniq = sorted({(s, d) for s, d in rows})
    assert _walks_table(_edges(uniq), walks_per_node=3, walk_len=5, seed=11).equals(bt)


def test_random_walks_follow_edges_and_sink_ends_walk(ray_session):
    # 0 -> 1 -> 2, 2 is a sink: every walk from 0 is exactly 0,1,2
    ds = _edges([(0, 1), (1, 2)])
    t = _walks_table(ds, walks_per_node=2, walk_len=5, seed=3)
    rows = t.to_pylist()
    for w in (0, 1):
        path = [r["host"] for r in rows if r["start_host"] == 0 and r["walk_id"] == w]
        assert path == [0, 1, 2]
        path2 = [r["host"] for r in rows if r["start_host"] == 2 and r["walk_id"] == w]
        assert path2 == [2]  # sink: step-0 row only


def test_random_walks_choices_are_valid_neighbors(ray_session):
    rows = [(i % 7, (i * 3 + 2) % 7) for i in range(50)] + [(0, 5), (0, 6)]
    adj = {}
    for s, d in rows:
        adj.setdefault(s, set()).add(d)
    t = _walks_table(_edges(rows), walks_per_node=4, walk_len=6, seed=0)
    by_walk = {}
    for r in t.to_pylist():
        by_walk.setdefault((r["start_host"], r["walk_id"]), []).append(
            (r["step"], r["host"])
        )
    for (start, _w), steps in by_walk.items():
        steps.sort()
        assert steps[0] == (0, start)
        for (s1, h1), (s2, h2) in zip(steps, steps[1:]):
            assert s2 == s1 + 1
            assert h2 in adj[h1]


def test_random_walks_seed_changes_walks(ray_session):
    # two multiplier arms -> out-degree 2+ so choices actually branch
    rows = [(i % 9, (i * 4 + 1) % 9) for i in range(60)] + [
        (i % 9, (i * 5 + 2) % 9) for i in range(60)
    ]
    a = _walks_table(_edges(rows), walks_per_node=2, walk_len=6, seed=1)
    b = _walks_table(_edges(rows), walks_per_node=2, walk_len=6, seed=2)
    assert not a.equals(b)


def _robots(pages_rows, rules_rows, **kw):
    import pyarrow.compute as pc

    from dots_ocr_ray.pipelines.graph import robots_filter

    pages = ray.data.from_arrow(
        pa.table({"url": pa.array(pages_rows, type=pa.string())})
    )
    rules = ray.data.from_arrow(
        pa.table(
            {
                "host": pa.array([r[0] for r in rules_rows], type=pa.string()),
                "prefix": pa.array([r[1] for r in rules_rows], type=pa.string()),
                "allow": pa.array([r[2] for r in rules_rows], type=pa.bool_()),
            }
        )
    )
    out = robots_filter(pages, rules, **kw)
    t = pa.concat_tables(
        [b.select(["url", "allowed"]) for b in out.iter_batches(batch_format="pyarrow") if b.num_rows]
    )
    return dict(zip(t.column("url").to_pylist(), t.column("allowed").to_pylist()))


ROBOTS_PAGES = [
    "https://a.com/",  # matches only the /private disallow? no -> allowed
    "https://a.com/private/x",  # disallowed
    "https://a.com/private/open/y",  # longer allow wins
    "https://a.com/pub",  # no match -> allowed
    "https://b.com/anything",  # whole-host block
    "https://c.com/x",  # no rules for host -> allowed
    "not-a-url",  # unparseable -> allowed
    "https://a.com/tie",  # equal-length allow + disallow -> allow wins
]

ROBOTS_RULES = [
    ("a.com", "/private", False),
    ("a.com", "/private/open", True),
    ("b.com", "/", False),
    ("a.com", "/tie", False),
    ("a.com", "/tie", True),
]

ROBOTS_EXPECT = {
    "https://a.com/": True,
    "https://a.com/private/x": False,
    "https://a.com/private/open/y": True,
    "https://a.com/pub": True,
    "https://b.com/anything": False,
    "https://c.com/x": True,
    "not-a-url": True,
    "https://a.com/tie": True,
}


def test_robots_filter_semantics_broadcast(ray_session):
    assert _robots(ROBOTS_PAGES, ROBOTS_RULES) == ROBOTS_EXPECT


def test_robots_filter_tier_parity(ray_session, exchange_tier):
    exchange_tier()
    assert _robots(ROBOTS_PAGES, ROBOTS_RULES) == ROBOTS_EXPECT


def test_robots_filter_tiers_agree_on_random_rules(ray_session, exchange_tier):
    """Many hosts, several rules each, ties and nested prefixes: the
    broadcast tier (per-host rule runs) and the join tier agree."""
    rng = np.random.default_rng(7)
    segs = ["a", "ab", "b", "x"]
    paths = ["/" + "/".join(rng.choice(segs, size=rng.integers(0, 4))) for _ in range(300)]
    pages = [f"https://h{rng.integers(0, 40)}.org{p}" for p in paths] + ["not-a-url"]
    rules = [
        (f"h{rng.integers(0, 30)}.org", paths[rng.integers(0, len(paths))][: rng.integers(1, 6)], bool(rng.integers(0, 2)))
        for _ in range(120)
    ]
    broadcast = _robots(pages, rules)
    exchange_tier()
    assert _robots(pages, rules) == broadcast
    assert not all(broadcast.values()) and any(broadcast.values())


def test_skipgram_pairs_vs_brute_force(ray_session):
    from dots_ocr_ray.pipelines.graph import skipgram_pairs

    walks = [
        (0, 0, [0, 3, 5, 3]),
        (0, 1, [0, 2]),
        (3, 0, [3, 5, 5]),  # repeated host within a walk
        (7, 0, [7]),  # length-1 walk -> no pairs
    ]
    rows = []
    for start, wid, hs in walks:
        for step, h in enumerate(hs):
            rows.append({"start_host": start, "walk_id": wid, "step": step, "host": h})
    expect = {}
    for _s, _w, hs in walks:
        for i in range(len(hs)):
            for j in range(len(hs)):
                if 1 <= abs(i - j) <= 2:
                    expect[(hs[i], hs[j])] = expect.get((hs[i], hs[j]), 0) + 1
    got = {
        (r["center"], r["context"]): r["n"]
        for r in skipgram_pairs(
            ray.data.from_items(rows).repartition(5), window=2
        ).take_all()
    }
    assert got == expect


def test_modularity_known_values(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import modularity

    def _comm(d):
        return ray.data.from_arrow(
            pa.table(
                {
                    "host": pa.array(list(d), type=pa.int64()),
                    "community": pa.array(list(d.values()), type=pa.int64()),
                }
            )
        )

    # two disjoint triangles, perfect split: Q = 1 - 2*(6/12)^2 = 0.5
    tri2 = _edges([(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10)])
    t = modularity(tri2, _comm({0: 0, 1: 0, 2: 0, 10: 1, 11: 1, 12: 1}))
    assert t.column("modularity")[0].as_py() == 0.5
    assert t.column("n_edges")[0].as_py() == 6
    assert t.column("n_communities")[0].as_py() == 2

    # everything in ONE community: Q = m/m - (2m/2m)^2 = 0
    t1 = modularity(tri2, _comm({v: 0 for v in (0, 1, 2, 10, 11, 12)}))
    assert t1.column("modularity")[0].as_py() == 0.0

    # triangle split into singletons: Q = 0 - 3*(2/6)^2 = -1/3
    tri = _edges([(0, 1), (1, 2), (2, 0), (0, 1), (1, 0)])  # dups collapse
    t3 = modularity(tri, _comm({0: 0, 1: 1, 2: 2}))
    assert t3.column("modularity")[0].as_py() == round(-1 / 3, 9)


def test_modularity_tier_parity(ray_session, exchange_tier):
    """Forcing ``util.broadcast_fits`` to False takes the distributed (two hash_joins +
    label-bucketed fold) tier; it must agree bit-identically with the
    broadcast tier on a random graph, including communities whose
    hosts have no edges at all (n_communities from the assignment)."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import label_propagation, modularity

    rng = np.random.RandomState(23)
    rows = [(int(a), int(b)) for a, b in rng.randint(0, 60, (800, 2))]
    ds = _edges(rows)
    comm_tbl = pa.concat_tables(
        [
            b
            for b in label_propagation(ds).iter_batches(batch_format="pyarrow")
            if b.num_rows
        ]
    )
    # add an edge-less host in its own community: must count in
    # n_communities without touching Q
    comm_tbl = pa.concat_tables(
        [
            comm_tbl,
            pa.table(
                {"host": pa.array([999], pa.int64()), "community": pa.array([999], pa.int64())}
            ),
        ]
    )
    t_b = modularity(ds, ray.data.from_arrow(comm_tbl).repartition(4))
    exchange_tier()
    t_d = modularity(ds, ray.data.from_arrow(comm_tbl).repartition(4))
    assert t_b.column("modularity")[0].as_py() == t_d.column("modularity")[0].as_py()
    assert t_b.column("n_edges")[0].as_py() == t_d.column("n_edges")[0].as_py()
    assert t_b.column("n_communities")[0].as_py() == t_d.column("n_communities")[0].as_py()


def _scc_dict(ds):
    from dots_ocr_ray.pipelines.graph import scc  # noqa: F401

    return {r["host"]: r["scc_id"] for r in ds.take_all()}


def test_scc_known_graphs_driver(ray_session):
    from dots_ocr_ray.pipelines.graph import scc

    # two directed 3-cycles joined by a one-way bridge + a DAG tail
    rows = [(0, 1), (1, 2), (2, 0), (10, 11), (11, 12), (12, 10), (2, 10), (12, 20), (20, 21)]
    got = _scc_dict(scc(_edges(rows)))
    assert got == {0: 0, 1: 0, 2: 0, 10: 10, 11: 10, 12: 10, 20: 20, 21: 21}

    # a pure DAG: every node is its own SCC
    dag = [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert _scc_dict(scc(_edges(dag))) == {0: 0, 1: 1, 2: 2, 3: 3}

    # self-loops and duplicate edges change nothing
    noisy = rows + [(0, 0), (5, 5), (0, 1), (1, 2)]
    got2 = _scc_dict(scc(_edges(noisy)))
    assert got2 == {0: 0, 1: 0, 2: 0, 10: 10, 11: 10, 12: 10, 20: 20, 21: 21}


def test_scc_tier_parity_small(ray_session):
    from dots_ocr_ray.pipelines.graph import scc

    # 3 SCCs (2-cycle, 3-cycle, singleton sink) keeps FW-BW rounds low
    rows = [(1, 2), (2, 1), (5, 6), (6, 7), (7, 5), (2, 5), (7, 9)]
    drv = _scc_dict(scc(_edges(rows)))
    dist = _scc_dict(scc(_edges(rows), edge_budget=0, max_rounds=16))
    assert drv == dist == {1: 1, 2: 1, 5: 5, 6: 5, 7: 5, 9: 9}


def test_scc_distributed_pure_chain_keeps_middle_nodes(ray_session):
    from dots_ocr_ray.pipelines.graph import scc

    # a pure chain: trimming both ends strands the middle nodes with no
    # edges — the final sweep must still assign them as singletons
    rows = [(0, 1), (1, 2), (2, 3), (3, 4)]
    dist = _scc_dict(scc(_edges(rows), edge_budget=0, max_rounds=8))
    assert dist == {i: i for i in range(5)}
    assert dist == _scc_dict(scc(_edges(rows)))


def test_scc_max_rounds_raises(ray_session):
    import pytest as _pytest

    from dots_ocr_ray.pipelines.graph import scc

    # two separate 2-cycles need 2 FW-BW rounds; max_rounds=1 must
    # raise, never return a partial answer
    rows = [(1, 2), (2, 1), (3, 4), (4, 3), (2, 3)]
    with _pytest.raises(RuntimeError, match="not converged"):
        scc(_edges(rows), edge_budget=0, max_rounds=1)


def test_harmonic_centrality_hand_computed(ray_session):
    from dots_ocr_ray.pipelines.graph import harmonic_centrality

    # chain 0 -> 1 -> 2, plus seed 9 reaching 2 directly
    rows = [(0, 1), (1, 2), (9, 2)]
    got = {
        r["host"]: (r["centrality_micro"], r["n_seeds_reaching"])
        for r in harmonic_centrality(_edges(rows), seeds=[0, 9]).take_all()
    }
    # node 1: d(0,1)=1 -> 1e6; node 2: d(0,2)=2 (5e5) + d(9,2)=1 (1e6)
    assert got == {1: (1_000_000, 1), 2: (1_500_000, 2)}

    # unreachable seeds contribute nothing; seed at distance 0 excluded
    got2 = {
        r["host"]: r["centrality_micro"]
        for r in harmonic_centrality(_edges(rows), seeds=[2]).take_all()
    }
    assert got2 == {}


def test_common_neighbor_scores_hand_computed(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import common_neighbor_scores

    # square 0-1-2-3-0 plus pendant 4 on node 0:
    # non-adjacent pairs: (0,2) via {1,3} cn=2; (1,3) via {0,2} cn=2;
    # (1,4),(3,4) via {0} cn=1; (2,4) cn=0
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([0, 1, 2, 3, 0], type=pa.int64()),
                "dst": pa.array([1, 2, 3, 0, 4], type=pa.int64()),
            }
        )
    )
    got = sorted(
        (r["a"], r["b"], r["common_neighbors"])
        for r in common_neighbor_scores(edges, min_common=1).iter_rows()
    )
    assert got == [(0, 2, 2), (1, 3, 2), (1, 4, 1), (3, 4, 1)]
    got2 = sorted(
        (r["a"], r["b"], r["common_neighbors"])
        for r in common_neighbor_scores(edges, min_common=2).iter_rows()
    )
    assert got2 == [(0, 2, 2), (1, 3, 2)]


def test_common_neighbor_driver_distributed_parity(ray_session):
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import common_neighbor_scores

    rng = np.random.default_rng(23)
    src = rng.integers(0, 120, size=3_000).astype(np.int64)
    dst = rng.integers(0, 120, size=3_000).astype(np.int64)
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    ).repartition(7)

    def _rows(ds):
        return sorted(
            (r["a"], r["b"], r["common_neighbors"]) for r in ds.iter_rows()
        )

    driver = _rows(common_neighbor_scores(edges, min_common=2))
    dist = _rows(common_neighbor_scores(edges, min_common=2, pair_budget=0))
    assert driver == dist
    assert len(driver) > 0


def test_common_neighbor_star_cap_bounds_hub(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import common_neighbor_scores

    # hub 1000 connected to 0..49: uncapped, every leaf pair shares
    # the hub (1225 pairs); capped at 8 neighbors only C(8,2)=28 pairs
    # survive — the declared mega-hub approximation
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([1000] * 50, type=pa.int64()),
                "dst": pa.array(list(range(50)), type=pa.int64()),
            }
        )
    )
    full = common_neighbor_scores(edges, min_common=1, pair_budget=0).count()
    capped = common_neighbor_scores(
        edges, min_common=1, pair_budget=0, star_cap=8
    ).count()
    assert full == 1225
    assert capped == 28


def test_degree_assortativity_hand_computed(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import degree_assortativity_stats

    # path 0-1-2-3: degrees 1,2,2,1; edges (0,1),(1,2),(2,3)
    # endpoint sums: S1=(1+2)+(2+2)+(2+1)=10, S2=(1+4)+(4+4)+(4+1)=18,
    # S3=2+4+2=8; dup edges and self-loops must not change anything
    edges = ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([0, 1, 2, 1, 3, 2], type=pa.int64()),
                "dst": pa.array([1, 2, 3, 0, 2, 2], type=pa.int64()),
            }
        )
    ).repartition(3)
    t = degree_assortativity_stats(edges)
    row = t.to_pylist()[0]
    assert row == {
        "n_edges": 3,
        "sum_deg": 10,
        "sum_deg_sq": 18,
        "sum_deg_prod": 8,
    }


def _assortativity_by_pandas(src: list, dst: list) -> dict:
    """The four sums from a pandas degree self-join over the distinct
    undirected edges (self-loops dropped)."""
    import pandas as pd

    e = pd.DataFrame({"s": src, "d": dst})
    e = e[e.s != e.d]
    e = pd.DataFrame({"a": e[["s", "d"]].min(axis=1), "b": e[["s", "d"]].max(axis=1)}).drop_duplicates()
    deg = pd.concat([e.a, e.b]).value_counts().rename_axis("node").reset_index(name="deg")
    j = e.merge(deg.rename(columns={"node": "a", "deg": "da"}), on="a").merge(
        deg.rename(columns={"node": "b", "deg": "db"}), on="b"
    )
    return {
        "n_edges": len(j),
        "sum_deg": int((j.da + j.db).sum()),
        "sum_deg_sq": int((j.da * j.da + j.db * j.db).sum()),
        "sum_deg_prod": int((j.da * j.db).sum()),
    }


def test_degree_assortativity_wide_and_negative_host_ids(ray_session):
    """Host ids of 2^40 and below zero: the stats equal a pandas degree
    self-join (they once tripped a 32-bit pair packing)."""
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import degree_assortativity_stats

    big = 1 << 40
    src = [big, 1, 1, -3, big, 2, -3, 2, big]
    dst = [1, big, 2, big, -3, -3, 1, 2, 7]
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    ).repartition(3)
    assert degree_assortativity_stats(edges).to_pylist()[0] == _assortativity_by_pandas(src, dst)


def test_degree_assortativity_tier_parity(ray_session, exchange_tier):
    """The hash_join degree attach (exchange tier) gives the table of
    the broadcast attach."""
    import numpy as np
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import degree_assortativity_stats

    rng = np.random.default_rng(3)
    src = rng.integers(-20, 60, 400).tolist()
    dst = rng.integers(-20, 60, 400).tolist()
    edges = ray.data.from_arrow(
        pa.table({"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())})
    ).repartition(4)
    broadcast = degree_assortativity_stats(edges)
    exchange_tier()
    exchanged = degree_assortativity_stats(edges)
    assert exchanged.equals(broadcast)
    assert broadcast.to_pylist()[0] == _assortativity_by_pandas(src, dst)


def test_betweenness_path_graph(ray_session):
    # directed path 0→1→2→3: betweenness(1) = 2 (pairs 0→2, 0→3 via 1... plus 1 is
    # on 0→2, 0→3; node 2 on 0→3, 1→3) — classic closed form: interior node i
    # of a directed path of n nodes has (i)(n-1-i) dependent pairs
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import betweenness_centrality

    edges = pa.table({"src": [0, 1, 2], "dst": [1, 2, 3]})
    out = (
        betweenness_centrality(ray.data.from_arrow(edges))
        .to_pandas()
        .set_index("host")["betweenness_micro"]
    )
    assert out.to_dict() == {1: 2_000_000, 2: 2_000_000}


def test_betweenness_partition_invariant(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import betweenness_centrality

    import random

    rng = random.Random(3)
    src = [rng.randrange(30) for _ in range(400)]
    dst = [rng.randrange(30) for _ in range(400)]
    edges = pa.table({"src": src, "dst": dst})
    a = (
        betweenness_centrality(ray.data.from_arrow(edges).repartition(1))
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    b = (
        betweenness_centrality(ray.data.from_arrow(edges).repartition(7))
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b)


def test_betweenness_self_loop_only_graph_is_empty(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import betweenness_centrality

    edges = pa.table({"src": [1, 2], "dst": [1, 2]})
    out = betweenness_centrality(ray.data.from_arrow(edges))
    assert out.count() == 0


def test_reciprocity_exact(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import reciprocity

    # edges: 0→1, 1→0 (mutual pair), 0→2 (one-way), 2→2 (self, dropped),
    # plus a duplicate 0→1 (deduped)
    edges = pa.table({"src": [0, 1, 0, 2, 0], "dst": [1, 0, 2, 2, 1]})
    out = reciprocity(ray.data.from_arrow(edges).repartition(2)).to_pandas()
    assert out["n_edges"][0] == 3
    assert out["n_mutual"][0] == 2  # both directions of the mutual pair
    assert out["reciprocity_micro"][0] == 1_000_000 * 2 // 3


def test_reciprocity_empty(ray_session):
    import pyarrow as pa

    import ray.data

    from dots_ocr_ray.pipelines.graph import reciprocity

    edges = pa.table({"src": [5], "dst": [5]})  # self-loop only
    out = reciprocity(ray.data.from_arrow(edges)).to_pandas()
    assert out["n_edges"][0] == 0 and out["reciprocity_micro"][0] == 0


def test_reciprocity_any_int64_ids(ray_session):
    """Wide and negative host ids: no packing, so nothing is rejected or
    aliased; the counts match a pandas self-merge of the distinct
    self-loop-free edges."""
    import pandas as pd

    from dots_ocr_ray.pipelines.graph import reciprocity

    big = 1 << 40
    rows = [(big, 1), (1, big), (-3, 5), (5, -3), (2, 9), (4, 4), (big, 1), (2, 9)]
    out = reciprocity(_edges(rows).repartition(3)).to_pandas()
    e = pd.DataFrame(rows, columns=["src", "dst"]).drop_duplicates()
    e = e[e.src != e.dst]
    mutual = len(e.merge(e, left_on=["src", "dst"], right_on=["dst", "src"]))
    assert (len(e), mutual) == (5, 4)
    assert out.to_dict("records") == [{"n_edges": 5, "n_mutual": 4, "reciprocity_micro": 800_000}]


@pytest.mark.parametrize("fn", ["triangle_count", "common_neighbor_scores", "betweenness_centrality"])
def test_packed_pair_ops_reject_wide_ids(ray_session, fn):
    """The 31-bit id check holds under ``python -O`` too: a ValueError,
    never an assert.  Ray Data re-raises a task's ValueError as a
    UserCodeException that carries the original's type and message."""
    import dots_ocr_ray.pipelines.graph as graph

    with pytest.raises(Exception, match=r"ValueError: \w+: node ids must fit 31 bits"):
        out = getattr(graph, fn)(_edges([(1 << 40, 1), (1, 2)]))
        if isinstance(out, ray.data.Dataset):
            out.materialize()


def test_betweenness_edge_budget_raises(ray_session, monkeypatch):
    import dots_ocr_ray.pipelines.graph as graph

    monkeypatch.setattr(graph, "BETWEENNESS_EDGE_BUDGET", 1)
    with pytest.raises(ValueError, match="bounded tier"):
        graph.betweenness_centrality(_edges([(0, 1), (1, 2)]))


def test_resolve_redirects_driver_tier(ray_session):
    from dots_ocr_ray.pipelines.graph import resolve_redirects

    # chain 3→2→1→0 (0 is terminal), cycle 10→11→10, spur 12→10 (into
    # the cycle), dup src 3 resolves to min dst
    edges = pa.table(
        {
            "src": [3, 2, 1, 10, 11, 12, 3],
            "dst": [2, 1, 0, 11, 10, 10, 5],
        }
    )
    out = (
        resolve_redirects(ray.data.from_arrow(edges).repartition(3))
        .to_pandas()
        .set_index("src")
        .sort_index()
    )
    assert out.loc[3, "final"] == 0 and out.loc[3, "hops"] == 3
    assert out.loc[2, "final"] == 0 and out.loc[2, "hops"] == 2
    assert out.loc[1, "final"] == 0 and out.loc[1, "hops"] == 1
    assert out.loc[10, "final"] == -1 and out.loc[10, "hops"] == -1
    assert out.loc[11, "final"] == -1
    assert out.loc[12, "final"] == -1  # spur INTO a cycle also loops


def test_resolve_redirects_tier_parity(ray_session):
    import numpy as np

    from dots_ocr_ray.pipelines.graph import resolve_redirects

    rng = np.random.default_rng(7)
    # random functional graph over 200 nodes: 120 sources each point
    # somewhere (chains, merges, the odd cycle)
    srcs = rng.choice(200, size=120, replace=False).astype(np.int64)
    dsts = rng.integers(0, 200, size=120).astype(np.int64)
    edges = pa.table({"src": srcs, "dst": dsts})
    ds = ray.data.from_arrow(edges).repartition(4)
    drv = (
        resolve_redirects(ds)
        .to_pandas()
        .sort_values("src")
        .reset_index(drop=True)
    )
    dist = (
        resolve_redirects(ds, edge_budget=1)
        .to_pandas()
        .sort_values("src")
        .reset_index(drop=True)
    )
    assert drv.equals(dist)


def test_fair_share_budget(ray_session):
    from dots_ocr_ray.pipelines.graph import fair_share_budget

    # demands a=2, b=5, c=10, capacity 9 → water level t = 3
    # (min: 2+3+3 = 8 ≤ 9 < 2+4+4), residual 1 goes to 'b' (key order)
    tbl = pa.table(
        {
            "k": ["a"] * 2 + ["b"] * 5 + ["c"] * 10,
            "one": [1] * 17,
        }
    )
    out = (
        fair_share_budget(
            ray.data.from_arrow(tbl).repartition(3),
            key_col="k",
            demand_col="one",
            capacity=9,
        )
        .to_pandas()
        .set_index("k")
    )
    assert out.loc["a", "alloc"] == 2
    assert out.loc["b", "alloc"] == 4
    assert out.loc["c", "alloc"] == 3
    assert out["alloc"].sum() == 9

    # abundant capacity → everyone saturated, nothing over-allocated
    out2 = (
        fair_share_budget(
            ray.data.from_arrow(tbl), key_col="k", demand_col="one", capacity=100
        )
        .to_pandas()
        .set_index("k")
    )
    assert out2["alloc"].tolist() == out2["demand"].tolist()


def test_resolve_redirects_large_ids_distributed(ray_session):
    from dots_ocr_ray.pipelines.graph import resolve_redirects

    # hash-scale ids above 2^53: a float round-trip would corrupt them
    a, b, c = 2**60 + 1, 2**60 + 4, 2**60 + 8
    edges = pa.table({"src": [a, b], "dst": [b, c]})
    out = (
        resolve_redirects(ray.data.from_arrow(edges), edge_budget=1)
        .to_pandas()
        .set_index("src")
    )
    assert out.loc[a, "final"] == c and out.loc[a, "hops"] == 2
    assert out.loc[b, "final"] == c and out.loc[b, "hops"] == 1
