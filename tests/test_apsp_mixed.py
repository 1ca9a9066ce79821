import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.apsp_mixed import MixedAPSP
from decapsp.graph import DomainError, DynamicGraph, connected_graph, drain, gnp_graph
from decapsp.oracle import bottleneck_weights

from helpers import check_nearest_rows, heap_entries, ref_apsp, ref_dijkstra

INF = math.inf


def audit(algo, prev_heavy):
    g, eng = algo.g, algo.engine

    flat = {(v, w): val for v in range(g.n) for w, val in eng.bunch[v].items()}

    # heaviness: permanent, and every tau-sized cluster is already promoted
    heavy = set(algo.heavy_trees)
    assert heavy >= prev_heavy
    for w in range(g.n):
        if len(eng.cluster[w]) >= algo.tau:
            assert w in heavy

    # pivot and heavy trees all read the one graph; heavy trees stay exact
    # under deletions and increases
    assert all(t.adj is g.adj for t in eng.trees.values())
    for w, tree in algo.heavy_trees.items():
        assert tree.adj is g.adj
        dist = ref_dijkstra(g.adj, w)
        for v in range(g.n):
            want = dist[v] if dist[v] <= tree.cap else INF
            assert tree.level_of[v] == want
    # each node's nearest heavy root is the argmin over the heavy trees
    for v in range(g.n):
        level, w = min(((t.level_of[v], w) for w, t in algo.heavy_trees.items()),
                       default=(INF, None))
        assert algo.heavy_trees.nearest_row[v][v] == level
        assert algo.heavy_trees.nearest[v] == (w if level < INF else None)
    check_nearest_rows(eng.trees)
    check_nearest_rows(algo.heavy_trees)

    # overlap: exactly the light pairwise-cluster entries, exact keys
    want_heaps = {}
    for w in range(g.n):
        if w in heavy:
            continue
        owners = sorted(eng.cluster[w])
        for i, u in enumerate(owners):
            for v in owners[i + 1:]:
                key = flat[(u, w)] + flat[(v, w)]
                want_heaps.setdefault((u, v), {})[w] = key
    assert {uv: heap_entries(h) for uv, h in algo.overlap_heap.items()} == want_heaps
    return heavy


def certificate_minimum(algo, u, v):
    """The query answer recomputed from the certificates: the routes
    through each endpoint's nearest pivot and nearest heavy tree, looked up
    by root, and the least entry of the pair's overlap heap."""
    best = INF
    for trees in (algo.engine.trees, algo.heavy_trees):
        for a, b in ((u, v), (v, u)):
            r = trees.nearest[a]
            if r is not None:
                best = min(best, trees.nearest_row[a][a] + trees[r].level_of[b])
    heap = algo.overlap_heap.get((min(u, v), max(u, v)))
    if heap is not None:
        best = min(best, min(heap_entries(heap).values()))
    return best


def check_stretch(algo, limit):
    dist = ref_apsp(algo.g)
    wmax = bottleneck_weights(algo.g, dist)
    for u in range(algo.g.n):
        for v in range(u + 1, algo.g.n):
            est = algo.query(u, v)
            d = dist[u][v]
            if d == INF:
                assert est == INF
            else:
                assert est >= d - 1e-9
                assert est <= limit * d + wmax[u][v] + 1e-9


def run_deletions(algo, rng, audit_every=True, limit=2.9):
    prev = set(algo.heavy_trees)
    check_stretch(algo, limit)
    for ev in drain(algo.g, rng):
        algo.apply(ev)
        if audit_every:
            prev = audit(algo, prev)
        check_stretch(algo, limit)


def test_small_threshold_promotes_all_clustered():
    rng = random.Random(3)
    g = connected_graph(9, 0.35, 5, rng)
    algo = MixedAPSP(g, p=0.4, eps=0.9, tau=1, seed=8)
    # every node held by at least one bunch is heavy, so no overlap remains
    assert not algo.overlap_heap
    for w in range(g.n):
        assert (w in algo.heavy_trees) == bool(algo.engine.cluster[w])
    run_deletions(algo, rng)


def test_huge_threshold_never_promotes():
    rng = random.Random(4)
    g = connected_graph(9, 0.35, 5, rng)
    algo = MixedAPSP(g, p=0.4, eps=0.9, tau=g.n + 1, seed=8)
    run_deletions(algo, rng)
    assert not algo.heavy_trees
    assert algo.counters()["promotions"] == 0


def test_mid_threshold_promotion_purges_overlap():
    rng = random.Random(9)
    g = connected_graph(12, 0.4, 6, rng)
    algo = MixedAPSP(g, p=0.3, eps=0.9, tau=3, seed=2)
    prev = audit(algo, set())
    saw_promotion_after_init = False
    base = len(algo.heavy_trees)
    for ev in drain(algo.g, rng):
        algo.apply(ev)
        prev = audit(algo, prev)
        if len(algo.heavy_trees) > base:
            saw_promotion_after_init = True
            base = len(algo.heavy_trees)
        check_stretch(algo, 2.9)
    assert algo.counters()["promotions"] == len(algo.heavy_trees)
    # this seed promotes mid-stream, so audit() has checked that trees
    # built during the run read the live graph too
    assert saw_promotion_after_init


def test_increases_then_deletions_with_audit():
    rng = random.Random(15)
    g = connected_graph(8, 0.4, 4, rng)
    algo = MixedAPSP(g, p=0.5, eps=0.6, tau=2, seed=5)
    prev = audit(algo, set())
    edges = [(u, v) for u, v, _ in g.edges()]
    for u, v in edges[: len(edges) // 2]:
        algo.increase(u, v, g.weight(u, v) + rng.randrange(1, 4))
        prev = audit(algo, prev)
        check_stretch(algo, 2.6)
    for u, v in edges:
        if algo.g.has_edge(u, v):
            algo.delete(u, v)
            prev = audit(algo, prev)
            check_stretch(algo, 2.6)


def test_query_trivia():
    g = DynamicGraph(3, [(0, 1, 2)])
    algo = MixedAPSP(g, p=0.5, eps=0.9, tau=2, seed=0)
    assert algo.query(1, 1) == 0
    assert algo.query(0, 2) == INF
    with pytest.raises(ValueError):
        MixedAPSP(g, p=0.5, eps=0.9, tau=0, seed=0)


@pytest.mark.parametrize("tau", [0, 0.5, -2, math.nan])
def test_tau_below_one_or_nan_is_refused(tau):
    """A NaN tau compares false both ways; it would promote nothing."""
    g = DynamicGraph(3, [(0, 1, 2)])
    with pytest.raises(DomainError):
        MixedAPSP(g, p=0.5, eps=0.9, tau=tau, seed=0)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_property_random_mixed_runs(data):
    n = data.draw(st.integers(6, 10), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    p = data.draw(st.sampled_from([0.3, 0.6]), label="p")
    tau = data.draw(st.sampled_from([2, 4]), label="tau")
    rng = random.Random(seed)
    g = connected_graph(n, 0.3, 5, rng)
    algo = MixedAPSP(g, p=p, eps=0.9, tau=tau, seed=seed + 1)
    prev = audit(algo, set())
    check_stretch(algo, 2.9)
    for _, u, v, _ in drain(g, rng):
        if rng.random() < 0.3 and g.weight(u, v) < 40:
            algo.increase(u, v, g.weight(u, v) + rng.randrange(1, 5))
        else:
            algo.delete(u, v)
        prev = audit(algo, prev)
        check_stretch(algo, 2.9)


def test_bunch_increases_update_every_other_owners_overlap_entry():
    # tau 6 leaves light nodes with several owners, so an INCREASE event on
    # (v, w) must re-key w in the heap {u, v} of each other owner u
    rng = random.Random(21)
    g = gnp_graph(20, 0.5, 10, rng)
    algo = MixedAPSP(g, p=g.m ** -0.25, eps=0.6, tau=6, seed=3)
    prev = audit(algo, set())
    live = sorted((u, v) for u, v, _ in g.edges())
    while len(live) > g.n:
        u, v = live[rng.randrange(len(live))]
        if g.weight(u, v) < g.W and rng.random() < 0.5:
            algo.increase(u, v, rng.randint(g.weight(u, v) + 1, g.W))
        else:
            algo.delete(u, v)
            live.remove((u, v))
        prev = audit(algo, prev)
        check_stretch(algo, 2.6)
    assert algo.overlap_touches >= 10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_query_is_the_certificate_minimum(data):
    """After the build and every deletion or rise, heavy nodes promoted
    mid-stream included, each query(u, v) equals the certificate minimum
    recomputed through the trees and the overlap heap.  tau runs from 2 to
    4 on 6 to 14 nodes, where many runs reach a pair that only the heavy
    route from one endpoint answers; with tau 1 every clustered node is
    heavy, and no such pair was seen."""
    n = data.draw(st.integers(6, 14), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    p = data.draw(st.sampled_from([0.1, 0.3, 0.6]), label="p")
    tau = data.draw(st.integers(2, 4), label="tau")
    rng = random.Random(seed)
    g = gnp_graph(n, rng.choice((0.2, 0.4)), rng.choice((1, 6)), rng)
    algo = MixedAPSP(g, p=p, eps=0.5, tau=tau, seed=seed)
    while True:
        for u in range(n):
            for v in range(n):
                want = 0 if u == v else certificate_minimum(algo, u, v)
                assert algo.query(u, v) == want
        check_nearest_rows(algo.engine.trees)
        check_nearest_rows(algo.heavy_trees)
        live = [(u, v) for u, v, _ in g.edges()]
        if not live:
            break
        u, v = rng.choice(live)
        if rng.random() < 0.3:
            algo.increase(u, v, g.weight(u, v) + rng.randint(1, 4))
        else:
            algo.delete(u, v)
