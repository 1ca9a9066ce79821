import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.cli import RunConfig, bound_for
from decapsp.graph import DynamicGraph, churn, connected_graph, drain, gnp_graph
from decapsp.oracle import sweep

from helpers import check_nearest_rows, heap_entries, ref_apsp

INF = math.inf


def rebuilt_layers(algo):
    """Recompute every index of the layered structure from scratch.

    Ground truth is only the current graph plus the bunch engine state; the
    incremental bookkeeping must coincide with this exactly.
    """
    g, eng, rounder = algo.g, algo.engine, algo.rounder
    wv = {}
    for a, b, w in g.edges():
        wv[(a, b)] = wv[(b, a)] = rounder.round(w)

    nbr = {}
    for v in range(g.n):
        for y, yval in eng.bunch[v].items():
            for x in g.adj[y]:
                nbr.setdefault((x, v), {})[y] = wv[(x, y)] + yval
    nbr_min = {xv: rounder.round(min(entries.values()))
               for xv, entries in nbr.items()}

    adj = {}
    for u in range(g.n):
        for x, uval in eng.bunch[u].items():
            for (x2, v), val in nbr_min.items():
                if x2 == x and u < v:
                    adj.setdefault((u, v), {})[x] = uval + val
    return wv, nbr, nbr_min, adj


def audit(algo):
    g = algo.g
    _, nbr, nbr_min, adj = rebuilt_layers(algo)

    assert all(algo.w_round[w] == algo.rounder.round(w) for _, _, w in g.edges())

    assert len(algo.nbr_heap) == len(algo.nbr_min) == len(algo.adj_heap) == g.n
    assert by_pair(algo.nbr_heap, heap_entries) == nbr
    assert by_pair(algo.nbr_min) == nbr_min
    assert by_pair(algo.adj_heap, heap_entries) == adj
    assert all(v > u for u, row in enumerate(algo.adj_heap) for v in row)
    check_nearest_rows(algo.engine.trees)


def certificate_minimum(algo, u, v):
    """The query answer recomputed from the certificates: both pivot routes
    through each endpoint's nearest pivot tree, looked up by root, and the
    least entry of the pair's one adjacency heap, held by the smaller node."""
    trees = algo.engine.trees
    best = INF
    for a, b in ((u, v), (v, u)):
        s = trees.nearest[a]
        if s is not None:
            best = min(best, trees.nearest_row[a][a] + trees[s].level_of[b])
    heap = algo.adj_heap[min(u, v)].get(max(u, v))
    if heap is not None:
        best = min(best, min(heap_entries(heap).values()))
    return best


def by_pair(rows, value=lambda v: v):
    """Flatten a per-node list of dicts into a dict keyed by node pair."""
    return {(x, v): value(val) for x, row in enumerate(rows) for v, val in row.items()}


def check_stretch(algo, limit):
    dist = ref_apsp(algo.g)
    for u in range(algo.g.n):
        for v in range(u + 1, algo.g.n):
            est = algo.query(u, v)
            d = dist[u][v]
            if d == INF:
                assert est == INF
            else:
                assert est >= d - 1e-9
                assert est <= limit * d + 1e-9


def test_query_self_and_disconnected():
    g = DynamicGraph(4, [(0, 1, 3)])
    algo = MultiplicativeAPSP(g, p=0.5, eps=0.9, seed=1)
    assert algo.query(2, 2) == 0
    assert algo.query(2, 3) == INF
    assert algo.query(0, 3) == INF


def test_all_pivots_gives_exact_distances():
    rng = random.Random(5)
    g = connected_graph(9, 0.3, 7, rng)
    algo = MultiplicativeAPSP(g, p=1.0, eps=0.9, seed=2)
    check_stretch(algo, 1.0)
    for ev in drain(g, rng):
        algo.apply(ev)
        check_stretch(algo, 1.0)


def test_full_deletion_stretch_and_audit():
    rng = random.Random(11)
    g = connected_graph(10, 0.35, 6, rng)
    algo = MultiplicativeAPSP(g, p=0.4, eps=0.9, seed=3)
    audit(algo)
    check_stretch(algo, 2.9)
    for ev in drain(g, rng):
        algo.apply(ev)
        audit(algo)
        check_stretch(algo, 2.9)
    assert algo.g.m == 0


def test_weight_increases_then_deletions():
    rng = random.Random(23)
    g = connected_graph(8, 0.4, 5, rng)
    algo = MultiplicativeAPSP(g, p=0.5, eps=0.6, seed=4)
    edges = [(u, v) for u, v, _ in g.edges()]
    for u, v in edges[: len(edges) // 2]:
        algo.increase(u, v, g.weight(u, v) + rng.randrange(1, 6))
        audit(algo)
        check_stretch(algo, 2.6)
    for u, v in edges:
        if algo.g.has_edge(u, v):
            algo.delete(u, v)
            audit(algo)
            check_stretch(algo, 2.6)


def test_counters_within_bounds():
    rng = random.Random(7)
    g = connected_graph(12, 0.3, 8, rng)
    algo = MultiplicativeAPSP(g, p=0.4, eps=0.9, seed=9)
    order = drain(g, rng)
    for ev in order:
        algo.apply(ev)
    c = algo.counters()
    log_bound = math.ceil(math.log(max(g.n * g.W, 2), 1.3))
    assert c["bunch_rebuilds_max"] <= algo.engine.rebuild_bound()
    assert c["nbr_min_changes_max"] <= log_bound * log_bound
    assert c["updates"] == len(order)


def test_determinism_same_seed():
    g1 = gnp_graph(14, 0.3, 6, random.Random(31))
    g2 = gnp_graph(14, 0.3, 6, random.Random(31))
    a1 = MultiplicativeAPSP(g1, p=0.4, eps=0.9, seed=12)
    a2 = MultiplicativeAPSP(g2, p=0.4, eps=0.9, seed=12)
    edges = [(u, v) for u, v, _ in g1.edges()]
    for u, v in edges[: len(edges) // 2]:
        a1.delete(u, v)
        a2.delete(u, v)
    for u in range(14):
        for v in range(u + 1, 14):
            assert a1.query(u, v) == a2.query(u, v)
    assert a1.counters() == a2.counters()


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_property_random_mixed_runs(data):
    n = data.draw(st.integers(6, 10), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    p = data.draw(st.sampled_from([0.3, 0.6]), label="p")
    eps = data.draw(st.sampled_from([0.5, 0.9]), label="eps")
    rng = random.Random(seed)
    g = connected_graph(n, 0.3, 5, rng)
    algo = MultiplicativeAPSP(g, p=p, eps=eps, seed=seed + 1)
    audit(algo)
    check_stretch(algo, 2 + eps)
    for _, u, v, _ in drain(g, rng):
        if rng.random() < 0.3 and g.weight(u, v) < 40:
            algo.increase(u, v, g.weight(u, v) + rng.randrange(1, 5))
        else:
            algo.delete(u, v)
        audit(algo)
        check_stretch(algo, 2 + eps)


def test_each_neighborhood_minimum_changes_at_most_once_per_update():
    # an update re-rounds each touched (x, v) minimum once, after all of
    # its bunch events, so no counter grows by more than 1 per update
    rng = random.Random(17)
    g = gnp_graph(20, 0.4, 10, rng)
    algo = MultiplicativeAPSP(g, p=0.15, eps=0.6, seed=6)
    live = sorted((u, v) for u, v, _ in g.edges())
    increases = 0
    while len(live) > g.n:
        u, v = live[rng.randrange(len(live))]
        before = [dict(row) for row in algo.nbr_min_changes]
        if g.weight(u, v) < g.W and rng.random() < 0.5:
            algo.increase(u, v, rng.randint(g.weight(u, v) + 1, g.W))
            increases += 1
        else:
            algo.delete(u, v)
            live.remove((u, v))
        for x, row in enumerate(algo.nbr_min_changes):
            for t, count in row.items():
                assert count - before[x].get(t, 0) <= 1, ((x, t), u, v)
        audit(algo)
    assert increases >= 10


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_query_is_the_certificate_minimum(data):
    """After the build and every deletion or rise, each query(u, v) equals
    the certificate minimum recomputed through the trees and heaps."""
    n = data.draw(st.integers(2, 12), label="n")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    p = data.draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]), label="p")
    rng = random.Random(seed)
    g = gnp_graph(n, rng.choice((0.2, 0.4)), rng.choice((1, 6)), rng)
    algo = MultiplicativeAPSP(g, p=p, eps=0.5, seed=seed)
    while True:
        for u in range(n):
            for v in range(n):
                want = 0 if u == v else certificate_minimum(algo, u, v)
                assert algo.query(u, v) == want
        check_nearest_rows(algo.engine.trees)
        live = [(u, v) for u, v, _ in g.edges()]
        if not live:
            break
        u, v = rng.choice(live)
        if rng.random() < 0.3:
            algo.increase(u, v, g.weight(u, v) + rng.randint(1, 4))
        else:
            algo.delete(u, v)


class SymmetricQueries:
    """Passes updates to algo and asserts, at every query the sweep makes,
    that both orders of the pair get the same answer."""

    def __init__(self, algo):
        self.algo = algo
        self.apply = algo.apply

    def query(self, u, v):
        est = self.algo.query(u, v)
        assert self.algo.query(v, u) == est, (u, v)
        return est


@pytest.mark.parametrize("p", [0.05, 0.1, None])
@pytest.mark.parametrize("W", [1, 10])
def test_stretch_at_few_pivots(p, W):
    """With few pivots most answers come from the one adjacency heap of each
    pair u < v; every answer stays within 2 + eps after the build and after
    every update of a full drain and of a churn stream (rises and deletions
    at W = 10, deletions only at W = 1)."""
    eps = 0.5
    bound = bound_for(RunConfig(algorithm="mult", eps=eps))
    for seed in range(1, 9):
        rng = random.Random(seed)
        g = gnp_graph(20, 0.3, W, rng)
        for updates in (drain(g, rng), churn(g, random.Random(seed), g.W)):
            algo = MultiplicativeAPSP(g.copy(), p, eps, seed)
            report = sweep(SymmetricQueries(algo), g.copy(), updates, bound, dense=True)
            assert report.ok, report.violations[:3]


@pytest.mark.parametrize("eps", [4.85, 5.0, 20.0, 1e308])
def test_an_eps_above_the_proofs_limit_rounds_as_4_85(eps):
    """The stretch proof needs (1 + eps/3)^2 <= 2 + eps, which holds up to
    eps = 4.85 and fails from 4.86 on; a larger eps rounds at 4.85 / 3, so
    it answers as eps = 4.85 does, within 2 + 4.85, after every deletion;
    at eps <= 4.85 the engine rounds at eps / 3 as before."""
    assert (1 + 4.85 / 3) ** 2 <= 2 + 4.85 and (1 + 4.86 / 3) ** 2 > 2 + 4.86
    rng = random.Random(8)
    g = connected_graph(20, 0.3, 10, rng)
    updates = drain(g, rng)
    capped = MultiplicativeAPSP(g.copy(), 0.3, eps, 2)
    same = MultiplicativeAPSP(g.copy(), 0.3, 4.85, 2)
    assert capped.rounder.eps == same.rounder.eps == 4.85 / 3
    assert MultiplicativeAPSP(g.copy(), 0.3, 0.9, 2).rounder.eps == 0.9 / 3
    bound = bound_for(RunConfig(algorithm="mult", eps=4.85))
    assert sweep(capped, g.copy(), updates, bound, dense=True).ok
    for ev in updates:
        same.apply(ev)
    assert all(capped.query(u, v) == same.query(u, v) for u in range(20) for v in range(20))
