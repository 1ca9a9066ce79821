import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.graph import DynamicGraph, gnp_graph

from helpers import deletion_order, heap_entries, rand_connected, ref_apsp

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
                if x2 == x:
                    adj.setdefault((u, v), {})[x] = uval + val
    return wv, nbr, nbr_min, adj


def audit(algo):
    wv, nbr, nbr_min, adj = rebuilt_layers(algo)

    got_w = {}
    for (a, b), val in algo.w_round.items():
        got_w[(a, b)] = got_w[(b, a)] = val
    assert got_w == wv

    assert {xv: heap_entries(h) for xv, h in algo.nbr_heap.items()} == nbr
    assert algo.nbr_min == nbr_min
    assert {uv: heap_entries(h) for uv, h in algo.adj_heap.items()} == adj

    assert {x: s for x, s in algo.nbr_live.items() if s} == group_by_first(nbr_min)


def group_by_first(pairs):
    out = {}
    for x, v in pairs:
        out.setdefault(x, set()).add(v)
    return out


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
    g = rand_connected(rng, 9, 0.3, 7)
    algo = MultiplicativeAPSP(g, p=1.0, eps=0.9, seed=2)
    order = deletion_order(rng, g)
    check_stretch(algo, 1.0)
    for u, v in order:
        algo.delete(u, v)
        check_stretch(algo, 1.0)


def test_full_deletion_stretch_and_audit():
    rng = random.Random(11)
    g = rand_connected(rng, 10, 0.35, 6)
    algo = MultiplicativeAPSP(g, p=0.4, eps=0.9, seed=3)
    audit(algo)
    check_stretch(algo, 2.9)
    for u, v in deletion_order(rng, g):
        algo.delete(u, v)
        audit(algo)
        check_stretch(algo, 2.9)
    assert algo.g.m == 0


def test_weight_increases_then_deletions():
    rng = random.Random(23)
    g = rand_connected(rng, 8, 0.4, 5)
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
    g = rand_connected(rng, 12, 0.3, 8)
    algo = MultiplicativeAPSP(g, p=0.4, eps=0.9, seed=9)
    order = deletion_order(rng, g)
    for u, v in order:
        algo.delete(u, v)
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
    g = rand_connected(rng, n, 0.3, 5)
    algo = MultiplicativeAPSP(g, p=p, eps=eps, seed=seed + 1)
    audit(algo)
    check_stretch(algo, 2 + eps)
    edges = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(edges)
    for u, v in edges:
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
        before = dict(algo.nbr_min_changes)
        if g.weight(u, v) < g.W and rng.random() < 0.5:
            algo.increase(u, v, rng.randint(g.weight(u, v) + 1, g.W))
            increases += 1
        else:
            algo.delete(u, v)
            live.remove((u, v))
        for xv, count in algo.nbr_min_changes.items():
            assert count - before.get(xv, 0) <= 1, (xv, u, v)
        audit(algo)
    assert increases >= 10
