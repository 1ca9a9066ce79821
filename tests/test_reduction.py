import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.graph import (DomainError, DynamicGraph, EdgeNotFound, apply_update,
                           connected_graph, drain, gnp_graph)
from decapsp.reduction import UnweightedAPSP, subdivide

from helpers import ref_apsp

INF = math.inf


def assert_doubled(g, expanded):
    """Every distance between original nodes is exactly twice g's."""
    d0 = ref_apsp(g)
    d1 = ref_apsp(expanded)
    for u in range(g.n):
        for v in range(g.n):
            want = INF if d0[u][v] == INF else 2 * d0[u][v]
            assert d1[u][v] == want


def test_single_edge_chain():
    expanded, mid = subdivide(DynamicGraph(2, [(0, 1, 1)]))
    assert (expanded.n, expanded.m) == (3, 2)
    assert mid == {(0, 1): 2}
    assert ref_apsp(expanded)[0][1] == 2


def test_path_counts():
    expanded, mid = subdivide(DynamicGraph(3, [(0, 2, 1), (0, 1, 1)]))
    assert (expanded.n, expanded.m) == (5, 4)
    # edge i in sorted order, not adjacency order, gets midpoint n + i, and
    # each edge's halves are added as (u, c) then (c, v)
    assert mid == {(0, 1): 3, (0, 2): 4}
    assert [list(nbrs) for nbrs in expanded.adj] == [[3, 4], [3], [4], [0, 1], [0, 2]]
    assert all(w == 1 for _, _, w in expanded.edges())


def test_distance_identity_random_pairs():
    rng = random.Random(17)
    g = connected_graph(18, 0.25, 1, rng)
    expanded, mid = subdivide(g)
    assert expanded.n == g.n + g.m and expanded.m == 2 * g.m
    assert sorted(mid.values()) == list(range(g.n, g.n + g.m))
    d0 = ref_apsp(g)
    d1 = ref_apsp(expanded)
    for _ in range(100):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        if d0[u][v] == INF:
            assert d1[u][v] == INF
        else:
            assert d1[u][v] == 2 * d0[u][v]


def test_identity_survives_deletions():
    rng = random.Random(29)
    g = connected_graph(14, 0.3, 1, rng)
    gp, mid = subdivide(g)
    for ev in drain(g, rng):
        c = mid[(ev.u, ev.v)]
        for x in (ev.u, ev.v):
            del gp.adj[x][c]
            del gp.adj[c][x]
        apply_update(g, ev)
        assert_doubled(g, gp)


def test_rejects_weighted_input():
    with pytest.raises(DomainError):
        subdivide(DynamicGraph(2, [(0, 1, 3)]))
    with pytest.raises(DomainError):
        UnweightedAPSP(DynamicGraph(3, [(0, 1, 1), (1, 2, 2)]), 0.5, 0.1, 4, 0)


def snapshot(algo):
    return ([dict(nbrs) for nbrs in algo.inner.g.adj],
            algo.inner.g.version, algo.counters())


def test_delete_refuses_a_non_edge_and_a_double_delete_before_any_change():
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    algo = UnweightedAPSP(g, p=0.5, eps=0.1, tau=2, seed=3)
    assert algo.mid == {(0, 1): 4, (1, 2): 5, (2, 3): 6}
    calls = []
    inner_delete = algo.inner.delete
    algo.inner.delete = lambda u, v: (calls.append((u, v)), inner_delete(u, v))
    # a deletion takes out (a, c) then (c, b), with a < b
    algo.delete(2, 1)
    assert calls == [(1, 5), (5, 2)]
    counts = algo.counters()
    assert (counts["updates"], counts["chain_updates"]) == (1, 2)
    before = snapshot(algo)
    # a non-edge, a half-edge of the expansion and a node out of range, then
    # an edge deleted already: each refused, nothing written
    for (u, v), message in (((0, 2), "not in the original graph"),
                            ((0, 4), "not in the original graph"),
                            ((3, 9), "not in the original graph"),
                            ((1, 2), "already deleted"), ((2, 1), "already deleted")):
        with pytest.raises(EdgeNotFound, match=message):
            algo.delete(u, v)
        assert snapshot(algo) == before and calls == [(1, 5), (5, 2)]
    assert algo.query(1, 2) == INF


def test_query_halves_and_floors():
    algo = UnweightedAPSP(DynamicGraph(2, [(0, 1, 1)]), 0.5, 0.1, 4, 0)
    for estimate, answer in ((2, 1), (3, 1), (3.9, 1), (4, 2), (6.99, 3), (7, 3),
                             (0, 0), (INF, INF)):
        algo.inner.query = lambda u, v: estimate
        assert algo.query(0, 1) == answer


def test_composed_wrapper_stretch():
    rng = random.Random(41)
    g = connected_graph(16, 0.25, 1, rng)
    sub_m = 2 * g.m
    sub_n = g.n + g.m
    p = math.sqrt(sub_n / sub_m)
    algo = UnweightedAPSP(g.copy(), p=p, eps=0.1, tau=4, seed=6)
    truth = g.copy()

    def check():
        d = ref_apsp(truth)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                est = algo.query(u, v)
                if d[u][v] == INF:
                    assert est == INF
                else:
                    assert d[u][v] <= est <= 2.3 * d[u][v] + 1e-9

    check()
    for ev in drain(g, rng):
        algo.apply(ev)
        apply_update(truth, ev)
        check()
    with pytest.raises(DomainError):
        algo.increase(0, 1, 5)
    for u, v in ((0, g.n + 1), (g.n, 0), (-1, 3), (3, -1)):
        with pytest.raises(DomainError):
            algo.query(u, v)


def test_deletions_leave_the_given_graph_untouched():
    """The wrapper keeps one graph, the expanded one: the graph it was built
    from is never written, and a deleted edge is refused there too."""
    g = connected_graph(10, 0.4, 1, random.Random(5))
    before = (g.copy().adj, g.version)
    algo = UnweightedAPSP(g, p=0.5, eps=0.1, tau=4, seed=2)
    order = drain(g, random.Random(6))
    for ev in order:
        algo.apply(ev)
    assert (g.adj, g.version) == before
    assert algo.inner.g.m == 0 and algo.counters()["updates"] == len(order)
    with pytest.raises(EdgeNotFound):
        algo.apply(order[0])
    assert (g.adj, g.version) == before and algo.counters()["updates"] == len(order)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_property_identity(seed):
    rng = random.Random(seed)
    g = gnp_graph(rng.randrange(4, 12), 0.4, 1, rng)
    expanded, mid = subdivide(g)
    assert expanded.n == g.n + g.m and expanded.m == 2 * g.m
    for (u, v), c in mid.items():
        assert u < v and expanded.adj[c] == {u: 1, v: 1}
    assert_doubled(g, expanded)


def test_deletion_refuses_endpoints_that_are_not_plain_ints():
    """2.0 and True hash like 2 and 1, so they would find the midpoint of
    {1, 2}; they are refused as not in the original graph before either
    half of the chain goes."""
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    algo = UnweightedAPSP(g, p=0.5, eps=0.5, tau=2, seed=1)
    before = (algo.counters(), algo.inner.g.m, algo.inner.g.version)
    for u, v in ((1, 2.0), (2.0, 1), (True, 2), (2, True)):
        with pytest.raises(EdgeNotFound, match="not in the original graph"):
            algo.delete(u, v)
        assert (algo.counters(), algo.inner.g.m, algo.inner.g.version) == before
    algo.delete(2, 1)
    assert algo.counters()["chain_updates"] == 2 and algo.inner.g.m == 6
