import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.graph import (
    DELETE,
    DomainError,
    DynamicGraph,
    EdgeNotFound,
    UpdateEvent,
    apply_update,
    gnp_graph,
)
from decapsp.reduction import SubdividedGraph, UnweightedAPSP, translate_query

from helpers import rand_connected, ref_apsp, deletion_order

INF = math.inf


def unit_graph(rng, n, density):
    g = rand_connected(rng, n, density, 1)
    assert all(w == 1 for _, _, w in g.edges())
    return g


def test_single_edge_chain():
    g = DynamicGraph(2, [(0, 1, 1)])
    sub = SubdividedGraph(g, 2)
    assert sub.expanded.n == 4
    assert sub.expanded.m == 3
    d = ref_apsp(sub.expanded)
    assert d[0][1] == 3
    assert sub.chains[(0, 1)] == [(0, 2), (2, 3), (3, 1)]


def test_path_counts():
    g = DynamicGraph(3, [(0, 1, 1), (1, 2, 1)])
    sub = SubdividedGraph(g, 1)
    assert sub.expanded.n == 5
    assert sub.expanded.m == 4


def test_distance_identity_random_pairs():
    rng = random.Random(17)
    g = unit_graph(rng, 18, 0.25)
    for k in (1, 2, 3):
        sub = SubdividedGraph(g, k)
        assert sub.expanded.n == g.n + k * g.m
        assert sub.expanded.m == (k + 1) * g.m
        d0 = ref_apsp(g)
        d1 = ref_apsp(sub.expanded)
        for _ in range(100):
            u = rng.randrange(g.n)
            v = rng.randrange(g.n)
            if d0[u][v] == INF:
                assert d1[u][v] == INF
            else:
                assert d1[u][v] == (k + 1) * d0[u][v]


def test_translate_update_chain_and_replay_guard():
    g = DynamicGraph(3, [(0, 1, 1), (1, 2, 1)])
    sub = SubdividedGraph(g, 2)
    events = sub.translate_update(UpdateEvent(DELETE, 1, 0))
    assert [(e.u, e.v) for e in events] == sub.chains[(0, 1)]
    # the expanded graph is what says an edge is gone: until its chain is
    # applied there, the edge translates again
    assert sub.translate_update(UpdateEvent(DELETE, 0, 1)) == events
    for ev in events:
        apply_update(sub.expanded, ev)
    with pytest.raises(EdgeNotFound):
        sub.translate_update(UpdateEvent(DELETE, 0, 1))
    with pytest.raises(EdgeNotFound):
        sub.translate_update(UpdateEvent(DELETE, 0, 2))


def test_identity_survives_deletions():
    rng = random.Random(29)
    g = unit_graph(rng, 14, 0.3)
    k = 1
    sub = SubdividedGraph(g, k)
    gp = sub.expanded
    for u, v in deletion_order(rng, g.copy()):
        for ev in sub.translate_update(UpdateEvent(DELETE, u, v)):
            del gp.adj[ev.u][ev.v]
            del gp.adj[ev.v][ev.u]
        del g.adj[u][v]
        del g.adj[v][u]
        d0 = ref_apsp(g)
        d1 = ref_apsp(gp)
        for x in range(g.n):
            for y in range(x + 1, g.n):
                want = INF if d0[x][y] == INF else (k + 1) * d0[x][y]
                assert d1[x][y] == want


def test_rejects_weighted_input_and_bad_k():
    g = DynamicGraph(2, [(0, 1, 3)])
    with pytest.raises(DomainError):
        SubdividedGraph(g, 1)
    with pytest.raises(DomainError):
        SubdividedGraph(DynamicGraph(2, [(0, 1, 1)]), 0)


def test_translate_query_floor():
    assert translate_query(7, 2) == 2
    assert translate_query(6, 2) == 2
    assert translate_query(6.9, 1) == 3
    assert translate_query(INF, 3) == INF
    for d in range(1, 9):
        assert translate_query((d + 1) * d, d) == d  # k chosen = d here


def test_composed_wrapper_stretch():
    rng = random.Random(41)
    g = unit_graph(rng, 16, 0.25)
    sub_m = 2 * g.m
    sub_n = g.n + g.m
    p = math.sqrt(sub_n / sub_m)
    algo = UnweightedAPSP(g.copy(), p=p, eps=0.1, tau=4, seed=6)
    truth = g.copy()
    order = deletion_order(rng, g.copy())

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
    for u, v in order:
        algo.delete(u, v)
        del truth.adj[u][v]
        del truth.adj[v][u]
        check()
    with pytest.raises(DomainError):
        algo.increase(0, 1, 5)
    for u, v in ((0, g.n + 1), (g.n, 0), (-1, 3), (3, -1)):
        with pytest.raises(DomainError):
            algo.query(u, v)


def test_deletions_leave_the_given_graph_untouched():
    """The wrapper keeps one graph, the expanded one: the graph it was built
    from is never written, and a deleted edge is refused there too."""
    g = unit_graph(random.Random(5), 10, 0.4)
    before = (g.copy().adj, g.version)
    algo = UnweightedAPSP(g, p=0.5, eps=0.1, tau=4, seed=2)
    order = deletion_order(random.Random(6), g.copy())
    for u, v in order:
        algo.delete(u, v)
    assert (g.adj, g.version) == before
    assert algo.sub.expanded.m == 0 and algo.updates_applied == len(order)
    u, v = order[0]
    with pytest.raises(EdgeNotFound):
        algo.delete(u, v)
    assert (g.adj, g.version) == before and algo.updates_applied == len(order)


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 4))
def test_property_identity(seed, k):
    rng = random.Random(seed)
    g = gnp_graph(rng.randrange(4, 12), 0.4, 1, rng)
    sub = SubdividedGraph(g, k)
    assert sub.expanded.n == g.n + k * g.m
    assert sub.expanded.m == (k + 1) * g.m
    d0 = ref_apsp(g)
    d1 = ref_apsp(sub.expanded)
    for u in range(g.n):
        for v in range(g.n):
            want = INF if d0[u][v] == INF else (k + 1) * d0[u][v]
            assert d1[u][v] == want
