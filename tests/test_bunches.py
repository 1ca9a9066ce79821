import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import DELETE, INCREASE, UpdateEvent, apply_update
from decapsp.bunches import (
    JOIN,
    LEAVE,
    BunchChangeEvent,
    BunchEngine,
    sample_pivots,
)
from helpers import rand_connected, rand_gnp, ref_apsp, ref_dijkstra

INF = math.inf


def test_sample_pivots_deterministic_and_extreme_p():
    assert sample_pivots(20, 1.0, 5) == list(range(20))
    assert sample_pivots(20, 0.0, 5) == []
    a = sample_pivots(50, 0.3, 9)
    assert a == sample_pivots(50, 0.3, 9)
    assert a != sample_pivots(50, 0.3, 10)


def test_all_pivots_means_empty_bunches():
    g = rand_connected(random.Random(0), 10, 0.3, 3)
    eng = BunchEngine(g, p=1.0, eps=0.9, seed=1)
    assert eng.A == list(range(10))
    assert all(eng.trees.nearest_level[v] == 0 and eng.trees.nearest[v] == v for v in range(10))
    assert all(not eng.bunch[v] for v in range(10))


def test_empty_pivot_set_degenerates_with_warning(caplog):
    g = rand_connected(random.Random(1), 8, 0.3, 2)
    with caplog.at_level(logging.WARNING, logger="decapsp.bunches"):
        eng = BunchEngine(g, p=0.0, eps=0.9, seed=1)
    assert any("no pivots" in r.message for r in caplog.records)
    assert all(eng.trees.nearest_level[v] == INF for v in range(8))
    # every bunch covers its whole component here (n below any cap)
    dist = ref_apsp(g)
    for v in range(8):
        assert set(eng.bunch[v]) == {w for w in range(8) if dist[v][w] < INF}


def test_empty_pivot_set_respects_size_cap(caplog):
    g = rand_connected(random.Random(2), 30, 0.6, 1)
    with caplog.at_level(logging.WARNING, logger="decapsp.bunches"):
        eng = BunchEngine(g, p=0.001, eps=0.9, seed=7)  # seed gives empty A
    assert eng.A == []
    cap = math.ceil(4 * math.log(30) / 0.001)
    assert all(len(b) <= min(30, cap) for b in eng.bunch)


def _check_against_truth(eng, g, prev_est):
    n = g.n
    dist = ref_apsp(g)
    e3 = eng.e3
    for v in range(n):
        # pivot estimate: exact nearest-pivot distance, monotone, right argmin
        est = eng.trees.nearest_level[v]
        true_est = min((dist[v][s] for s in eng.A), default=INF)
        assert est == true_est
        assert est >= prev_est[v]
        prev_est[v] = est
        if true_est < INF:
            best = min(eng.A, key=lambda s: (dist[v][s], s))
            assert eng.trees.nearest[v] == best
        else:
            assert eng.trees.nearest[v] is None
        # spec containment: everything strictly inside the pivot ball, with
        # the (1 + eps/3) slack, must be a member
        members = set(eng.bunch[v])
        for w in range(n):
            if (1 + e3) * dist[v][w] < true_est:
                assert w in members
        # estimates sandwich the true distance
        for w, val in eng.bunch[v].items():
            d = dist[v][w]
            assert d < INF, "bunch member disconnected from owner"
            if w == v:
                assert val == 0.0
            else:
                assert eng.rounder.round(val) == val  # on the ladder
                assert d <= val <= (1 + e3) * d * (1 + 1e-12)
        # members never sit at or beyond the cached radius
        for w in members:
            assert dist[v][w] < INF
        # cluster duality
        for w in members:
            assert v in eng.cluster[w]
    for w in range(n):
        for v in eng.cluster[w]:
            assert w in eng.bunch[v]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([0.25, 0.5]), st.sampled_from([1, 4]))
def test_full_deletion_run_keeps_all_contracts(seed, p, W):
    rng = random.Random(seed)
    n = rng.randint(6, 13)
    g = rand_gnp(rng, n, 0.45, W)
    eng = BunchEngine(g, p=p, eps=0.9, seed=seed ^ 0xABC)
    prev_est = list(eng.trees.nearest_level)
    _check_against_truth(eng, g, prev_est)
    edges = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(edges)
    for u, v in edges:
        if rng.random() < 0.25:
            ev = UpdateEvent(INCREASE, u, v, g.weight(u, v) + rng.randint(1, 3))
        else:
            ev = UpdateEvent(DELETE, u, v)
        rec = apply_update(g, ev)
        before_rebuilds = list(eng.rebuilds)
        events = eng.refresh(rec)
        _check_against_truth(eng, g, prev_est)
        # joins only at rebuild instants of that owner
        for bev in events:
            if bev.case == JOIN:
                assert eng.rebuilds[bev.owner] > before_rebuilds[bev.owner]
        if not g.has_edge(u, v) and rng.random() < 0.5:
            continue
    bound = eng.rebuild_bound()
    assert max(eng.rebuilds) <= bound


def test_events_replay_to_state_diff():
    rng = random.Random(100)
    g = rand_connected(rng, 12, 0.35, 3)
    eng = BunchEngine(g, p=0.4, eps=0.9, seed=42)
    mirror = [dict(b) for b in eng.bunch]
    edges = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(edges)
    saw_join = saw_leave = False
    for u, v in edges:
        rec = apply_update(g, UpdateEvent(DELETE, u, v))
        for bev in eng.refresh(rec):
            if bev.case == LEAVE:
                del mirror[bev.owner][bev.member]
                saw_leave = True
            elif bev.case == JOIN:
                assert bev.member not in mirror[bev.owner]
                mirror[bev.owner][bev.member] = bev.value
                saw_join = True
            else:
                assert bev.member in mirror[bev.owner]
                assert bev.value != mirror[bev.owner][bev.member]
                mirror[bev.owner][bev.member] = bev.value
        assert mirror == eng.bunch, "events do not describe the state diff"
    assert saw_leave  # a full teardown must evict everybody else
    # isolated non-pivot nodes keep themselves: d(v, v) = 0 < inf estimate
    for v, b in enumerate(mirror):
        if v in eng.A:
            assert b == {}
        else:
            assert b == {v: 0.0}


def test_pivot_tree_levels_match_exact_distances():
    rng = random.Random(5)
    g = rand_connected(rng, 10, 0.4, 5)
    eng = BunchEngine(g, p=0.5, eps=0.9, seed=5)
    edges = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(edges)
    for u, v in edges[: len(edges) // 2]:
        rec = apply_update(g, UpdateEvent(DELETE, u, v))
        eng.refresh(rec)
    for s in eng.A:
        assert eng.trees[s].adj is g.adj
        truth = ref_dijkstra(g.adj, s)
        for v in range(g.n):
            expected = truth[v] if truth[v] <= eng.depth_cap else INF
            assert eng.trees[s].level_of[v] == expected


def test_isolating_a_node_evicts_its_bunch():
    g = rand_connected(random.Random(8), 8, 0.3, 2)
    eng = BunchEngine(g, p=0.3, eps=0.9, seed=11)
    victim = max(range(8), key=lambda v: len(eng.bunch[v]))
    for w in sorted(g.adj[victim].copy()):
        rec = apply_update(g, UpdateEvent(DELETE, victim, w))
        eng.refresh(rec)
    assert set(eng.bunch[victim]) <= {victim}
    assert all(victim not in eng.bunch[w] or w == victim for w in range(8))
