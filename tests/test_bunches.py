import functools
import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import DELETE, INCREASE, DynamicGraph, UpdateEvent, apply_update, gnp_graph
from decapsp.apsp_mixed import MixedAPSP
from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.bunches import (
    INCREASE as GREW,
    JOIN,
    LEAVE,
    BunchChangeEvent,
    BunchEngine,
    sample_pivots,
)
from decapsp.graph import connected_graph, drain
from helpers import nearest_levels, ref_apsp, ref_dijkstra

INF = math.inf


def test_sample_pivots_deterministic_and_extreme_p():
    assert sample_pivots(20, 1.0, 5) == list(range(20))
    assert sample_pivots(20, 0.0, 5) == []
    a = sample_pivots(50, 0.3, 9)
    assert a == sample_pivots(50, 0.3, 9)
    assert a != sample_pivots(50, 0.3, 10)


def test_all_pivots_means_empty_bunches():
    g = connected_graph(10, 0.3, 3, random.Random(0))
    eng = BunchEngine(g, p=1.0, eps=0.9, seed=1)
    assert list(eng.trees) == list(range(10))
    assert all(eng.trees.nearest_row[v][v] == 0 and eng.trees.nearest[v] == v for v in range(10))
    assert all(not eng.bunch[v] for v in range(10))


def test_empty_pivot_set_degenerates_with_warning(caplog):
    g = connected_graph(8, 0.3, 2, random.Random(1))
    with caplog.at_level(logging.WARNING, logger="decapsp.bunches"):
        eng = BunchEngine(g, p=0.0, eps=0.9, seed=1)
    assert any("no pivots" in r.message for r in caplog.records)
    assert all(eng.trees.nearest_row[v][v] == INF for v in range(8))
    # with no pivot every bunch is its whole component
    dist = ref_apsp(g)
    for v in range(8):
        assert set(eng.bunch[v]) == {w for w in range(8) if dist[v][w] < INF}


def test_a_pivotless_sample_at_positive_p_gives_whole_component_bunches(caplog):
    """p > 0 drew no pivot: a bunch is every node strictly closer than the
    nearest pivot, so with none in reach it is the whole component, as at
    p = 0 and as for a component that lost its last pivot."""
    g = connected_graph(30, 0.6, 1, random.Random(2))
    with caplog.at_level(logging.WARNING, logger="decapsp.bunches"):
        eng = BunchEngine(g, p=0.001, eps=0.9, seed=7)  # seed samples no pivot
    assert not eng.trees
    assert any("no pivots" in r.message for r in caplog.records)
    assert all(len(b) <= 30 for b in eng.bunch)
    dist = ref_apsp(g)
    for v in range(30):
        assert set(eng.bunch[v]) == {w for w in range(30) if dist[v][w] < INF}


def _check_against_truth(eng, g, prev_est):
    n = g.n
    dist = ref_apsp(g)
    e3 = eng.rounder.eps
    for v in range(n):
        # pivot estimate: exact nearest-pivot distance, monotone, right argmin
        est = eng.trees.nearest_row[v][v]
        true_est = min((dist[v][s] for s in eng.trees), default=INF)
        assert est == true_est
        assert est >= prev_est[v]
        prev_est[v] = est
        if true_est < INF:
            best = min(eng.trees, key=lambda s: (dist[v][s], s))
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
    g = gnp_graph(n, 0.45, W, rng)
    eng = BunchEngine(g, p=p, eps=0.9, seed=seed ^ 0xABC)
    prev_est = nearest_levels(eng.trees)
    _check_against_truth(eng, g, prev_est)
    for _, u, v, _ in drain(g, rng):
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
    g = connected_graph(12, 0.35, 3, rng)
    eng = BunchEngine(g, p=0.4, eps=0.9, seed=42)
    mirror = [dict(b) for b in eng.bunch]
    saw_join = saw_leave = False
    for ev in drain(g, rng):
        rec = apply_update(g, ev)
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
        if v in eng.trees:
            assert b == {}
        else:
            assert b == {v: 0.0}


def test_pivot_tree_levels_match_exact_distances():
    rng = random.Random(5)
    g = connected_graph(10, 0.4, 5, rng)
    eng = BunchEngine(g, p=0.5, eps=0.9, seed=5)
    stream = drain(g, rng)
    for ev in stream[: len(stream) // 2]:
        eng.refresh(apply_update(g, ev))
    for s in eng.trees:
        assert eng.trees[s].adj is g.adj
        truth = ref_dijkstra(g.adj, s)
        for v in range(g.n):
            assert eng.trees[s].level_of[v] == truth[v]


def test_isolating_a_node_evicts_its_bunch():
    g = connected_graph(8, 0.3, 2, random.Random(8))
    eng = BunchEngine(g, p=0.3, eps=0.9, seed=11)
    victim = max(range(8), key=lambda v: len(eng.bunch[v]))
    for w in sorted(g.adj[victim].copy()):
        rec = apply_update(g, UpdateEvent(DELETE, victim, w))
        eng.refresh(rec)
    assert set(eng.bunch[victim]) <= {victim}
    assert all(victim not in eng.bunch[w] or w == victim for w in range(8))


def refresh_every_nearby(eng, change):
    """BunchEngine.refresh without the tightness test: every owner whose
    region holds both endpoints is re-searched."""
    rows, radius, grow = eng.trees.nearest_row, eng.radius, 1 + eng.rounder.eps
    outgrown = {x for x in eng.trees.apply(change) if rows[x][x] > grow * radius[x]}
    nearby = eng._region_rev[change.u] & eng._region_rev[change.v]
    events = []
    for x in sorted(nearby | outgrown):
        rebuild = x in outgrown
        if rebuild:
            radius[x] = rows[x][x]
            eng.rebuilds[x] += 1
        eng._rebuild_owner(x, rebuild, events)
    return events


def recording(refresh, log):
    def wrapped(change):
        events = refresh(change)
        log.append(list(events))
        return events
    return wrapped


def engine_state(eng):
    return eng.bunch, eng.cluster, eng.radius, eng.rebuilds, nearest_levels(eng.trees)


@pytest.mark.parametrize("algorithm", ["mult", "mixed"])
def test_skipping_non_tight_owners_changes_only_the_search_count(algorithm):
    """On random streams of rises and deletions, a structure whose engine
    re-searches only the owners in whose region the edge is tight emits the
    same bunch events, ends every update with the same bunches, clusters,
    radii and rebuilds, answers every query alike and keeps every counter
    but searches equal to a twin that re-searches every owner whose region
    holds both endpoints; it never searches more, and over the streams
    searches less."""
    fewer = 0
    for seed in range(6):
        rng = random.Random(seed)
        g = gnp_graph(16, 0.35, 8, rng)

        def build(graph):
            if algorithm == "mult":
                return MultiplicativeAPSP(graph, p=0.25, eps=0.6, seed=seed)
            return MixedAPSP(graph, p=0.25, eps=0.6, tau=4, seed=seed)

        fast, full = build(g.copy()), build(g.copy())
        fast_log, full_log = [], []
        fast.engine.refresh = recording(fast.engine.refresh, fast_log)
        full.engine.refresh = recording(functools.partial(refresh_every_nearby, full.engine),
                                        full_log)
        live = sorted((u, v) for u, v, _ in g.edges())
        while live:
            i = rng.randrange(len(live))
            u, v = live[i]
            if rng.random() < 0.5:
                delta = fast.g.weight(u, v) + rng.randint(1, 4)
                fast.increase(u, v, delta)
                full.increase(u, v, delta)
            else:
                live[i] = live[-1]
                live.pop()
                fast.delete(u, v)
                full.delete(u, v)
            assert fast_log[-1] == full_log[-1]
            assert engine_state(fast.engine) == engine_state(full.engine)
            assert fast.engine.searches <= full.engine.searches
            if rng.random() < 0.2:
                assert ([fast.query(a, b) for a in range(16) for b in range(16)]
                        == [full.query(a, b) for a in range(16) for b in range(16)])
        counts, want = fast.counters(), full.counters()
        fewer += want.pop("searches") - counts.pop("searches")
        assert counts == want
    assert fewer > 0


def test_a_change_tight_in_no_region_runs_no_search():
    """With no pivot every region is its owner's whole component.  Edge
    {1, 2} of weight 3 is longer than the route 1-0-2 of length 2, so it is
    tight in no region: raising it and then deleting it re-searches no
    owner, emits no event and leaves every bunch as it was.  Raising {0, 1}
    then re-searches the owners in whose regions it is tight: all four."""
    g = DynamicGraph(4, [(0, 1, 1), (0, 2, 1), (1, 2, 3), (2, 3, 2)])
    eng = BunchEngine(g, p=0.0, eps=0.9, seed=1)
    assert all(set(eng._region[x]) == {0, 1, 2, 3} for x in range(4))
    bunches, searches = [dict(b) for b in eng.bunch], eng.searches
    for event in (UpdateEvent(INCREASE, 1, 2, 5), UpdateEvent(DELETE, 1, 2)):
        assert eng.refresh(apply_update(g, event)) == []
        assert eng.searches == searches and eng.bunch == bunches
    events = eng.refresh(apply_update(g, UpdateEvent(INCREASE, 0, 1, 4)))
    assert eng.searches == searches + 4  # from 3 too: d(3, 1) = d(3, 0) + 1 = 4
    assert events == [BunchChangeEvent(x, y, GREW, eng.bunch[x][y])
                      for x, y in ((0, 1), (1, 0), (1, 2), (1, 3), (2, 1), (3, 1))]


def test_bunch_change_events_refuse_attribute_assignment():
    event = BunchChangeEvent(0, 1, LEAVE, INF)
    assert repr(event) == "BunchChangeEvent(owner=0, member=1, case='leave', value=inf)"
    for field in ("owner", "member", "case", "value"):
        with pytest.raises(AttributeError):
            setattr(event, field, 2)
    assert event == BunchChangeEvent(0, 1, LEAVE, INF)
