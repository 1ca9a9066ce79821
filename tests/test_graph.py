import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import (
    DELETE,
    INCREASE,
    DomainError,
    DuplicateEdge,
    DynamicGraph,
    EdgeNotFound,
    MonotonicityViolation,
    ParseError,
    QueryCheckpoint,
    UpdateEvent,
    apply_update,
    dump_graph,
    dump_updates,
    gnp_graph,
    load_graph,
    parse_updates,
)
from decapsp.graph import churn, connected_graph, drain, with_checkpoints

from helpers import ref_dijkstra

INF = math.inf


def small_graph():
    return DynamicGraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 10)])


def test_delete_records_change_and_bumps_version():
    g = small_graph()
    rec = apply_update(g, UpdateEvent(DELETE, 0, 1))
    assert (rec.old_weight, rec.new_weight, rec.version) == (2, INF, 1)
    assert not g.has_edge(0, 1) and not g.has_edge(1, 0)
    assert g.m == 3


def test_increase_sets_new_weight():
    g = small_graph()
    rec = apply_update(g, UpdateEvent(INCREASE, 1, 2, 7))
    assert (rec.old_weight, rec.new_weight) == (3, 7)
    assert g.weight(2, 1) == 7
    assert g.version == 1


def test_delete_missing_edge():
    g = small_graph()
    with pytest.raises(EdgeNotFound):
        apply_update(g, UpdateEvent(DELETE, 0, 2))
    apply_update(g, UpdateEvent(DELETE, 0, 1))
    with pytest.raises(EdgeNotFound):
        apply_update(g, UpdateEvent(DELETE, 0, 1))


def test_increase_must_strictly_increase():
    """A rise to inf is refused too, with no delta as well: only a DELETE
    removes an edge.  A fall to -10^5000, past Python's 4300-digit limit on
    integer to string conversion, is refused the same way."""
    g = small_graph()
    before = [dict(nbrs) for nbrs in g.adj]
    for bad in (3, 2, 1, 0, -4, INF, -10**5000):
        with pytest.raises(MonotonicityViolation):
            apply_update(g, UpdateEvent(INCREASE, 1, 2, bad))
    with pytest.raises(MonotonicityViolation) as exc:
        apply_update(g, UpdateEvent(INCREASE, 1, 2))
    assert str(exc.value) == "weight of {1, 2} must rise to a finite integer above 3, got inf"
    assert g.version == 0 and g.adj == before


@pytest.mark.parametrize("event", [UpdateEvent("bogus", 0, 1), UpdateEvent("bogus", 0, 1, 7)],
                         ids=["default-delta", "finite-delta"])
def test_unknown_kind_is_refused_before_any_change(event):
    g = small_graph()
    before = [dict(nbrs) for nbrs in g.adj]
    with pytest.raises(DomainError):
        apply_update(g, event)
    assert g.adj == before and g.version == 0


def test_a_node_outside_the_graph_has_no_edge():
    """adj is a list, where index -1 would read the last node's row (node 3
    neighbors 0 here): has_edge answers False for -1 and n, and weight and
    apply_update raise EdgeNotFound before any change."""
    g = small_graph()
    before = [dict(nbrs) for nbrs in g.adj]
    for u, v in ((-1, 0), (0, -1), (4, 0), (0, 4), (-4, 1)):
        assert not g.has_edge(u, v)
        with pytest.raises(EdgeNotFound):
            g.weight(u, v)
        for event in (UpdateEvent(DELETE, u, v), UpdateEvent(INCREASE, u, v, 20)):
            with pytest.raises(EdgeNotFound):
                apply_update(g, event)
    assert g.adj == before and g.version == 0


@pytest.mark.parametrize("u, v", [(0, True), (True, 0), (False, 1), (1, False), (0, 1.0)],
                         ids=["bool-v", "bool-u", "false-u", "false-v", "float-v"])
def test_a_node_that_is_not_an_int_has_no_edge(u, v):
    """True == 1 and hash(1.0) == hash(1), so `v in adj[u]` would find node
    1 for either: has_edge answers False, and weight and apply_update raise
    EdgeNotFound before any change, as add_edge refuses such a node."""
    g = DynamicGraph(3, [(0, 1, 2)])
    before = [dict(nbrs) for nbrs in g.adj]
    assert not g.has_edge(u, v)
    with pytest.raises(EdgeNotFound):
        g.weight(u, v)
    for event in (UpdateEvent(DELETE, u, v), UpdateEvent(INCREASE, u, v, 5)):
        with pytest.raises(EdgeNotFound):
            apply_update(g, event)
    assert g.adj == before and g.version == 0


def test_update_records_refuse_attribute_assignment():
    event = UpdateEvent(DELETE, 0, 1)
    rec = apply_update(small_graph(), event)
    assert repr(event) == "UpdateEvent(kind='delete', u=0, v=1, delta=inf)"
    assert repr(rec) == "ChangeRecord(u=0, v=1, old_weight=2, new_weight=inf, version=1)"
    for record, field in ((event, "kind"), (event, "delta"), (rec, "u"), (rec, "new_weight")):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)
    assert event == UpdateEvent(DELETE, 0, 1) and rec.version == 1


def test_construction_rejects_bad_edges():
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 0, 1)])
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 1, 0)])
    with pytest.raises(DomainError):  # no rounding ladder reaches it
        DynamicGraph(3, [(0, 1, 10**309)])
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 5, 1)])
    with pytest.raises(DuplicateEdge):
        DynamicGraph(3, [(0, 1, 1), (1, 0, 2)])


@pytest.mark.parametrize("edge", [(0, 2, True), (True, 2, 1), (2, False, 4)],
                         ids=["bool-weight", "bool-node", "bool-other-node"])
def test_a_bool_weight_or_node_is_refused_so_the_file_round_trips(edge):
    """bool is an int subclass: an accepted True made dump_graph write
    '0 2 True', which load_graph refuses as a non-integer field."""
    g = DynamicGraph(3, [(0, 1, 2)])
    with pytest.raises(DomainError):
        g.add_edge(*edge)
    back = load_graph(dump_graph(g))
    assert back.adj == g.adj and back.W == g.W


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        load_graph("3\n0 1 1\n")
    assert exc.value.lineno == 1
    with pytest.raises(ParseError) as exc:
        load_graph("3 2\n0 1 1\n0 1 x\n")
    assert exc.value.lineno == 3
    with pytest.raises(ParseError) as exc:
        load_graph("3 2\n# comment lines are skipped\n0 1 1\n\n0 0 4\n")
    assert exc.value.lineno == 5
    with pytest.raises(ParseError) as exc:
        load_graph("3 5\n0 1 1\n")
    assert exc.value.lineno == 2
    with pytest.raises(ParseError) as exc:
        load_graph("# c\n# c\n3 2\n")
    assert exc.value.lineno == 3
    with pytest.raises(ParseError) as exc:
        parse_updates("d 0 1\nq 1\n")
    assert exc.value.lineno == 2


def test_update_file_round_trip():
    text = "d 0 1\ni 2 3 9\nq 0 3\n"
    events = parse_updates(text)
    assert events == [
        UpdateEvent(DELETE, 0, 1),
        UpdateEvent(INCREASE, 2, 3, 9),
        QueryCheckpoint(0, 3),
    ]
    assert dump_updates(events) == text


def test_gnp_is_deterministic_under_seed():
    a = gnp_graph(12, 0.4, 5, random.Random(7))
    b = gnp_graph(12, 0.4, 5, random.Random(7))
    assert sorted(a.edges()) == sorted(b.edges())
    c = gnp_graph(12, 0.4, 5, random.Random(8))
    assert sorted(a.edges()) != sorted(c.edges())


@pytest.mark.parametrize("density, max_weight", [(0, 5), (1.5, 5), (math.nan, 5), (0.4, 0)])
def test_gnp_refuses_a_density_outside_0_1_or_a_weight_below_1(density, max_weight):
    """connected_graph shares gnp_graph's domain."""
    for family in (gnp_graph, connected_graph):
        with pytest.raises(DomainError):
            family(12, density, max_weight, random.Random(7))


edge_lists = st.integers(2, 10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 9)),
            max_size=25,
        ),
    )
)


def _dedupe(n, raw):
    seen = set()
    edges = []
    for u, v, w in raw:
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in seen:
            continue
        seen.add(key)
        edges.append((key[0], key[1], w))
    return edges


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_graph_file_round_trip(data):
    n, raw = data
    g = DynamicGraph(n, _dedupe(n, raw))
    back = load_graph(dump_graph(g))
    assert back.n == g.n and back.adj == g.adj and back.W == g.W


@settings(max_examples=40, deadline=None)
@given(edge_lists, st.integers(0, 2**30))
def test_log_replay_reproduces_final_state(data, seed):
    """Any serialized update log replays to an identical graph and version."""
    n, raw = data
    g = DynamicGraph(n, _dedupe(n, raw))
    twin = g.copy()
    rng = random.Random(seed)
    log = []
    for _, u, v, _ in drain(g, rng):
        if rng.random() < 0.3:
            log.append(UpdateEvent(INCREASE, u, v, g.weight(u, v) + rng.randint(1, 5)))
        if rng.random() < 0.8:
            log.append(UpdateEvent(DELETE, u, v))
        if rng.random() < 0.2:
            log.append(QueryCheckpoint(u, v))
    for ev in log:
        if not isinstance(ev, QueryCheckpoint):
            apply_update(g, ev)
    replayed = parse_updates(dump_updates(log))
    assert replayed == log
    for ev in replayed:
        if not isinstance(ev, QueryCheckpoint):
            apply_update(twin, ev)
    assert twin.adj == g.adj
    assert twin.version == g.version


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 14), st.sampled_from([0.2, 0.5, 1.0]),
       st.integers(1, 6), st.integers(0, 6), st.integers(1, 4), st.integers(0, 3))
def test_workload_streams_keep_their_contract(seed, n, density, W, headroom, every, queries):
    """Weights stay in [1, W] and connected_graph is connected; drain deletes
    each edge once; churn's rises go strictly up to at most max_weight and it
    stops at m - m//2 live edges; with_checkpoints puts `queries` pairs after
    every every-th update and the last; each stream replays on a copy."""
    rng = random.Random(seed)
    for family in (gnp_graph, connected_graph):
        g = family(n, density, W, rng)
        m = g.m
        assert all(1 <= w <= W for _, _, w in g.edges())
        assert family is gnp_graph or INF not in ref_dijkstra(g.adj, 0)
        deletions = drain(g, rng)
        assert sorted(deletions) == sorted(UpdateEvent(DELETE, u, v) for u, v, _ in g.edges())
        updates = churn(g, rng, W + headroom)
        live = g.copy()
        for ev in updates:
            assert live.m > m - m // 2
            if ev.kind == INCREASE:
                assert live.weight(ev.u, ev.v) < ev.delta <= W + headroom
            apply_update(live, ev)
        for stream, m_after in ((deletions, 0), (updates, m - m // 2)):
            checked = with_checkpoints(stream, n, rng, every, queries)
            assert [ev for ev in checked if isinstance(ev, UpdateEvent)] == stream
            live, batches = g.copy(), []
            for ev in checked:
                if isinstance(ev, QueryCheckpoint):
                    assert 0 <= ev.u < n and 0 <= ev.v < n
                    batches[-1] += 1
                else:
                    apply_update(live, ev)
                    batches.append(0)
            assert batches == [queries if i % every == 0 or i == len(stream) else 0
                               for i in range(1, len(stream) + 1)]
            assert live.m == m_after
