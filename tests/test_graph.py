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
    g = small_graph()
    for bad in (3, 2, 1, 0, -4):
        with pytest.raises(MonotonicityViolation):
            apply_update(g, UpdateEvent(INCREASE, 1, 2, bad))
    assert g.version == 0


@pytest.mark.parametrize("event", [UpdateEvent("bogus", 0, 1), UpdateEvent("bogus", 0, 1, 7)],
                         ids=["default-delta", "finite-delta"])
def test_unknown_kind_is_refused_before_any_change(event):
    g = small_graph()
    before = {u: dict(nbrs) for u, nbrs in g.adj.items()}
    with pytest.raises(DomainError):
        apply_update(g, event)
    assert g.adj == before and g.version == 0


def test_construction_rejects_bad_edges():
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 0, 1)])
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 1, 0)])
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 5, 1)])
    with pytest.raises(DuplicateEdge):
        DynamicGraph(3, [(0, 1, 1), (1, 0, 2)])


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
    with pytest.raises(DomainError):
        gnp_graph(12, density, max_weight, random.Random(7))


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
    live = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(live)
    for u, v in live:
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
