import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decapsp import (
    DomainError,
    DynamicGraph,
    apply_update,
    gnp_graph,
    parse_updates,
)
from decapsp.estree import ExactAPSP
from decapsp.oracle import (
    ORACLE_CAP_ENV,
    BoundSpec,
    StretchReport,
    bottleneck_weights,
    dijkstra,
    exact_apsp,
    sweep,
)
from helpers import minplus_hop_limited, ref_apsp, ref_dijkstra

INF = math.inf


def test_exact_apsp_triangle_plus_isolate():
    g = DynamicGraph(4, [(0, 1, 2), (1, 2, 3), (0, 2, 4)])
    d = exact_apsp(g)
    assert d[0][:3] == [0, 2, 4]
    assert d[1][2] == 3
    assert d[0][3] == INF and d[3][3] == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 12), st.sampled_from([1, 6]))
def test_exact_apsp_matches_independent_dijkstra(seed, n, max_weight):
    g = gnp_graph(n, 0.4, max_weight, random.Random(seed))
    d = exact_apsp(g)
    ref = ref_apsp(g)
    for u in range(n):
        for v in range(n):
            assert d[u][v] == ref[u][v]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 10))
def test_exact_apsp_agrees_with_minplus_up_to_four_hops(seed, n):
    """Unit weights: distances at most 4 must match 4-step min-plus powers."""
    g = gnp_graph(n, 0.35, 1, random.Random(seed))
    d = exact_apsp(g)
    mp = minplus_hop_limited(g, 4)
    for u in range(n):
        for v in range(n):
            if d[u][v] <= 4 or mp[u][v] <= 4:
                assert d[u][v] == mp[u][v]


def test_oracle_cap_env_guard(monkeypatch):
    g = DynamicGraph(5, [(0, 1, 1)])
    monkeypatch.setenv(ORACLE_CAP_ENV, "4")
    with pytest.raises(DomainError):
        exact_apsp(g)
    monkeypatch.setenv(ORACLE_CAP_ENV, "5")
    assert exact_apsp(g)[0][1] == 1
    monkeypatch.setenv(ORACLE_CAP_ENV, "not-a-number")
    with pytest.raises(DomainError):
        exact_apsp(g)


def test_bottleneck_takes_worst_shortest_path():
    # two shortest 0-3 paths of length 4: weights {2,2} and {3,1}
    g = DynamicGraph(4, [(0, 1, 2), (1, 3, 2), (0, 2, 3), (2, 3, 1)])
    w = bottleneck_weights(g)
    assert w[0][3] == 3 and w[3][0] == 3
    assert w[0][1] == 2 and w[0][2] == 3
    assert w[0][0] == 0


def test_bottleneck_zero_for_disconnected():
    g = DynamicGraph(3, [(0, 1, 5)])
    w = bottleneck_weights(g)
    assert w[0][2] == 0 and w[2][1] == 0


def _bottleneck_reference(g, d, u):
    """Rebuilt from scratch in the test: DP over the shortest-path DAG."""
    du = d[u]
    ref = {u: 0}
    for v in sorted(range(g.n), key=lambda x: (du[x], x)):
        if v == u or du[v] == INF:
            continue
        ref[v] = max(
            max(ref[x], wx)
            for x, wx in g.adj[v].items()
            if du[x] + wx == du[v]
        )
    return ref


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 12))
def test_bottleneck_sandwiched_by_path_weights(seed, n):
    rng = random.Random(seed)
    g = gnp_graph(n, 0.4, 7, rng)
    d = exact_apsp(g)
    w = bottleneck_weights(g, d)
    for u in range(n):
        ref = _bottleneck_reference(g, d, u)
        for v in range(n):
            if u == v or d[u][v] == INF:
                assert w[u][v] == 0
                continue
            assert 1 <= w[u][v] <= d[u][v]
            assert w[u][v] == ref[v]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 30), st.sampled_from([1, 10**12]))
def test_dijkstra_and_padded_bottleneck_rows_match_the_references(seed, n, max_w):
    """dijkstra gives the reference Dijkstra's rows, and bottleneck_weights
    over a matrix holding only some of them, the others padded with inf as
    the benchmark's answer check passes them, gives each held row the
    reference's weights and each padded row zeros; max_w 1 ties most
    distances and 10**12 almost none."""
    rng = random.Random(seed)
    g = gnp_graph(n, rng.choice((0.1, 0.3)), max_w, rng)
    sources = set(rng.sample(range(n), rng.randint(1, n)))
    d = [ref_dijkstra(g.adj, s) if s in sources else [INF] * n for s in range(n)]
    for s in sources:
        assert dijkstra(g.adj, s) == d[s]
    w = bottleneck_weights(g, d)
    for u in range(n):
        if u in sources:
            ref = _bottleneck_reference(g, d, u)
            assert w[u] == [ref.get(v, 0) for v in range(n)]
        else:
            assert w[u] == [0] * n


class ExactAlgo:
    """Perfect reference algorithm for exercising the sweep driver."""

    def __init__(self, graph):
        self.graph = graph
        self._dist = None

    def apply(self, ev):
        apply_update(self.graph, ev)
        self._dist = None

    def query(self, u, v):
        if self._dist is None:
            self._dist = exact_apsp(self.graph)
        return self._dist[u][v]


def _updates_text():
    return "d 0 1\nq 0 2\ni 2 3 9\nq 1 3\nd 2 3\nq 0 3\n"


def _graph():
    return DynamicGraph(4, [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 10), (0, 2, 8)])


def test_sweep_accepts_exact_algorithm():
    g = _graph()
    algo = ExactAlgo(g.copy())
    report = sweep(algo, g, parse_updates(_updates_text()), BoundSpec(alpha=1.0))
    assert report.ok
    # initial check + one per q group
    assert len(report.checkpoints) == 4
    assert report.pairs_checked == 4 * 6
    payload = json.loads(json.dumps(report.to_dict(), sort_keys=True))
    assert payload["ok"] is True
    # an exact answer has ratio 1 and slack 0 at every connected pair
    assert (payload["max_ratio"], payload["max_slack"]) == (1.0, 0)
    empty = StretchReport(bound=BoundSpec(alpha=1.0)).to_dict()
    assert (empty["max_ratio"], empty["max_slack"]) == (0.0, None)


def test_sweep_dense_checks_after_every_update():
    g = _graph()
    algo = ExactAlgo(g.copy())
    report = sweep(algo, g, parse_updates(_updates_text()), BoundSpec(alpha=1.0), dense=True)
    assert report.ok
    assert len(report.checkpoints) == 1 + 3


def test_sweep_fault_injection_detected_exactly_once():
    g = _graph()

    class Faulty(ExactAlgo):
        # exact except for (0, 2) at graph version 1
        def query(self, u, v):
            value = super().query(u, v)
            if self.graph.version == 1 and (u, v) == (0, 2):
                return value * 100 if value != INF else 123.0
            return value

    report = sweep(Faulty(g.copy()), g, parse_updates(_updates_text()), BoundSpec(alpha=1.0))
    assert not report.ok
    assert len(report.violations) == 1
    bad = report.violations[0]
    assert (bad[1], bad[2]) == (0, 2) and bad[0] == 1


def test_sweep_respects_additive_radius():
    g = DynamicGraph(3, [(0, 1, 1), (1, 2, 1)])
    algo = ExactAlgo(g.copy())

    class Lousy:
        # exact within radius 1, garbage beyond: radius must shield it
        def apply(self, ev):
            algo.apply(ev)

        def query(self, u, v):
            d = algo.query(u, v)
            return d if d <= 1 else INF

    report = sweep(Lousy(), g, [], BoundSpec(alpha=1.0, beta=0.0, radius=1))
    assert report.ok
    report2 = sweep(ExactAlgo(g.copy()), g.copy(), [], BoundSpec(alpha=1.0))
    assert report2.ok


def test_sweep_counts_the_pairs_beyond_the_radius_and_their_inf_answers():
    """Each checkpoint counts the connected pairs beyond the radius, whose
    upper bound it skips, and how many of them were answered inf; the
    report sums both.  A disconnected pair is not counted, and a bound
    without a radius counts none."""
    g = DynamicGraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])  # node 4 isolated

    class Shallow(ExactAlgo):
        # exact up to distance 2, inf beyond
        def query(self, u, v):
            value = super().query(u, v)
            return value if value <= 2 else INF

    report = sweep(Shallow(g.copy()), g.copy(), parse_updates("d 2 3\n"),
                   BoundSpec(alpha=1.0, radius=1), dense=True)
    assert report.ok
    # before: (0, 2) and (1, 3) at 2, (0, 3) at 3 answered inf; after: (0, 2)
    assert [(c.far_pairs, c.far_inf) for c in report.checkpoints] == [(3, 1), (1, 0)]
    payload = report.to_dict()
    assert (payload["far_pairs"], payload["far_inf"]) == (4, 1)
    assert [(c["far_pairs"], c["far_inf"]) for c in payload["checkpoints"]] == [(3, 1), (1, 0)]
    unbounded = sweep(ExactAlgo(g.copy()), g.copy(), [], BoundSpec(alpha=1.0))
    assert (unbounded.to_dict()["far_pairs"], unbounded.to_dict()["far_inf"]) == (0, 0)


@pytest.mark.parametrize("big", ["2**53 + 1", "max_weight - 1"])
def test_sweep_compares_exact_answers_past_float_precision(big):
    """Distances past 2**53 are not all floats: d - FLOAT_GUARD rounds back
    up to d and alpha * d + FLOAT_GUARD down to float(d), so a shifted bound
    reported exact answers 'below true distance' (max_weight - 1) or
    'above bound' (2**53 + 1).  The sweep compares differences with the
    guard instead, passes the exact structure on both, and still reports an
    answer one below the true distance."""
    W = {"2**53 + 1": 2**53 + 1, "max_weight - 1": int(DynamicGraph(3).max_weight) - 1}[big]
    g = DynamicGraph(3, [(0, 1, W), (1, 2, 1), (0, 2, 1)])
    updates = parse_updates(f"i 1 2 {W}\nd 0 2\n")

    class OneShort(ExactAPSP):
        def query(self, u, v):
            d = super().query(u, v)
            return d - 1 if (u, v) == (0, 2) and self.g.version == 2 else d

    report = sweep(ExactAPSP(g.copy()), g.copy(), updates, BoundSpec(alpha=1.0), dense=True)
    assert report.ok and report.checkpoints[-1].max_slack == 0
    short = sweep(OneShort(g.copy()), g, updates, BoundSpec(alpha=1.0), dense=True)
    assert [v[1:] for v in short.violations] == [
        (0, 2, 2 * W, 2 * W - 1, "estimate below true distance")]
