import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from decapsp.additive import AdditiveAPSP, level_thresholds, sample_partition
from decapsp.cli import RunConfig, bound_for, make_algorithm
from decapsp.estree import MonotoneESTree
from decapsp.graph import DomainError, DynamicGraph, EdgeNotFound, connected_graph, drain
from decapsp.oracle import sweep

from helpers import ref_apsp

INF = math.inf


def test_threshold_frozen_value():
    (s1,) = level_thresholds(256, 4096, 2)
    assert round(s1, 2) == 9.42
    s = level_thresholds(64, 300, 3)
    assert len(s) == 2
    assert s[0] > s[1] or abs(s[0] - s[1]) < 5  # interpolation, not asserted tightly


def test_partition_shape_and_determinism():
    lv1 = sample_partition(40, 200, 3, 0.3, seed=5)
    lv2 = sample_partition(40, 200, 3, 0.3, seed=5)
    assert lv1 == lv2
    assert all(1 <= x <= 3 for x in lv1)
    assert sample_partition(40, 200, 3, 0.3, seed=6) != lv1
    # c large enough forces everything into the first sampled set
    assert set(sample_partition(40, 200, 2, 50.0, seed=1)) == {1}


@pytest.mark.parametrize("c", [0, -1.0, math.nan, math.inf])
def test_refuses_a_sampling_constant_that_is_not_positive_and_finite(c):
    """A c outside (0, inf) makes every level probability degenerate; it is
    refused before any level is drawn."""
    with pytest.raises(DomainError, match="sampling constant c"):
        sample_partition(40, 200, 3, c, seed=5)
    g = DynamicGraph(8, [(0, 1, 1), (1, 2, 1)])
    with pytest.raises(DomainError, match="sampling constant c"):
        AdditiveAPSP(g, k=2, d=3, c=c, seed=0)


def structural_audit(algo, prev_levels):
    g, k = algo.g, algo.k

    # escape-edge invariants
    for v in range(g.n):
        if g.adj[v]:
            want = min(algo.level[x] for x in g.adj[v])
            assert algo.idx[v] == want
            e = algo.escape[v]
            assert e is not None and e in g.adj[v] and algo.level[e] == want
        else:
            assert algo.idx[v] == k
            assert algo.escape[v] is None

    # coverage: sparse levels hold all edges of high-index endpoints plus
    # every designated escape edge
    for x, y, _ in g.edges():
        for i in range(2, max(algo.idx[x], algo.idx[y]) + 1):
            assert y in algo.view[i][x]
    for v in range(g.n):
        if algo.escape[v] is not None:
            for i in range(2, k + 1):
                assert algo.escape[v] in algo.view[i][v]

    # no dead edge: every pair a view holds is a live edge of the graph,
    # held both ways at weight 1
    for i in range(2, k + 1):
        view = algo.view[i]
        assert view is not g.adj and len(view) == g.n
        for a, row in enumerate(view):
            for b, w in row.items():
                assert b in g.adj[a] and w == 1 and view[b][a] == 1

    # level 1's view is the graph; the roots of a level share its view and
    # one offers list, holding the level row of every lower node's own tree,
    # so the offer at w is tree w's level of the root, read live (level-1
    # trees read none)
    assert algo.view[1] is g.adj and sorted(algo.view) == list(range(1, k + 1))
    assert len({id(view) for view in algo.view.values()}) == k
    for u in range(g.n):
        tree = algo.tree[u]
        i = algo.level[u]
        assert tree.adj is algo.view[i]
        if i == 1:
            assert tree.offers is None
            continue
        assert tree.offers is algo.tree[algo.roots[i][0]].offers
        for w in range(g.n):
            if algo.level[w] < i:
                assert tree.offers[w] is algo.tree[w].level_of
            else:
                assert tree.offers[w] is None

    # monotone levels
    for u in range(g.n):
        cur = [algo.tree[u].level_of[x] for x in range(g.n)]
        if u in prev_levels:
            assert all(c >= p for c, p in zip(cur, prev_levels[u]))
        prev_levels[u] = cur
    return prev_levels


def check_stretch(algo):
    dist = ref_apsp(algo.g)
    k, d = algo.k, algo.d
    for u in range(algo.g.n):
        for v in range(u + 1, algo.g.n):
            est = algo.query(u, v)
            dg = dist[u][v]
            if dg == INF:
                assert est == INF
                continue
            assert est >= dg
            i = min(algo.level[u], algo.level[v])
            if dg <= d + (k - i):
                assert est <= dg + 2 * (i - 1)


def run_full(n, density, k, d, c, seed):
    rng = random.Random(seed)
    g = connected_graph(n, density, 1, rng)
    algo = AdditiveAPSP(g, k=k, d=d, c=c, seed=seed + 1)
    prev = structural_audit(algo, {})
    check_stretch(algo)
    for ev in drain(g, rng):
        algo.apply(ev)
        prev = structural_audit(algo, prev)
        check_stretch(algo)
    return algo


def test_two_level_full_run():
    algo = run_full(14, 0.35, k=2, d=6, c=0.3, seed=3)
    assert algo.g.m == 0
    lv = set(algo.level)
    assert lv == {1, 2}  # seed chosen so both levels are hit


def test_three_level_full_run():
    algo = run_full(13, 0.4, k=3, d=5, c=0.25, seed=11)
    assert set(algo.level) >= {1, 3}


def test_query_trivia_and_errors():
    g = DynamicGraph(8, [(0, 1, 1), (1, 2, 1)])
    algo = AdditiveAPSP(g, k=2, d=3, c=0.5, seed=0)
    assert algo.query(5, 5) == 0
    assert algo.query(0, 7) == INF
    with pytest.raises(DomainError):
        algo.increase(0, 1, 4)
    algo.delete(0, 1)
    with pytest.raises(EdgeNotFound):
        algo.delete(0, 1)
    with pytest.raises(DomainError):
        AdditiveAPSP(DynamicGraph(8, [(0, 1, 2)]), k=2, d=3)
    with pytest.raises(DomainError):
        AdditiveAPSP(g, k=1, d=3)
    with pytest.raises(DomainError):
        AdditiveAPSP(g, k=2, d=0)


@pytest.mark.parametrize("k, d", [(2.5, 3), (True, 3), ("3", 3), (2, 2.5), (2, True), (2, None)])
def test_a_parameter_that_is_not_a_plain_int_is_refused(k, d):
    """k = 2.5 raised TypeError from range, and d = 2.5 and d = True were
    taken; each is refused with DomainError, and the graph is left as it
    was."""
    g = DynamicGraph(8, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    adj = [dict(row) for row in g.adj]
    with pytest.raises(DomainError, match="k and d must be ints"):
        AdditiveAPSP(g, k=k, d=d, c=0.5, seed=0)
    assert g.adj == adj and g.version == 0


def test_escape_replacement_before_promotion():
    # star around 0 with two level-forcing nodes: deleting the designated
    # escape edge picks the next same-level neighbor before idx may move
    g = DynamicGraph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)])
    algo = AdditiveAPSP(g, k=2, d=4, c=0.01, seed=13)
    if algo.level[algo.escape[0]] == 1:
        same = [x for x in (1, 2, 3, 4) if algo.level[x] == 1]
        if len(same) >= 2:
            first = algo.escape[0]
            algo.delete(0, first)
            assert algo.escape[0] in same and algo.escape[0] != first
            assert algo.idx[0] == 1


def test_counters_monotone_loads():
    rng = random.Random(21)
    g = connected_graph(16, 0.4, 1, rng)
    algo = AdditiveAPSP(g, k=2, d=6, c=0.3, seed=9)
    before = algo.counters()
    order = drain(g, rng)
    for ev in order:
        algo.apply(ev)
    after = algo.counters()
    assert after["estar_added"] >= before["estar_added"]
    assert all(after["ei_added"][i] >= before["ei_added"][i] for i in after["ei_added"])
    assert after["updates"] == before["updates"] + len(order)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_property_random_runs(data):
    n = data.draw(st.integers(8, 12), label="n")
    k = data.draw(st.sampled_from([2, 3]), label="k")
    d = data.draw(st.sampled_from([3, 6]), label="d")
    seed = data.draw(st.integers(0, 10 ** 6), label="seed")
    rng = random.Random(seed)
    g = connected_graph(n, 0.4, 1, rng)
    algo = AdditiveAPSP(g, k=k, d=d, c=0.3, seed=seed + 7)
    prev = structural_audit(algo, {})
    check_stretch(algo)
    for ev in drain(g, rng):
        algo.apply(ev)
        prev = structural_audit(algo, prev)
        check_stretch(algo)


def check_trees_against_live_rows(algo):
    """Each tree is in step with the rows it reads: above level 1 it is
    feasible against them, l(x) <= the offer at x wherever that is within
    the depth, and every node at a finite level other than the root has a
    support, a view neighbour y with l(y) + 1 <= l(x) or an offer at most
    l(x).  A raised offer left unnamed to absorb leaves its node at a level
    nothing supports."""
    for u, tree in algo.tree.items():
        level_of, offers, view = tree.level_of, tree.offers, tree.adj
        for x, lx in enumerate(level_of):
            offer = INF if offers is None or offers[x] is None else offers[x][u]
            if offer <= tree.cap:
                assert lx <= offer, (u, x, lx, offer)
            if x != u and lx < INF:
                assert offer <= lx or any(level_of[y] + w <= lx for y, w in view[x].items()), \
                    (u, x, lx)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30), st.sampled_from([2, 3, 4]))
def test_trees_stay_in_step_with_the_rows_they_read(seed, k):
    """After the build and every deletion of a seeded drain, every tree is
    feasible against and supported by the lower rows it reads live; and
    absorb refuses a node holding no offer row (a tree's own root, any
    node of a level-1 tree) before any level or level_increases changes."""
    rng = random.Random(seed)
    n = rng.randint(16, 48)
    g = connected_graph(n, rng.choice((0.1, 0.2)), 1, rng)
    algo = AdditiveAPSP(g, k=k, d=rng.randint(1, 5), c=rng.choice((0.2, 0.5)), seed=seed + 1)
    check_trees_against_live_rows(algo)
    for ev in drain(g, rng):
        algo.apply(ev)
        check_trees_against_live_rows(algo)
        tree = algo.tree[rng.randrange(n)]
        before = (list(tree.level_of), tree.level_increases)
        with pytest.raises(KeyError):
            tree.absorb([tree.root])
        if tree.offers is None:
            with pytest.raises(KeyError):
                tree.absorb([rng.randrange(n)])
        assert (tree.level_of, tree.level_increases) == before


def path_graph(n):
    return DynamicGraph(n, [(i, i + 1, 1) for i in range(n - 1)])


def grid_graph(rows, cols):
    def node(r, q):
        return r * cols + q
    return DynamicGraph(rows * cols, [(node(r, q), node(r, q + 1), 1)
                                      for r in range(rows) for q in range(cols - 1)]
                        + [(node(r, q), node(r + 1, q), 1)
                           for r in range(rows - 1) for q in range(cols)])


# (family, k, d, c, seed) of seeded drains whose distances run past every
# depth; a G(n, p) family draws its graph, then its drain, from the seed's
# rng, and the structure samples with seed + 1.  Between them, some tree of
# each level 1..4 meets its depth at a node in reach.
AT_THE_DEPTHS = [
    (("gnp", 20, 0.12), 2, 1, 0.5, 2),
    (("gnp", 24, 0.3), 3, 1, 1, 4),
    (("gnp", 40, 0.3), 3, 1, 0.5, 0),
    (("gnp", 40, 0.08), 3, 6, 0.2, 38),
    (("gnp", 40, 0.2), 3, 6, 2, 12),
    (("gnp", 32, 0.3), 3, 4, 0.5, 16),
    (("gnp", 48, 0.12), 4, 2, 0.2, 90),
    (("gnp", 48, 0.12), 4, 2, 0.2, 108),
    (("path", 64), 2, 5, 0.2, 6),
    (("path", 64), 3, 5, 0.2, 10),
    (("grid", 8, 8), 2, 3, 0.3, 7),
    (("grid", 8, 6), 3, 5, 0.2, 10),
]


class TreesChecked:
    """An AdditiveAPSP whose trees are checked against exact distances at
    the build and after every update: each tree of level i holds every node
    x at D(u, x) <= l_u(x), and at l_u(x) <= D(u, x) + 2(i - 1) when
    D(u, x) <= d + (k - i), the bound the module docstring proves.  reached
    collects the levels with a node in reach at the tree's depth."""

    def __init__(self, algo):
        self.algo = algo
        self.query = algo.query
        self.reached = set()
        self.check()

    def apply(self, ev):
        self.algo.apply(ev)
        self.check()

    def check(self):
        algo = self.algo
        k, d = algo.k, algo.d
        for u, row in enumerate(ref_apsp(algo.g)):
            i = algo.level[u]
            tree = algo.tree[u]
            for x, (dist, est) in enumerate(zip(row, tree.level_of)):
                assert est >= dist
                if dist <= d + k - i:
                    assert est <= dist + 2 * (i - 1), (u, x, dist, est)
                    if est == tree.cap:
                        self.reached.add(i)


def test_each_level_runs_to_the_depth_its_bound_reads():
    """Level i's trees run to depth d + k + i - 2: a node in reach, within
    d + (k - i), has error at most 2(i - 1), so d + k + i - 2 is the
    largest level the bound reads."""
    for k, d in ((2, 1), (3, 4), (4, 6)):
        rng = random.Random(k)
        algo = AdditiveAPSP(connected_graph(40, 0.2, 1, rng), k=k, d=d, c=0.3, seed=k)
        assert len(set(algo.level)) == k
        assert all(tree.cap == d + k + algo.level[u] - 2 for u, tree in algo.tree.items())


def test_bounds_hold_at_the_depths_and_every_depth_is_met():
    """Dense sweeps at bound_for's bound over seeded drains, every tree
    checked at its level's bound after every update.  Some tree of each
    level 1..4 has a node in reach at exactly its depth, so with any one
    level's trees one shallower that node would read inf and fail here."""
    reached = set()
    for (family, *shape), k, d, c, seed in AT_THE_DEPTHS:
        rng = random.Random(seed)
        if family == "gnp":
            g = connected_graph(*shape, 1, rng)
        else:
            g = (path_graph if family == "path" else grid_graph)(*shape)
        cfg = RunConfig(algorithm="additive", k=k, d=d, c=c, seed=seed + 1)
        checked = TreesChecked(make_algorithm(cfg, g.copy()))
        report = sweep(checked, g, drain(g, rng), bound_for(cfg), dense=True)
        assert report.ok, (family, seed, report.violations[:3])
        reached |= checked.reached
    assert reached == {1, 2, 3, 4}


def view_owner():
    """Eight nodes, k = 2: level-2 roots 0, 1 and 6 share one view."""
    g = DynamicGraph(8, [(i, i + 1, 1) for i in range(7)] + [(0, 4, 1), (2, 6, 1)])
    algo = AdditiveAPSP(g, k=2, d=3, c=0.5, seed=0)
    assert algo.roots == [[], [2, 3, 4, 5, 7], [0, 1, 6]]
    return algo


def tree_states(algo):
    return [(list(t.level_of), t.level_increases) for t in algo.tree.values()]


def test_level_write_adds_new_pairs_without_a_tree_call(monkeypatch):
    """A new pair goes into the view at weight 1, also where a root holds an
    offer at the other endpoint; levels never drop on an insertion, so a
    level with new pairs, no exported offer and no dying pair calls no tree
    and every offer stays as it was."""
    calls = []
    for op in ("insert_edge", "relax_edge", "increase_weight", "delete_edge", "absorb"):
        def record(tree, *args, op=op, orig=getattr(MonotoneESTree, op)):
            calls.append(op)
            return orig(tree, *args)
        monkeypatch.setattr(MonotoneESTree, op, record)
    algo = view_owner()
    view = algo.view[2]
    trees = tree_states(algo)
    assert 6 not in view[0] and 2 not in view[0] and algo.tree[0].offers[2][0] == 2
    for x, y in ((0, 6), (2, 0), (1, 5)):
        view[x][y] = view[y][x] = 1
    algo._advance_level(2, {}, None)
    assert calls == []
    assert tree_states(algo) == trees


def test_deletion_absorbs_offers_and_the_dying_edge_in_one_repair(monkeypatch):
    """Deleting {1, 2} moves root 1's escape edge to {0, 1}; both enter and
    leave the level-2 view before any level-2 tree is called.  Then, in node
    order, each level-2 root whose offers the level-1 trees raised absorbs
    the nodes they name and the deletion at its weight 1 in one call, and
    each other root whose tree the dying edge supported at an endpoint
    calls delete_edge; the levels, offers and level increases are those of
    raising each offer, then deleting.  Level 1's trees run to depth
    d + k - 1 = 4 and level 2's to 5, so tree 7, which now reaches node 1
    only at 5, reads inf there: root 1's offer at 7 is gone, and node 7,
    at 6 from root 1 once only the view reaches it, goes to inf."""
    calls, active = [], []
    for op in ("insert_edge", "relax_edge", "increase_weight", "delete_edge", "absorb"):
        def record(tree, *args, op=op, orig=getattr(MonotoneESTree, op)):
            if tree.adj is algo.view[2] and tree not in active:
                view = tree.adj
                calls.append((op, tree.root, *args, 2 in view[1], 0 in view[1]))
            active.append(tree)
            try:
                return orig(tree, *args)
            finally:
                active.pop()
        monkeypatch.setattr(MonotoneESTree, op, record)
    algo = view_owner()
    assert algo.escape[1] == 2 and 0 not in algo.view[2][1]
    # root 6's tree: l(2) + 1 <= l(1), so the dying edge supported node 1
    assert algo.tree[6].level_of[2] + 1 <= algo.tree[6].level_of[1] < INF
    algo.delete(1, 2)
    assert calls == [("absorb", 0, {2}, (1, 2, INF, 1), False, True),
                     ("absorb", 1, {2, 3, 7}, (1, 2, INF, 1), False, True),
                     ("delete_edge", 6, 1, 2, 1, False, True)]
    assert algo.escape[1] == 0 and algo.exports_applied == 4
    offers = algo.tree[1].offers
    assert [offers[w][1] for w in (2, 3, 4, 5, 7)] == [4, 3, 2, 3, INF]
    assert algo.tree[0].offers[2][0] == 3
    assert [[algo.tree[r].level_of[x] for x in range(8)] for r in (0, 1, 6)] == [
        [0, 3, 3, 2, 1, 2, 4, 4], [3, 0, 4, 3, 2, 3, 5, INF], [3, 4, 1, 2, 2, 1, 0, 1]]
    assert [algo.tree[r].level_increases for r in (0, 1, 6)] == [2, 4, 1]
    structural_audit(algo, {})
