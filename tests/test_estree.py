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
    ExactAPSP,
    MonotoneESTree,
    MonotonicityViolation,
    UpdateEvent,
    apply_update,
    exact_apsp,
    gnp_graph,
)
from decapsp.estree import TreeFamily, UnwrittenChange
from decapsp.graph import ChangeRecord, connected_graph, drain
from helpers import (
    ReferenceESTree,
    check_nearest_rows,
    nearest_levels,
    ref_dijkstra,
)

INF = math.inf


def offer_rows(n, root, offers):
    """The offers list a tree at root reads for offers = {node: weight}:
    each node holding an offer gets a level row of its own whose entry at
    root is the weight, every other entry is None."""
    rows = [None] * n
    for x, w in offers.items():
        rows[x] = [INF] * n
        rows[x][root] = w
    return rows


def held_offers(rows, root):
    """The finite offers rows show at root, as {node: weight}."""
    return {x: row[root] for x, row in enumerate(rows) if row is not None and row[root] < INF}


def test_initial_levels_are_exact_up_to_cap():
    g = DynamicGraph(5, [(0, 1, 2), (1, 2, 2), (2, 3, 2), (3, 4, 2), (0, 4, 9)])
    t = MonotoneESTree(g.adj, 0, cap=6)
    assert [t.level_of[v] for v in range(5)] == [0, 2, 4, 6, INF]


def test_root_level_pinned_at_zero():
    g = DynamicGraph(3, [(0, 1, 1), (1, 2, 1)])
    t = MonotoneESTree(g.adj, 0, cap=10)
    rec = apply_update(g, UpdateEvent(DELETE, 0, 1))
    t.delete_edge(0, 1, rec.old_weight)
    assert t.level_of[0] == 0
    assert t.level_of[1] == INF and t.level_of[2] == INF


def test_deletion_reroutes_through_alternative_path():
    g = DynamicGraph(4, [(0, 1, 1), (1, 3, 1), (0, 2, 2), (2, 3, 2)])
    t = MonotoneESTree(g.adj, 0, cap=10)
    assert t.level_of[3] == 2
    rec = apply_update(g, UpdateEvent(DELETE, 1, 3))
    changed = t.delete_edge(1, 3, rec.old_weight)
    assert changed == {3}
    assert t.level_of[3] == 4


def test_increase_beyond_cap_becomes_infinite():
    g = DynamicGraph(2, [(0, 1, 1)])
    t = MonotoneESTree(g.adj, 0, cap=3)
    rec = apply_update(g, UpdateEvent(INCREASE, 0, 1, 3))
    assert t.increase_weight(0, 1, 3, rec.old_weight) == {1}
    assert t.level_of[1] == 3
    rec = apply_update(g, UpdateEvent(INCREASE, 0, 1, 4))
    assert t.increase_weight(0, 1, 4, rec.old_weight) == {1}
    assert t.level_of[1] == INF


def test_insert_never_lowers_levels():
    g = DynamicGraph(4, [(0, 1, 5), (1, 2, 5), (2, 3, 5)])
    t = MonotoneESTree(g.adj, 0, cap=50)
    before = [t.level_of[v] for v in range(4)]
    g.adj[0][3] = g.adj[3][0] = 1
    t.insert_edge(0, 3, 1)  # a shortcut the monotone tree must ignore
    assert [t.level_of[v] for v in range(4)] == before
    # but the shortcut participates in later recomputation
    rec = apply_update(g, UpdateEvent(DELETE, 2, 3))
    t.delete_edge(2, 3, rec.old_weight)
    assert t.level_of[3] == before[3]  # min over neighbors now includes the shortcut


def test_edge_errors():
    """The tree keeps no edge set: the owner refuses a missing or duplicate
    edge, or a weight that does not rise, before it writes anything."""
    g = DynamicGraph(3, [(0, 1, 1)])
    t = MonotoneESTree(g.adj, 0, cap=5)
    levels = list(t.level_of)
    with pytest.raises(EdgeNotFound):
        apply_update(g, UpdateEvent(DELETE, 0, 2))
    with pytest.raises(DuplicateEdge):
        g.add_edge(1, 0, 4)
    with pytest.raises(MonotonicityViolation):
        apply_update(g, UpdateEvent(INCREASE, 0, 1, 1))
    # what the tree can still see: {0, 1} does not read weight 4
    with pytest.raises(UnwrittenChange):
        t.insert_edge(1, 0, 4)
    assert t.level_of == levels and t.level_increases == 0
    assert g.adj == [{1: 1}, {0: 1}, {}]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30), st.integers(3, 16), st.integers(1, 4))
def test_pure_decremental_levels_stay_exact(seed, n, w):
    """With deletions/increases only, levels equal distances (inf past cap)."""
    rng = random.Random(seed)
    g = gnp_graph(n, 0.5, w, rng)
    cap = 3 * n
    t = MonotoneESTree(g.adj, 0, cap)
    for _, u, v, _ in drain(g, rng):
        if rng.random() < 0.3 and g.has_edge(u, v):
            oldw = g.adj[u][v]
            neww = oldw + rng.randint(1, 3)
            g.adj[u][v] = neww
            g.adj[v][u] = neww
            t.increase_weight(u, v, neww, oldw)
        if g.has_edge(u, v):
            oldw = g.adj[u].pop(v)
            del g.adj[v][u]
            t.delete_edge(u, v, oldw)
        truth = ref_dijkstra(g.adj, 0)
        for x in range(n):
            if truth[x] <= cap:
                assert t.level_of[x] == truth[x]
            else:
                assert t.level_of[x] == INF


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**30))
def test_mixed_ops_keep_monotone_lower_bounded_witnessed(seed):
    """Interleaved inserts: levels never drop, never undershoot the true
    distance, and each settled increase is witnessed by an incident edge."""
    rng = random.Random(seed)
    n = rng.randint(4, 14)
    g = gnp_graph(n, 0.5, 3, rng)
    cap = rng.randint(2, 2 * n)
    t = MonotoneESTree(g.adj, 0, cap)
    pool = [
        (u, v) for u in range(n) for v in range(u + 1, n) if not g.has_edge(u, v)
    ]
    rng.shuffle(pool)
    prev = {v: t.level_of[v] for v in range(n)}
    for _ in range(25):
        op = rng.random()
        live = [(u, v) for u, v, _ in g.edges()]
        if op < 0.45 and live:
            u, v = live[rng.randrange(len(live))]
            oldw = g.adj[u].pop(v)
            del g.adj[v][u]
            changed = t.delete_edge(u, v, oldw)
        elif op < 0.7 and live:
            u, v = live[rng.randrange(len(live))]
            oldw = g.adj[u][v]
            neww = oldw + rng.randint(1, 4)
            g.adj[u][v] = neww
            g.adj[v][u] = neww
            changed = t.increase_weight(u, v, neww, oldw)
        elif pool:
            u, v = pool.pop()
            w = rng.randint(1, 3)
            g.adj[u][v] = w
            g.adj[v][u] = w
            t.insert_edge(u, v, w)
            changed = set()
        else:
            continue
        truth = ref_dijkstra(g.adj, 0)
        for x in range(n):
            lvl = t.level_of[x]
            assert lvl >= prev[x], "level decreased"
            assert lvl >= truth[x] or lvl == truth[x], "level below true distance"
            assert truth[x] <= lvl
            prev[x] = lvl
        for x in changed:
            lvl = t.level_of[x]
            assert lvl > 0
            if lvl != INF:
                witness = min(t.level_of[y] + w for y, w in t.adj[x].items())
                assert lvl == witness


def test_work_counter_bounded_by_nodes_times_cap():
    rng = random.Random(11)
    g = connected_graph(20, 0.2, 3, rng)
    cap = 25
    t = MonotoneESTree(g.adj, 0, cap)
    for u, v in [(a, b) for a, b, _ in sorted(g.edges())]:
        if g.has_edge(u, v):
            rec = apply_update(g, UpdateEvent(DELETE, u, v))
            t.delete_edge(u, v, rec.old_weight)
    assert t.level_increases <= 20 * (cap + 1)
    assert all(t.level_of[v] == (0 if v == 0 else INF) for v in range(20))


def pick_pair(rng, adj, tree):
    """Two distinct nodes: uniform, or, as often, a live edge of the kind
    the support test must get right (a tie l(x) + w == l(y), an endpoint at
    inf, the root as an endpoint), in either orientation."""
    kind = rng.choice(("any", "tie", "inf", "root"))
    lv = tree.level_of
    if kind != "any":
        pool = [(x, y) for x, nbrs in enumerate(adj) for y, w in nbrs.items()
                if (lv[x] + w == lv[y] < INF if kind == "tie" else
                    INF in (lv[x], lv[y]) if kind == "inf" else tree.root in (x, y))]
        if pool:
            x, y = rng.choice(pool)
            return (x, y) if rng.random() < 0.5 else (y, x)
    return rng.sample(range(len(adj)), 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**30))
def test_tree_reads_its_owners_adjacency_and_never_writes_it(seed):
    """Every tree op leaves the shared adjacency exactly as its owner wrote
    it, and two trees on one adjacency both follow every change, relax_edge
    included, as the neighbor-heap reference trees on the same adjacency do."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    g = gnp_graph(n, 0.5, 3, rng)
    adj = g.adj
    cap = rng.choice((0, 1, 4 * n))
    trees = [MonotoneESTree(adj, 0, cap), MonotoneESTree(adj, n - 1, cap)]
    refs = [ReferenceESTree(adj, 0, cap), ReferenceESTree(adj, n - 1, cap)]
    assert all(t.adj is adj for t in trees + refs)
    for _ in range(30):
        u, v = pick_pair(rng, adj, rng.choice(trees))
        w = rng.randint(1, 3)
        cur = adj[u].get(v)
        if cur is None:
            adj[u][v] = adj[v][u] = w
            op, args = "relax_edge", (u, v, w)
        elif rng.random() < 0.3:
            adj[u][v] = adj[v][u] = min(cur, w)
            op, args = "relax_edge", (u, v, w)
        elif rng.random() < 0.5:
            adj[u][v] = adj[v][u] = cur + w
            op, args = "increase_weight", (u, v, cur + w, cur)
        else:
            del adj[u][v], adj[v][u]
            op, args = "delete_edge", (u, v, cur)
        written = [dict(nb) for nb in adj]
        for t, ref in zip(trees, refs):
            got = getattr(t, op)(*args)
            assert adj == written
            want = getattr(ref, op)(*args)
            assert adj == written
            assert got == want
            assert t.adj is adj
            assert t.level_of == ref.level_of


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.integers(2, 30), st.sampled_from([1, 3, 10]),
       st.sampled_from([0, 1, 3, 10, 40, 1000]))
def test_region_repair_matches_the_level_by_level_reference(seed, n, max_w, cap):
    """Over streams of all four operations, the region repair ends at the
    same levels and raises the same nodes as the tree that lifts one level
    at a time, and counts one level increase per raised node."""
    rng = random.Random(seed)
    g = gnp_graph(n, rng.choice((0.1, 0.3, 0.6)), max_w, rng)
    adj = g.adj
    root = rng.randrange(n)
    t, ref = MonotoneESTree(adj, root, cap), ReferenceESTree(adj, root, cap)
    raised_total = 0
    for _ in range(40):
        u, v = pick_pair(rng, adj, t)
        w = rng.randint(1, max_w + 3)
        cur = adj[u].get(v)
        op = rng.choice(("insert_edge", "relax_edge") if cur is None else
                        ("relax_edge", "increase_weight", "delete_edge", "delete_edge"))
        if op == "delete_edge":
            del adj[u][v], adj[v][u]
            args = (u, v, cur)
        elif op == "increase_weight":
            adj[u][v] = adj[v][u] = cur + w
            args = (u, v, cur + w, cur)
        else:
            adj[u][v] = adj[v][u] = w if cur is None else min(cur, w)
            args = (u, v, w)
        got = getattr(t, op)(*args) or set()
        assert got == (getattr(ref, op)(*args) or set())
        assert t.level_of == ref.level_of
        raised_total += len(got)
        assert t.level_increases == raised_total


@pytest.mark.parametrize("max_w", [1, 10])
@pytest.mark.parametrize("density", [0.12, 0.25, 0.6])
@pytest.mark.parametrize("cap", [1, 13, "4n"])
def test_draining_every_edge_matches_the_reference_on_a_shared_adjacency(cap, density, max_w):
    """The regime of a full drain: three trees on one adjacency lose every
    edge in shuffled order, and after each deletion each tree raises the
    same nodes as the level-by-level reference, ends at its levels and
    counts one level increase per raised node."""
    for seed in range(2):
        rng = random.Random(f"{cap}/{density}/{max_w}/{seed}")
        n = rng.randint(20, 48)
        g = gnp_graph(n, density, max_w, rng)
        depth = 4 * n if cap == "4n" else cap
        pairs = [(MonotoneESTree(g.adj, r, depth), ReferenceESTree(g.adj, r, depth))
                 for r in rng.sample(range(n), 3)]
        raised_total = [0] * len(pairs)
        for ev in drain(g, rng):
            rec = apply_update(g, ev)
            for i, (t, ref) in enumerate(pairs):
                got = t.delete_edge(ev.u, ev.v, rec.old_weight)
                assert got == ref.delete_edge(ev.u, ev.v, rec.old_weight)
                assert t.level_of == ref.level_of
                raised_total[i] += len(got)
                assert t.level_increases == raised_total[i]
        assert all(t.level_of == [INF if x != t.root else 0 for x in range(g.n)]
                   for t, _ in pairs)


def test_a_bad_old_weight_is_refused_before_any_level_changes():
    """An old weight that is not finite or does not lie below the new one
    raises MonotonicityViolation with levels, counter and adjacency as they
    were; the same change with its true old weight then goes through."""
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 5), (2, 3, 1)])
    t = MonotoneESTree(g.adj, 0, cap=20)
    rises = [(INCREASE, 1, 2, 4), (DELETE, 0, 1)]
    bad_olds = [(4, 6, INF, -INF, math.nan), (INF, -INF, math.nan)]
    raised = [{2, 3}, {1}]
    for (kind, u, v, *w), olds, want in zip(rises, bad_olds, raised):
        rec = apply_update(g, UpdateEvent(kind, u, v, *w))
        levels = list(t.level_of)
        counted = t.level_increases
        written = [dict(nb) for nb in g.adj]
        for old in olds:
            with pytest.raises(MonotonicityViolation):
                if kind == DELETE:
                    t.delete_edge(u, v, old)
                else:
                    t.increase_weight(u, v, rec.new_weight, old)
            assert t.level_of == levels and t.level_increases == counted
            assert g.adj == written
        if kind == DELETE:
            assert t.delete_edge(u, v, rec.old_weight) == want
        else:
            assert t.increase_weight(u, v, rec.new_weight, rec.old_weight) == want
    assert [t.level_of[x] for x in range(4)] == [0, 9, 5, 6]


class NoScan(dict):
    """A neighbor dict that answers lookups but refuses to be scanned."""

    def items(self):
        raise AssertionError("neighbors scanned")

    keys = values = __iter__ = items


def test_a_change_the_edge_never_supported_scans_no_neighbors():
    """A rise of an edge supporting neither endpoint returns an empty set
    without reading either endpoint's neighbors; one supporting only one
    endpoint scans no neighbors of the other."""
    g = DynamicGraph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 3, 2),
                         (3, 4, 1)])
    t = MonotoneESTree(g.adj, 0, cap=10)
    levels = [0, 1, 1, 3, 4]
    assert [t.level_of[x] for x in range(5)] == levels
    for x in (1, 2):
        g.adj[x] = NoScan(g.adj[x])
    rec = apply_update(g, UpdateEvent(INCREASE, 1, 2, 5))
    assert t.increase_weight(1, 2, 5, rec.old_weight) == set()
    rec = apply_update(g, UpdateEvent(DELETE, 2, 1))
    assert t.delete_edge(2, 1, rec.old_weight) == set()
    rec = apply_update(g, UpdateEvent(DELETE, 3, 2))  # 3 keeps the tie via 1
    assert t.delete_edge(3, 2, rec.old_weight) == set()
    assert [t.level_of[x] for x in range(5)] == levels and t.level_increases == 0


def test_a_tie_is_a_support():
    """A node whose level a remaining neighbor matches exactly keeps it
    without joining the region, so the rows of the nodes it supports are
    never read."""
    g = DynamicGraph(5, [(0, 1, 1), (0, 2, 1), (1, 3, 2), (2, 3, 2), (3, 4, 1)])
    t = MonotoneESTree(g.adj, 0, cap=10)
    g.adj[4] = NoScan(g.adj[4])
    rec = apply_update(g, UpdateEvent(DELETE, 2, 3))
    assert t.delete_edge(2, 3, rec.old_weight) == set()
    assert [t.level_of[x] for x in range(5)] == [0, 1, 1, 3, 4] and t.level_increases == 0


def test_an_offer_is_a_support():
    """A node whose offer matches its level keeps it when its last edge
    support goes, without joining the region, so the rows of the nodes it
    supports are never read."""
    g = DynamicGraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    t = MonotoneESTree(g.adj, 0, cap=10, offers=offer_rows(5, 0, {2: 2}))
    g.adj[3] = NoScan(g.adj[3])
    rec = apply_update(g, UpdateEvent(DELETE, 1, 2))
    assert t.delete_edge(1, 2, rec.old_weight) == set()
    assert [t.level_of[x] for x in range(5)] == [0, 1, 2, 3, 4] and t.level_increases == 0


def test_slack_left_by_inserts_survives_a_repair():
    """A node held above what its neighbors offer keeps its level when a
    repair reaches it, and passes on its level, not the lower offer."""
    g = DynamicGraph(7, [(0, 1, 5), (1, 2, 5), (0, 3, 3), (0, 4, 4), (3, 4, 1),
                         (3, 5, 3), (5, 6, 1)])
    t = MonotoneESTree(g.adj, 0, cap=100)
    assert [t.level_of[v] for v in range(7)] == [0, 5, 10, 3, 4, 6, 7]
    for x in (3, 6):
        g.adj[x][2] = g.adj[2][x] = 1
        t.insert_edge(x, 2, 1)
    rec = apply_update(g, UpdateEvent(DELETE, 1, 2))
    assert t.delete_edge(1, 2, rec.old_weight) == set() and t.level_of[2] == 10
    rec = apply_update(g, UpdateEvent(DELETE, 0, 3))
    assert t.delete_edge(0, 3, rec.old_weight) == {3, 5, 6}
    assert [t.level_of[v] for v in range(7)] == [0, 5, 10, 5, 4, 8, 9]


def test_call_before_the_owner_writes_raises():
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 2), (0, 2, 5)])
    t = MonotoneESTree(g.adj, 0, cap=20)
    levels = list(t.level_of)
    with pytest.raises(UnwrittenChange):
        t.delete_edge(0, 1, 1)
    with pytest.raises(UnwrittenChange):
        t.increase_weight(1, 2, 3, 2)
    with pytest.raises(UnwrittenChange):
        t.insert_edge(2, 3, 1)
    with pytest.raises(UnwrittenChange):
        t.relax_edge(0, 2, 4)
    g.adj[1][2] = 3  # half a change is not written either
    with pytest.raises(UnwrittenChange):
        t.increase_weight(1, 2, 3, 2)
    g.adj[1][2] = 2
    assert t.level_of == levels and t.level_increases == 0
    rec = apply_update(g, UpdateEvent(DELETE, 0, 1))
    assert t.delete_edge(0, 1, rec.old_weight) == {1, 2}
    assert t.level_of[1] == 7 and t.level_of[2] == 5


def offer_stream(rng, g, root, offers):
    """Steps mixing offer rises (to a larger weight, or inf to drop one)
    with edge deletions, each drawn as the previous one is applied."""
    while g.m or offers:
        if offers and (not g.m or rng.random() < 0.4):
            x = rng.choice(sorted(offers))
            w = INF if rng.random() < 0.3 else offers[x] + rng.randint(1, 4)
            yield "absorb", x, w
        else:
            u, v = rng.choice([(u, v) for u, v, _ in g.edges()])
            if rng.random() < 0.3 and root in g.adj[u]:
                u, v = root, u  # root edges meet the offers most often
            yield "delete_edge", u, v


@pytest.mark.parametrize("max_w", [1, 10])
@pytest.mark.parametrize("density", [0.1, 0.3, 0.6])
def test_offers_match_the_reference_with_root_edges(density, max_w):
    """A tree whose offers stand for edges from the root raises the same
    nodes, ends at the same levels and counts one level increase per raised
    node as the level-by-level reference built on the adjacency plus those
    edges, over raised and dropped offers (rows rewritten, then named to
    absorb) interleaved with deletions; the adjacency and the rows it reads
    are never written."""
    for seed in range(4):
        rng = random.Random(f"offers/{density}/{max_w}/{seed}")
        n = rng.randint(6, 30)
        g = gnp_graph(n, density, max_w, rng)
        adj = g.adj
        root = rng.randrange(n)
        cap = rng.choice((2 * max_w, 4 * n * max_w))
        others = [x for x in range(n) if x != root]
        offers = {x: rng.randint(1, 3 * max_w) for x in rng.sample(others, rng.randint(1, n - 1))}
        with_edges = [dict(nb) for nb in adj]

        def root_edge(x):
            return min(adj[root].get(x, INF), offers.get(x, INF))

        for x in offers:
            with_edges[root][x] = with_edges[x][root] = root_edge(x)
        rows = offer_rows(n, root, offers)
        t = MonotoneESTree(adj, root, cap, rows)
        ref = ReferenceESTree(with_edges, root, cap)
        assert t.level_of == ref.level_of and t.offers is rows
        raised_total = 0
        for op, x, y in offer_stream(rng, g, root, offers):
            # the reference edge the step changes: a root edge where an
            # offer or a deleted edge meets the root, else the deleted edge
            if op == "absorb":
                u, v = root, x
            else:
                u, v = (root, x + y - root) if root in (x, y) else (x, y)
            before = with_edges[u].get(v, INF)
            if op == "absorb":
                rows[x][root] = y
                got = t.absorb([x])
                if y == INF:
                    del offers[x]
                else:
                    offers[x] = y
            else:
                old = adj[x][y]
                del adj[x][y], adj[y][x]
                written = [dict(nb) for nb in adj]
                got = t.delete_edge(x, y, old)
                assert adj == written
            after = root_edge(v) if u == root else INF
            if after == before:
                want = set()
            elif after == INF:
                del with_edges[u][v], with_edges[v][u]
                want = ref.delete_edge(u, v, before)
            else:
                with_edges[u][v] = with_edges[v][u] = after
                want = ref.increase_weight(u, v, after, before)
            assert got == want
            assert t.level_of == ref.level_of and held_offers(rows, root) == offers
            raised_total += len(got)
            assert t.level_increases == raised_total


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 30), st.sampled_from([1, 10**12]),
       st.sampled_from(["on", "between", "none"]))
def test_a_build_with_offers_and_a_cap_matches_dijkstra(seed, n, max_w, cut):
    """The build gives the reference Dijkstra's distances over the adjacency
    plus the offers as edges from the root, infinite above the cap; max_w 1
    ties most distances and 10**12 almost none.  The cap is one of the
    distances, falls between two of them, or is infinite."""
    rng = random.Random(seed)
    g = gnp_graph(n, rng.choice((0.1, 0.3)), max_w, rng)
    adj = g.adj
    root = rng.randrange(n)
    others = [x for x in range(n) if x != root]
    offers = {x: rng.randint(1, 3 * max_w) for x in rng.sample(others, rng.randint(0, n - 1))}
    with_edges = [dict(nb) for nb in adj]
    for x, w in offers.items():
        with_edges[root][x] = with_edges[x][root] = min(adj[root].get(x, INF), w)
    exact = ref_dijkstra(with_edges, root)
    levels = sorted({d for d in exact if d < INF}) + [INF]
    i = rng.randrange(len(levels) - 1)
    cap = {"on": levels[i], "between": (levels[i] + min(levels[i + 1], levels[i] + 2)) / 2,
           "none": INF}[cut]
    t = MonotoneESTree(adj, root, cap, offer_rows(n, root, offers))
    assert t.level_of == [d if d <= cap else INF for d in exact]


def test_a_node_without_an_offer_row_is_refused():
    """absorb refuses a node holding no offer row (the root, a node of a
    None entry, a node outside the graph, a bool or float, any node of a
    tree built without offers) with KeyError, the whole batch with it,
    before anything changes; a build refuses an offers list of another
    length or with an entry at the root.  A node named to absorb seeds the
    repair only while its level is below the offer its row now shows."""
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    rows = offer_rows(4, 0, {2: 1, 3: 5})
    t = MonotoneESTree(g.adj, 0, cap=10, offers=rows)
    assert [t.level_of[x] for x in range(4)] == [0, 1, 1, 2]
    before = (list(t.level_of), t.level_increases)
    rows[2][0] = INF
    for x in (0, 1, 9, -1, True, 2.0, None):
        for batch in ([x], [2, x], [x, 2]):
            with pytest.raises(KeyError):
                t.absorb(batch)
            assert (t.level_of, t.level_increases) == before
    rows[2][0] = 1
    rows[3][0] = 6
    assert t.absorb([3]) == set()  # not the support of 3: no repair
    assert t.absorb([2]) == set()  # no rise at all: 2 keeps its offer
    rows[2][0] = INF
    assert t.absorb([2]) == {2, 3}
    assert [t.level_of[x] for x in range(4)] == [0, 1, 2, 3] and t.level_increases == 2
    assert held_offers(rows, 0) == {3: 6}

    # an offer up to the cap seeds the build, one above it does not
    short = MonotoneESTree(DynamicGraph(4, [(0, 1, 4), (1, 3, 3)]).adj, 0, cap=5,
                           offers=offer_rows(4, 0, {2: 5, 3: 6}))
    assert [short.level_of[x] for x in range(4)] == [0, 4, 5, INF]

    bare = MonotoneESTree(g.adj, 0, cap=10)
    fam = TreeFamily(g.adj, [0, 3])
    assert bare.offers is None and all(tr.offers is None for tr in fam.values())
    with pytest.raises(KeyError):
        bare.absorb([1])
    for offers in ([None] * 3, [None] * 5, offer_rows(4, 0, {0: 1, 1: 1})):
        with pytest.raises(ValueError):
            MonotoneESTree(g.adj, 0, cap=10, offers=offers)


def test_a_node_outside_the_graph_is_refused():
    """Levels and adjacency are lists, where index -1 would read the last
    node: a root at -1 or n, or such a node named to absorb as an offer
    rise, is refused with the error a lookup of a missing node gives; so is
    a change with such an endpoint, to a tree or a family, and
    TreeFamily.add_root of such a root, before any level, tree, nearest
    root or nearest row changes.  Node 3 is not
    adjacent to 1, so {-1, 1} would read as an edge already gone."""
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    for root in (-1, 4):
        with pytest.raises(KeyError):
            MonotoneESTree(g.adj, root, cap=10)
    rowed = MonotoneESTree(g.adj, 0, cap=10, offers=offer_rows(4, 0, {3: 1}))
    for x in (-1, 4):
        with pytest.raises(KeyError):
            rowed.absorb([x])
    assert rowed.level_of == [0, 1, 2, 1] and rowed.level_increases == 0
    fam = TreeFamily(g.adj, [1])
    t = fam[1]
    before = (dict(fam), list(fam.nearest), nearest_levels(fam), list(fam.nearest_row),
              list(t.level_of), t.level_increases)
    for x in (-1, 4):
        with pytest.raises(KeyError):
            fam.add_root(x)
        with pytest.raises(KeyError):
            t.delete_edge(x, 1, 1)
        with pytest.raises(KeyError):
            t.absorb((), (1, x, INF, 1))
        with pytest.raises(KeyError):
            fam.apply(ChangeRecord(x, 1, 1, INF, 1))
        assert (dict(fam), fam.nearest, nearest_levels(fam), fam.nearest_row,
                t.level_of, t.level_increases) == before
    check_nearest(fam)


def test_a_bool_is_not_a_node():
    """bool is an int subclass and True == 1, so True would pass for node 1:
    a bool root is refused with KeyError, a bool named to absorb as an offer
    rise with KeyError, and a change with a bool endpoint, to a tree or a family,
    with KeyError before any level or nearest root changes, even once the
    adjacency shows the change at node 1."""
    g = DynamicGraph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 3)])
    for root in (True, False):
        with pytest.raises(KeyError):
            MonotoneESTree(g.adj, root, INF)
        with pytest.raises(KeyError):
            TreeFamily(g.adj, [root])
    rowed = MonotoneESTree(g.adj, 0, INF, offers=offer_rows(3, 0, {1: 2}))
    with pytest.raises(KeyError):
        rowed.absorb([True])
    assert rowed.level_of == [0, 1, 2] and rowed.level_increases == 0
    fam = TreeFamily(g.adj, [0])
    t = fam[0]
    before = (list(fam.nearest), nearest_levels(fam), list(t.level_of), t.level_increases)
    del g.adj[1][2], g.adj[2][1]
    for u, v in ((True, 2), (2, True)):
        with pytest.raises(KeyError):
            fam.apply(ChangeRecord(u, v, 1, INF, 1))
        with pytest.raises(KeyError):
            t.absorb((), (u, v, INF, 1))
    assert (fam.nearest, nearest_levels(fam), t.level_of, t.level_increases) == before
    assert fam.apply(ChangeRecord(1, 2, 1, INF, 1)) == {2}
    assert t.level_of == [0, 1, 3]


def test_exact_apsp_answers_every_pair_under_rises_and_deletions():
    """ExactAPSP reads d(u, v) off u's tree after each rise and deletion,
    and refuses a query node outside 0..n-1, a float or a bool with
    DomainError."""
    rng = random.Random(6)
    g = connected_graph(10, 0.4, 5, rng)
    algo = ExactAPSP(g.copy())
    assert [[algo.query(u, v) for v in range(10)] for u in range(10)] == exact_apsp(g)
    for u, v, w in sorted(g.edges()):
        if rng.random() < 0.5:
            ev = UpdateEvent(INCREASE, u, v, w + rng.randint(1, 5))
            algo.increase(u, v, ev.delta)
        else:
            ev = UpdateEvent(DELETE, u, v)
            algo.delete(u, v)
        apply_update(g, ev)
        assert [[algo.query(x, y) for y in range(10)] for x in range(10)] == exact_apsp(g)
    assert algo.counters()["updates"] == algo.g.version == g.version
    for u, v in ((-1, 3), (3, -1), (10, 3), (3, 10), (2.0, 3), (True, 3), (3, False)):
        with pytest.raises(DomainError):
            algo.query(u, v)


def test_absorb_refuses_a_bad_batch_before_anything_changes():
    """absorb checks every named node and the deletion before it writes
    any: one node without an offer row, an edge the adjacency still shows,
    or an old weight that is not finite refuses the whole batch, with the
    raised offer already showing in its row."""
    g = DynamicGraph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
    rows = offer_rows(5, 0, {2: 1, 3: 5})
    t = MonotoneESTree(g.adj, 0, cap=10, offers=rows)
    before = (list(t.level_of), t.level_increases)
    rows[2][0] = INF
    with pytest.raises(KeyError):
        t.absorb([2, 4])
    with pytest.raises(UnwrittenChange):
        t.absorb([2], (1, 2, INF, 1))
    del g.adj[1][2], g.adj[2][1]
    for old in (INF, -INF, math.nan):
        with pytest.raises(MonotonicityViolation):
            t.absorb([2], (1, 2, INF, old))
    assert (t.level_of, t.level_increases) == before
    assert t.absorb([2], (1, 2, INF, 1)) == {2, 3, 4}
    assert [t.level_of[x] for x in range(5)] == [0, 1, 6, 5, 6]
    assert held_offers(rows, 0) == {3: 5}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_one_batched_absorb_equals_sequential_changes(seed):
    """absorb of several offer rises and an edge change (a deletion or a
    finite weight rise) ends at the levels that absorbing each offer and
    then the edge change one by one, on a twin tree, adjacency and rows,
    reaches; it raises the union of their raised sets and counts no more
    level increases."""
    rng = random.Random(seed)
    n = rng.randint(3, 16)
    g = gnp_graph(n, rng.choice((0.2, 0.5)), rng.choice((1, 4)), rng)
    twin_adj = [dict(nb) for nb in g.adj]
    root = rng.randrange(n)
    cap = rng.choice((2, 6, 4 * n * 4))
    others = [x for x in range(n) if x != root]
    offers = {x: rng.randint(1, 6) for x in rng.sample(others, rng.randint(0, n - 1))}
    rows, twin_rows = offer_rows(n, root, offers), offer_rows(n, root, offers)
    batched = MonotoneESTree(g.adj, root, cap, rows)
    twin = MonotoneESTree(twin_adj, root, cap, twin_rows)
    for _ in range(6):
        held = sorted(offers)
        rises = {x: INF if rng.random() < 0.3 else offers[x] + rng.randint(1, 4)
                 for x in rng.sample(held, rng.randint(0, len(held)))}
        edges = [(u, v) for u, v, _ in g.edges()]
        change = None
        if edges and rng.random() < 0.8:
            u, v = rng.choice(edges)
            if rng.random() < 0.5:
                rec = apply_update(g, UpdateEvent(DELETE, u, v))
            else:
                rec = apply_update(g, UpdateEvent(INCREASE, u, v,
                                                  g.weight(u, v) + rng.randint(1, 4)))
            change = (u, v, rec.new_weight, rec.old_weight)
        if not rises and change is None:
            continue
        for x, w in rises.items():
            rows[x][root] = w
            if w == INF:
                del offers[x]
            else:
                offers[x] = w
        got = batched.absorb(list(rises), change)
        want = set()
        for x, w in rises.items():
            twin_rows[x][root] = w
            want |= twin.absorb([x])
        if change is not None and rec.new_weight == INF:
            del twin_adj[u][v], twin_adj[v][u]
            want |= twin.delete_edge(u, v, rec.old_weight)
        elif change is not None:
            twin_adj[u][v] = twin_adj[v][u] = rec.new_weight
            want |= twin.increase_weight(u, v, rec.new_weight, rec.old_weight)
        assert got == want
        assert batched.level_of == twin.level_of and rows == twin_rows
        assert batched.level_increases <= twin.level_increases


def check_nearest(fam):
    """nearest and each node's nearest level, nearest_row[v][v], against the
    brute-force argmin over the family, and nearest_row against the nearest
    tree's level_of."""
    for v in range(len(fam.adj)):
        level, r = min(((t.level_of[v], r) for r, t in fam.items()), default=(INF, None))
        assert fam.nearest_row[v][v] == level
        assert fam.nearest[v] == (r if level < INF else None)
    check_nearest_rows(fam)


def test_tree_family_refuses_an_unwritten_or_non_rising_change():
    """apply checks the shared adjacency and the rise once, before any tree
    is called: a change the adjacency does not show yet, or a weight that
    does not rise, raises and leaves every level and nearest root as it
    was, also when no tree's phase-0 test would flag the edge ({1, 4})."""
    g = DynamicGraph(5, [(0, 1, 1), (1, 2, 2), (2, 3, 1), (3, 4, 3), (0, 4, 6), (1, 4, 9)])
    fam = TreeFamily(g.adj, [0, 3])

    def state():
        return ({r: (list(t.level_of), t.level_increases) for r, t in fam.items()},
                list(fam.nearest), nearest_levels(fam))

    before = state()
    bad = [(UnwrittenChange, ChangeRecord(0, 1, 1, INF, 1)),      # deletion not written
           (UnwrittenChange, ChangeRecord(1, 2, 2, 5, 1)),        # rise not written
           (MonotonicityViolation, ChangeRecord(1, 2, 2, 2, 1)),  # no rise
           (MonotonicityViolation, ChangeRecord(1, 2, 3, 2, 1)),  # a drop
           (MonotonicityViolation, ChangeRecord(1, 2, INF, 2, 1)),
           (UnwrittenChange, ChangeRecord(1, 4, 9, INF, 1)),
           (MonotonicityViolation, ChangeRecord(1, 4, 9, 9, 1))]
    for error, rec in bad:
        with pytest.raises(error):
            fam.apply(rec)
        assert state() == before
    g.adj[1][2] = 5  # half a change is not written either
    with pytest.raises(UnwrittenChange):
        fam.apply(ChangeRecord(1, 2, 2, 5, 1))
    assert state() == before
    g.adj[2][1] = 5
    assert fam.apply(ChangeRecord(1, 2, 2, 5, 1)) == {0, 1, 2, 3}
    assert [fam[0].level_of[x] for x in range(5)] == [0, 1, 6, 7, 6]
    assert [fam[3].level_of[x] for x in range(5)] == [7, 6, 1, 0, 3]
    assert fam.nearest == [0, 0, 3, 3, 3] and nearest_levels(fam) == [0, 1, 1, 0, 3]
    check_nearest(fam)


def test_tree_family_and_absorb_refuse_a_non_node_endpoint_with_key_error():
    """The inline check of apply and absorb sends anything but an int in
    0..n-1 to _require_written, so a str, float or None endpoint gets the
    KeyError of a missing node, not the TypeError of comparing or indexing
    with it, and a non-rise still gets MonotonicityViolation, before any
    level or nearest root changes."""
    g = DynamicGraph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    fam = TreeFamily(g.adj, [1])
    t = fam[1]
    before = (list(fam.nearest), nearest_levels(fam), list(t.level_of), t.level_increases)
    for x in ("a", 1.0, 2.5, None, -1, 4):
        for u, v in ((x, 2), (2, x)):
            with pytest.raises(KeyError):
                fam.apply(ChangeRecord(u, v, 1, INF, 1))
            with pytest.raises(KeyError):
                t.absorb((), (u, v, INF, 1))
    for old, new in ((1, 1), (2, 1), (INF, 1), (math.nan, 1)):
        with pytest.raises(MonotonicityViolation):
            fam.apply(ChangeRecord(1, 2, old, new, 1))
    assert (fam.nearest, nearest_levels(fam), t.level_of, t.level_increases) == before


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**30))
def test_tree_family_keeps_each_nodes_nearest_root(seed):
    """Over deletions and rises, with roots added mid-stream, each node's
    nearest root and level are the argmin over the family (ties to the
    smaller root), and apply returns exactly the union of the sets that
    per-tree calls on a twin adjacency raise."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    g = gnp_graph(n, rng.choice((0.2, 0.5)), 3, rng)
    twin = [dict(nb) for nb in g.adj]
    roots = rng.sample(range(n), rng.randint(0, min(3, n)))
    fam = TreeFamily(g.adj, roots)
    twins = {r: MonotoneESTree(twin, r, INF) for r in roots}
    assert list(fam) == roots and all(t.adj is g.adj for t in fam.values())
    check_nearest(fam)
    r = roots[0] if roots else 0
    with pytest.raises(KeyError):
        TreeFamily(g.adj, [r, r])
    for _ in range(30):
        spare = [r for r in range(n) if r not in fam]
        if spare and rng.random() < 0.2:
            r = rng.choice(spare)
            fam.add_root(r)
            twins[r] = MonotoneESTree(twin, r, INF)
            check_nearest(fam)
            before = (dict(fam), list(fam.nearest), nearest_levels(fam))
            with pytest.raises(KeyError):
                fam.add_root(r)
            assert (dict(fam), fam.nearest, nearest_levels(fam)) == before
        live = [(u, v) for u, v, _ in g.edges()]
        if not live:
            break
        u, v = rng.choice(live)
        if rng.random() < 0.5:
            rec = apply_update(g, UpdateEvent(DELETE, u, v))
            del twin[u][v], twin[v][u]
            want = [t.delete_edge(u, v, rec.old_weight) for t in twins.values()]
        else:
            rec = apply_update(g, UpdateEvent(INCREASE, u, v, g.weight(u, v) + rng.randint(1, 3)))
            twin[u][v] = twin[v][u] = rec.new_weight
            want = [t.increase_weight(u, v, rec.new_weight, rec.old_weight)
                    for t in twins.values()]
        assert fam.apply(rec) == set().union(*want)
        assert all(fam[r].level_of == t.level_of for r, t in twins.items())
        check_nearest(fam)
