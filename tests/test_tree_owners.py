"""Every ES-tree a structure builds is found under its root in exactly one
of the maps that name its family: engine.trees (pivot), heavy_trees (heavy)
or tree (additive).  perfbench's tracer bills each tree call through these
maps, so a tree missing from all of them would be billed to estree.other.
It counts calls and raised nodes at the public increase_weight and
delete_edge, so each tree a change can reach must get it through them."""

import math
import random

from decapsp.additive import AdditiveAPSP
from decapsp.apsp_mixed import MixedAPSP
from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.estree import MonotoneESTree
from decapsp.graph import connected_graph, drain, gnp_graph

INF = math.inf


def owners(structure, tree):
    engine = getattr(structure, "engine", None)
    maps = (engine.trees if engine is not None else {},
            getattr(structure, "heavy_trees", {}),
            getattr(structure, "tree", {}))
    return [i for i, trees in enumerate(maps) if trees.get(tree.root) is tree]


def replay(monkeypatch, build, stream):
    """Build a structure and apply stream's updates, recording each tree it
    builds; returns the structure, the trees and how many the build made."""
    built = []
    init = MonotoneESTree.__init__

    def record(tree, *args):
        init(tree, *args)
        built.append(tree)

    monkeypatch.setattr(MonotoneESTree, "__init__", record)
    algo = build()
    at_build = len(built)
    for ev in stream:
        algo.apply(ev)
    return algo, built, at_build


def test_mult_trees_are_the_pivot_family(monkeypatch):
    rng = random.Random(1)
    g = gnp_graph(20, 0.3, 5, rng)
    algo, built, _ = replay(monkeypatch, lambda: MultiplicativeAPSP(g, 0.3, 0.9, 2),
                            drain(g, rng))
    assert built and all(owners(algo, t) == [0] for t in built)


def test_mixed_trees_promoted_mid_stream_are_the_heavy_family(monkeypatch):
    rng = random.Random(9)
    g = connected_graph(12, 0.4, 6, rng)
    algo, built, at_build = replay(
        monkeypatch, lambda: MixedAPSP(g, p=0.3, eps=0.9, tau=3, seed=2), drain(g, rng))
    assert len(built) > at_build  # promotions after the build
    found = [owners(algo, t) for t in built]
    assert all(len(f) == 1 for f in found) and {f[0] for f in found} == {0, 1}
    assert all(f == [1] for f in found[at_build:])


def test_additive_trees_are_the_additive_family(monkeypatch):
    rng = random.Random(3)
    g = gnp_graph(24, 0.3, 1, rng)
    algo, built, _ = replay(monkeypatch, lambda: AdditiveAPSP(g, k=3, d=4, c=0.3, seed=4),
                            drain(g, rng))
    assert built and all(owners(algo, t) == [2] for t in built)


def count_rise_calls(monkeypatch):
    """Wrap increase_weight and delete_edge so that each call a tree gets
    from outside itself is recorded, as the tracer bills them; a tree's call
    into its own methods is not.  Returns the list the calls go to."""
    calls, active = [], []
    for name in ("increase_weight", "delete_edge"):
        def wrapper(tree, *args, _fn=getattr(MonotoneESTree, name)):
            if not any(t is tree for t in active):
                calls.append(tree)
            active.append(tree)
            try:
                return _fn(tree, *args)
            finally:
                active.pop()
        monkeypatch.setattr(MonotoneESTree, name, wrapper)
    return calls


def flagged(trees, u, v, old):
    """The trees whose phase-0 test flags an endpoint of {u, v} at weight
    old: l(other) + old <= l(x) < inf at x = u or x = v."""
    out = []
    for t in trees:
        lu, lv = t.level_of[u], t.level_of[v]
        if lv + old <= lu < INF or lu + old <= lv < INF:
            out.append(t)
    return out


def same_trees(calls, trees):
    """Each tree in trees got exactly one call, and no other tree got any."""
    return sorted(map(id, calls)) == sorted(map(id, trees))


def check_twins(twins, twin_adj, trees, called, u, v, old, new):
    """Write the change into the twin adjacency and call every twin, as if
    no tree were skipped: a skipped tree's twin raises nothing, and each
    twin ends at its tree's levels."""
    if new == INF:
        del twin_adj[u][v], twin_adj[v][u]
    else:
        twin_adj[u][v] = twin_adj[v][u] = new
    for t in trees:
        twin = twins[id(t)]
        if new == INF:
            moved = twin.delete_edge(u, v, old)
        else:
            moved = twin.increase_weight(u, v, new, old)
        if not any(c is t for c in called):
            assert moved == set()
        assert twin.level_of == t.level_of


def test_every_change_calls_exactly_the_family_trees_it_flags(monkeypatch):
    """TreeFamily.apply calls increase_weight/delete_edge on exactly the
    pivot and heavy trees whose phase-0 test flags an endpoint, each once,
    so the tracer's estree.*.calls and nodes_raised see every repair; a
    twin of each tree, called on every change, raises nothing in each tree
    that was skipped."""
    rng = random.Random(9)
    g = connected_graph(12, 0.4, 6, rng)
    algo = MixedAPSP(g, p=0.3, eps=0.9, tau=3, seed=2)
    twin_adj = [dict(nb) for nb in g.adj]
    twins = {}
    calls = count_rise_calls(monkeypatch)
    heavy_seen = skipped = 0
    for _, u, v, _ in drain(g, rng):
        for kind in ("increase", "delete"):
            trees = [*algo.engine.trees.values(), *algo.heavy_trees.values()]
            for t in trees:
                if id(t) not in twins:
                    twins[id(t)] = MonotoneESTree(twin_adj, t.root, t.cap)
            heavy_seen += bool(algo.heavy_trees)
            old = algo.g.adj[u][v]
            want = flagged(trees, u, v, old)
            skipped += len(trees) - len(want)
            calls.clear()
            if kind == "increase":
                algo.increase(u, v, old + rng.randint(1, 3))
            else:
                algo.delete(u, v)
            called = list(calls)
            assert same_trees(called, want)
            check_twins(twins, twin_adj, trees, called, u, v, old,
                        algo.g.adj[u].get(v, INF))
    assert heavy_seen and skipped


def test_every_deletion_calls_exactly_the_level_one_additive_trees_it_flags(monkeypatch):
    """AdditiveAPSP calls delete_edge on exactly the level-1 trees whose
    phase-0 test flags an endpoint, each once; a twin of each level-1 tree,
    called on every deletion, raises nothing in each tree that was skipped.
    A tree gets at most one absorb call per deletion, which the tracer
    does not wrap (delete_edge reaches it too), and only when it has offers
    to raise or the dying edge is flagged in it."""
    rng = random.Random(3)
    g = gnp_graph(24, 0.3, 1, rng)
    order = drain(g, rng)
    algo = AdditiveAPSP(g, k=3, d=4, c=0.3, seed=4)
    level_one = [algo.tree[r] for r in algo.roots[1]]
    assert level_one
    twin_adj = [dict(nb) for nb in g.adj]
    twins = {id(t): MonotoneESTree(twin_adj, t.root, t.cap) for t in level_one}
    calls = count_rise_calls(monkeypatch)
    absorbed = []

    def absorb(tree, rises, change=None, _fn=MonotoneESTree.absorb):
        edge_flagged = change is not None and bool(
            flagged([tree], change[0], change[1], change[3]))
        absorbed.append((tree, bool(rises) or edge_flagged))
        return _fn(tree, rises, change)

    monkeypatch.setattr(MonotoneESTree, "absorb", absorb)
    skipped = 0
    for _, u, v, _ in order:
        want = flagged(level_one, u, v, 1)
        skipped += len(level_one) - len(want)
        calls.clear()
        absorbed.clear()
        algo.delete(u, v)
        assert all(needed for _, needed in absorbed)
        assert len({id(t) for t, _ in absorbed}) == len(absorbed)
        called = [t for t in calls if any(t is s for s in level_one)]
        assert same_trees(called, want)
        check_twins(twins, twin_adj, level_one, called, u, v, 1, INF)
    assert skipped
