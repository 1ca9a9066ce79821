"""Every ES-tree a structure builds is found under its root in exactly one
of the maps that name its family: engine.trees (pivot), heavy_trees (heavy)
or tree (additive).  perfbench's tracer bills each tree call through these
maps, so a tree missing from all of them would be billed to estree.other.
It counts calls and raised nodes at the public increase_weight and
delete_edge, so each change must reach the family trees through them."""

import random

from decapsp.additive import AdditiveAPSP
from decapsp.apsp_mixed import MixedAPSP
from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.estree import MonotoneESTree
from decapsp.graph import gnp_workload

from helpers import deletion_order, rand_connected


def owners(structure, tree):
    engine = getattr(structure, "engine", None)
    maps = (engine.trees if engine is not None else {},
            getattr(structure, "heavy_trees", {}),
            getattr(structure, "tree", {}))
    return [i for i, trees in enumerate(maps) if trees.get(tree.root) is tree]


def replay(monkeypatch, build, stream):
    """Build a structure and delete stream's edges, recording each tree it
    builds; returns the structure, the trees and how many the build made."""
    built = []
    init = MonotoneESTree.__init__

    def record(tree, *args):
        init(tree, *args)
        built.append(tree)

    monkeypatch.setattr(MonotoneESTree, "__init__", record)
    algo = build()
    at_build = len(built)
    for u, v in stream:
        algo.delete(u, v)
    return algo, built, at_build


def test_mult_trees_are_the_pivot_family(monkeypatch):
    g, order = gnp_workload(20, 0.3, 5, random.Random(1))
    algo, built, _ = replay(monkeypatch, lambda: MultiplicativeAPSP(g, 0.3, 0.9, 2), order)
    assert built and all(owners(algo, t) == [0] for t in built)


def test_mixed_trees_promoted_mid_stream_are_the_heavy_family(monkeypatch):
    rng = random.Random(9)
    g = rand_connected(rng, 12, 0.4, 6)
    algo, built, at_build = replay(
        monkeypatch, lambda: MixedAPSP(g, p=0.3, eps=0.9, tau=3, seed=2),
        deletion_order(rng, g))
    assert len(built) > at_build  # promotions after the build
    found = [owners(algo, t) for t in built]
    assert all(len(f) == 1 for f in found) and {f[0] for f in found} == {0, 1}
    assert all(f == [1] for f in found[at_build:])


def test_additive_trees_are_the_additive_family(monkeypatch):
    g, order = gnp_workload(24, 0.3, 1, random.Random(3))
    algo, built, _ = replay(monkeypatch, lambda: AdditiveAPSP(g, k=3, d=4, c=0.3, seed=4),
                            order)
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


def reached_once(calls, trees):
    """Each tree in trees got exactly one call, and no other tree got any."""
    return sorted(map(id, calls)) == sorted(map(id, trees))


def test_every_change_reaches_each_family_tree_once(monkeypatch):
    """TreeFamily.apply hands each deletion and each rise to every pivot
    and heavy tree through increase_weight/delete_edge, once per tree, so
    the tracer's estree.*.calls and nodes_raised see every tree's repair."""
    rng = random.Random(9)
    g = rand_connected(rng, 12, 0.4, 6)
    algo = MixedAPSP(g, p=0.3, eps=0.9, tau=3, seed=2)
    calls = count_rise_calls(monkeypatch)
    heavy_seen = 0
    for u, v in deletion_order(rng, g):
        for kind in ("increase", "delete"):
            trees = [*algo.engine.trees.values(), *algo.heavy_trees.values()]
            heavy_seen += bool(algo.heavy_trees)
            calls.clear()
            if kind == "increase":
                algo.increase(u, v, algo.g.adj[u][v] + rng.randint(1, 3))
            else:
                algo.delete(u, v)
            assert reached_once(calls, trees)
    assert heavy_seen


def test_every_deletion_reaches_each_level_one_additive_tree_once(monkeypatch):
    """AdditiveAPSP hands each deletion to every level-1 tree through
    delete_edge, once per tree; the trees above level 1 get a number of
    calls that depends on the change."""
    g, order = gnp_workload(24, 0.3, 1, random.Random(3))
    algo = AdditiveAPSP(g, k=3, d=4, c=0.3, seed=4)
    level_one = [algo.tree[r] for r in algo.roots[1]]
    assert level_one
    calls = count_rise_calls(monkeypatch)
    for u, v in order:
        calls.clear()
        algo.delete(u, v)
        assert reached_once([t for t in calls if any(t is s for s in level_one)], level_one)
