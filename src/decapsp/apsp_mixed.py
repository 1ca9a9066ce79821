"""Weighted (2 + eps)-approximation with a per-pair additive edge term.

Splits intermediate nodes by cluster size.  A node is heavy once at least
tau bunches contain it; heaviness is permanent.  Heavy nodes root their own
bounded-depth trees, so any pair can route through its nearest heavy node
at exact tree distances.  Light intermediates are covered pairwise: for
every unordered pair {u, v} an overlap heap stores each light w lying in
both bunches, keyed rounded_bunch(u, w) + rounded_bunch(v, w): the sum of
the two ladder values engine.bunch holds.  Every entry is written by
heaps.heap_set at its final key, inf once w has left either bunch, and a
pair's heap exists only while it holds an entry.  The heaps holding w are
exactly the pairs of its cluster, so bunches and clusters are read from the
BunchEngine, which owns them, and no copy or reverse index is kept.

An update is absorbed against the engine's final state.  After the refresh
and the heavy trees' repair, the bunch events are grouped by member w; the
owners w had before the update are its final cluster without the owners
that joined, plus those that left.  A light w whose final cluster holds at
least tau owners is promoted: its tree is built on the current graph and
joins the heavy TreeFamily, where it competes for every node's nearest
heavy root, and its entry leaves the heap of every pair of its old owners.
Otherwise each pair with a changed owner is brought to its final state
once.  Queries take the best of pivot routes, routes through the nearest
heavy node of either endpoint, and the pair's overlap minimum.
"""

from __future__ import annotations

import math
from itertools import combinations

from .bunches import INCREASE, JOIN, LEAVE, BunchEngine
from .estree import TreeFamily
from .graph import DELETE, INCREASE as W_INCREASE, DomainError, UpdateEvent, apply_update
from .heaps import heap_set

INF = math.inf


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class MixedAPSP:
    def __init__(self, graph, p, eps, tau, seed):
        if not tau >= 1:
            raise DomainError(f"tau must be a threshold of at least 1, got {tau!r}")
        self.g = graph
        self.tau = tau
        self.engine = BunchEngine(graph, p, eps, seed)
        bunch, cluster = self.engine.bunch, self.engine.cluster

        self.heavy_trees = TreeFamily(
            graph.adj, self.engine.depth_cap,
            [w for w in range(graph.n) if len(cluster[w]) >= tau])

        self.overlap_heap = {}  # unordered (u, v) -> IndexedHeap of light w
        self.overlap_touches = 0  # overlap entries re-keyed by INCREASE events

        for w in range(graph.n):
            if w in self.heavy_trees:
                continue
            for u, v in combinations(cluster[w], 2):
                heap_set(self.overlap_heap, _pair(u, v), w, bunch[u][w] + bunch[v][w])

        self.updates_applied = 0

    # -- overlap layer -------------------------------------------------------

    def _absorb(self, events):
        """Bring the overlap entries of each member named by the events to the
        engine's final bunches and clusters, promoting it if it reached tau."""
        changed = {}  # member -> {owner: case}
        for bev in events:
            changed.setdefault(bev.member, {})[bev.owner] = bev.case
        bunch, cluster = self.engine.bunch, self.engine.cluster
        heaps = self.overlap_heap
        for w, cases in changed.items():
            if w in self.heavy_trees:
                continue
            final = cluster[w]
            old = {u for u in final if cases.get(u) != JOIN}
            old.update(u for u, case in cases.items() if case == LEAVE)
            if len(final) >= self.tau:
                self.heavy_trees.add_root(w)
                for u, v in combinations(old, 2):
                    heap_set(heaps, _pair(u, v), w, INF)
                continue
            # an INCREASE on (v, w) re-keys {u, v} for each other owner u kept
            # through the update, even where u's own INCREASE re-keys it too
            increases = sum(1 for case in cases.values() if case == INCREASE)
            self.overlap_touches += increases * (len(old & final) - 1)
            owners = old | final
            for v in cases:
                for u in owners:
                    if u == v or (u in cases and u > v):
                        continue  # {u, v} is done once, from its larger changed owner
                    # {u, v} holds w before the update iff both owners are
                    # old, and after it iff the final key is finite
                    key = bunch[u].get(w, INF) + bunch[v].get(w, INF)
                    if key < INF or (u in old and v in old):
                        heap_set(heaps, _pair(u, v), w, key)

    # -- updates ---------------------------------------------------------------

    def delete(self, u, v):
        self._apply(UpdateEvent(DELETE, u, v))

    def increase(self, u, v, delta):
        self._apply(UpdateEvent(W_INCREASE, u, v, delta))

    def _apply(self, ev):
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        events = self.engine.refresh(rec)
        self.heavy_trees.apply(rec)
        self._absorb(events)

    # -- queries ---------------------------------------------------------------

    def query(self, u, v):
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"query ({u}, {v}) outside the nodes [0, {n})")
        if u == v:
            return 0
        best = INF
        for trees in (self.engine.trees, self.heavy_trees):
            nearest, nearest_level = trees.nearest, trees.nearest_level
            for a, b in ((u, v), (v, u)):
                r = nearest[a]
                if r is not None:
                    cand = nearest_level[a] + trees[r].level_of[b]
                    if cand < best:
                        best = cand
        heap = self.overlap_heap.get(_pair(u, v))
        if heap is not None:
            cand = heap.min_key()
            if cand < best:
                best = cand
        return best

    def counters(self):
        return {
            "updates": self.updates_applied,
            "searches": self.engine.searches,
            "bunch_rebuilds_max": max(self.engine.rebuilds, default=0),
            "bunch_rebuilds_total": sum(self.engine.rebuilds),
            "promotions": len(self.heavy_trees),
            "heavy_count": len(self.heavy_trees),
            "overlap_touches": self.overlap_touches,
            "overlap_pairs_live": len(self.overlap_heap),
            "tree_level_increases": (
                sum(t.level_increases for t in self.engine.trees.values())
                + sum(t.level_increases for t in self.heavy_trees.values())
            ),
        }
