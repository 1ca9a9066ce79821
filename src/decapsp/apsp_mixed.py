"""Weighted (2 + eps)-approximation with a per-pair additive edge term.

Splits intermediate nodes by cluster size.  A node is heavy once at least
tau bunches contain it; heaviness is permanent.  Heavy nodes root their own
shortest-path trees, so any pair can route through its nearest heavy node
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
once.  The build goes through the same _absorb, as an update in which
every owner joins: it starts from no heavy tree and no overlap entry.
Queries take the best of pivot routes, routes through the nearest heavy
node of either endpoint, and the pair's overlap minimum.
"""

from __future__ import annotations

import math
from itertools import combinations

from .bunches import INCREASE, JOIN, LEAVE, BunchEngine
from .estree import TreeFamily
from .graph import Decremental, DomainError, apply_update, check_query
from .heaps import heap_set

INF = math.inf


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class MixedAPSP(Decremental):
    """(2 + eps, W_uv)-APSP in total update time O~(n m^{3/4}).

    p is the pivot sampling probability and tau the promotion threshold;
    None derives p = m^{-1/4} and tau = floor(sqrt(m)) with
    m = max(graph.m, 1), so neither needs a clamp.  The p n pivot trees
    cost O~(p n m).  Clusters hold as many entries as bunches, O~(n / p),
    so at most n / (p tau) nodes turn heavy, and their trees cost
    O~(n m / (p tau)).  A light w sits in fewer than tau bunches, so its
    pairs number below tau |cluster(w)|, O~(n tau / p) overlap entries in
    all.  At p = m^{-1/4} and tau = sqrt(m) each of the three is
    O~(n m^{3/4}).  An explicit p outside [0, 1] is refused by
    sample_pivots, and a tau below 1 here.
    """

    def __init__(self, graph, p, eps, tau, seed):
        m = max(graph.m, 1)
        if p is None:
            p = m ** -0.25
        if tau is None:
            tau = int(math.sqrt(m))
        if not tau >= 1:
            raise DomainError(f"tau must be a threshold of at least 1, got {tau!r}")
        self.g = graph
        self.tau = tau
        self.engine = BunchEngine(graph, p, eps, seed)
        self.heavy_trees = TreeFamily(graph.adj)
        self.overlap_heap = {}  # unordered (u, v) -> IndexedHeap of light w
        self.overlap_touches = 0  # overlap entries re-keyed by INCREASE events
        self.updates_applied = 0
        # the build is an update in which w joins the bunch of every owner
        cluster = self.engine.cluster
        self._absorb((w, dict.fromkeys(cluster[w], JOIN)) for w in range(graph.n))

    # -- overlap layer -------------------------------------------------------

    def _absorb(self, changed):
        """Bring the overlap entries of each member w of the (w, {owner:
        case}) pairs in changed to the engine's final bunches and clusters,
        promoting w if it reached tau."""
        bunch, cluster = self.engine.bunch, self.engine.cluster
        heaps = self.overlap_heap
        for w, cases in changed:
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

    def apply(self, ev):
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        changed = {}  # member -> {owner: case}
        for bev in self.engine.refresh(rec):
            changed.setdefault(bev.member, {})[bev.owner] = bev.case
        self.heavy_trees.apply(rec)
        self._absorb(changed.items())

    # -- queries ---------------------------------------------------------------

    def query(self, u, v):
        n = self.g.n
        # graph.is_node, inline: two calls made a query about 20% slower
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            check_query(u, v, n)
        if u == v:
            return 0
        rows = self.engine.trees.nearest_row
        ru, rv = rows[u], rows[v]
        best = ru[u] + ru[v]
        cand = rv[v] + rv[u]
        if cand < best:
            best = cand
        rows = self.heavy_trees.nearest_row
        ru, rv = rows[u], rows[v]
        cand = ru[u] + ru[v]
        if cand < best:
            best = cand
        cand = rv[v] + rv[u]
        if cand < best:
            best = cand
        heap = self.overlap_heap.get((u, v) if u < v else (v, u))
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
