"""Weighted (2 + eps)-approximation with a per-pair additive edge term.

Splits intermediate nodes by cluster size.  A node is heavy once at least
tau bunches contain it; heaviness is permanent.  Heavy nodes root their own
bounded-depth trees, so any pair can route through its nearest heavy node
at exact tree distances.  Light intermediates are covered pairwise: for
every unordered pair {u, v} an overlap heap stores each light w lying in
both bunches, keyed rounded_bunch(u, w) + rounded_bunch(v, w).  The heaps
holding w are exactly the pairs of its cluster mirror cluster_m[w], so a
bunch event on (owner v, member w) reaches the heaps {u, v} for the other
owners u in cluster_m[w], and a promotion every pair of it; no reverse
index is kept.

Promotion happens the moment a join pushes a cluster to tau members: the
node's tree is built on the current graph and joins the heavy TreeFamily,
where it competes for every node's nearest heavy root, and its entry leaves
the heap of every pair in its cluster.  Queries take the best of pivot
routes, routes through the nearest heavy node of either endpoint, and the
pair's overlap minimum.
"""

from __future__ import annotations

import math

from .bunches import INCREASE, JOIN, BunchEngine
from .estree import TreeFamily
from .graph import DELETE, INCREASE as W_INCREASE, DomainError, UpdateEvent, apply_update
from .heaps import IndexedHeap

INF = math.inf


def _pair(a, b):
    return (a, b) if a < b else (b, a)


class MixedAPSP:
    def __init__(self, graph, p, eps, tau, seed):
        if tau < 1:
            raise ValueError("tau must be a positive threshold")
        self.g = graph
        self.tau = tau
        self.engine = BunchEngine(graph, p, eps, seed)
        value_of = self.engine.value_of

        self.bexp = {}         # (owner, member) -> exponent mirror
        self.cluster_m = [set() for _ in range(graph.n)]
        for v in range(graph.n):
            for w, exp in self.engine.bunch[v].items():
                self.bexp[(v, w)] = exp
                self.cluster_m[w].add(v)

        self.heavy_trees = TreeFamily(graph.adj, self.engine.depth_cap)

        self.overlap_heap = {}  # unordered (u, v) -> IndexedHeap of light w
        self.overlap_touches = 0

        for w in range(graph.n):
            if len(self.cluster_m[w]) >= tau:
                self.heavy_trees.add_root(w)
        for w in range(graph.n):
            if w in self.heavy_trees:
                continue
            owners = sorted(self.cluster_m[w])
            for i, u in enumerate(owners):
                uval = value_of(self.bexp[(u, w)])
                for v in owners[i + 1:]:
                    self._overlap_insert(w, u, v, uval + value_of(self.bexp[(v, w)]))

        self.updates_applied = 0

    # -- heavy layer ---------------------------------------------------------

    def _promote(self, w):
        self.heavy_trees.add_root(w)
        owners = sorted(self.cluster_m[w])
        for i, u in enumerate(owners):
            for v in owners[i + 1:]:
                self._overlap_delete(w, u, v)

    # -- overlap layer -------------------------------------------------------

    def _overlap_insert(self, w, u, v, key):
        heap = self.overlap_heap.get(_pair(u, v))
        if heap is None:
            heap = self.overlap_heap[_pair(u, v)] = IndexedHeap()
        heap.insert(w, key)

    def _overlap_delete(self, w, u, v):
        uv = _pair(u, v)
        heap = self.overlap_heap[uv]
        heap.delete(w)
        if not heap:
            del self.overlap_heap[uv]

    def _bunch_event(self, bev):
        w, v = bev.member, bev.owner
        value_of = self.engine.value_of
        if bev.case == JOIN:
            self.bexp[(v, w)] = bev.exponent
            if w not in self.heavy_trees:
                for u in sorted(self.cluster_m[w]):
                    self._overlap_insert(w, u, v, value_of(self.bexp[(u, w)]) + bev.value)
            self.cluster_m[w].add(v)
            if w not in self.heavy_trees and len(self.cluster_m[w]) >= self.tau:
                self._promote(w)
        elif bev.case == INCREASE:
            self.bexp[(v, w)] = bev.exponent
            if w not in self.heavy_trees:
                self.overlap_touches += len(self.cluster_m[w]) - 1
                for u in sorted(self.cluster_m[w]):
                    if u != v:
                        self.overlap_heap[_pair(u, v)].update(
                            w, value_of(self.bexp[(u, w)]) + bev.value)
        else:  # LEAVE
            del self.bexp[(v, w)]
            self.cluster_m[w].discard(v)
            if w not in self.heavy_trees:
                for u in sorted(self.cluster_m[w]):
                    self._overlap_delete(w, u, v)

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
        for bev in events:
            self._bunch_event(bev)

    # -- queries ---------------------------------------------------------------

    def query(self, u, v):
        if u == v:
            return 0
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"query ({u}, {v}) outside the nodes [0, {n})")
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
