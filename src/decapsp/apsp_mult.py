"""(2 + eps)-approximate all-pairs distances under deletions.

Query answers come from the minimum of four certificates:

  * route through u's nearest pivot s: level of u plus level of v in s's tree;
  * route through v's pivot, symmetrically;
  * for each ordered pair, a heap over "bunch of u touches an edge into a
    neighborhood of bunch of v" walks, keyed by rounded lengths.

The per-pair heaps are layered.  For an intermediate x and target v, a
neighborhood heap holds w~(x, y) + rounded_bunch(y, v) over edge neighbors
y of x inside bunch(v); its rounded minimum feeds a per-(u, v) adjacency
heap entry keyed rounded_bunch(u, x) + that minimum, for every owner u whose
bunch holds x.  Each change reaches exactly its own entries through state
the structure keeps anyway, with no reverse index:

  * an edge {x, y} sits in the neighborhood heaps (x, v) for every owner v
    of y in the cluster mirror cluster_m[y], and symmetrically;
  * a bunch event on (owner v, member w) reaches the neighborhood heaps
    (x, v) for x in the graph's adjacency of w, and the adjacency heaps
    (v, t) for every t in nbr_live[w];
  * a changed neighborhood minimum (x, v) reaches the adjacency heaps (u, v)
    for every owner u in cluster_m[x].

The mirrors bexp and cluster_m lag the engine by the events not yet
absorbed; an event on (v, w) only reads the mirrors of members other than
w, which are current.  Geometric rounding keeps the propagated minima from
changing more than polylogarithmically often per pair.
"""

from __future__ import annotations

import math

from .bunches import INCREASE, JOIN, BunchEngine
from .graph import DELETE, INCREASE as W_INCREASE, DomainError, UpdateEvent, apply_update
from .heaps import IndexedHeap

INF = math.inf


class MultiplicativeAPSP:
    def __init__(self, graph, p, eps, seed):
        self.g = graph
        self.engine = BunchEngine(graph, p, eps, seed)
        self.rounder = self.engine.rounder
        value_of = self.engine.value_of

        # rounded edge weights, keyed by unordered pair
        self.w_round = {}
        for a, b, w in graph.edges():
            e = self.rounder.exponent(w)
            self.w_round[(a, b) if a < b else (b, a)] = (e, self.rounder.value(e))

        # bunch mirrors, updated as each event is absorbed
        self.bexp = {}        # (owner, member) -> exponent mirror of the engine
        self.cluster_m = [set() for _ in range(graph.n)]  # member -> owners

        # neighborhood layer
        self.nbr_heap = {}    # (x, v) -> IndexedHeap of y
        self.nbr_min = {}     # (x, v) -> exponent of the rounded minimum
        self.nbr_live = {}    # x -> set of v with a live minimum

        # adjacency layer
        self.adj_heap = {}    # ordered (u, v) -> IndexedHeap of intermediates x

        self.nbr_min_changes = {}
        self.updates_applied = 0

        for v in range(graph.n):
            for y, exp in self.engine.bunch[v].items():
                self.bexp[(v, y)] = exp
                yval = value_of(exp)
                for x in graph.adj[y]:
                    key = self.w_round[(x, y) if x < y else (y, x)][1] + yval
                    heap = self.nbr_heap.get((x, v))
                    if heap is None:
                        heap = self.nbr_heap[(x, v)] = IndexedHeap()
                    heap.insert(y, key)
        for (x, v), heap in self.nbr_heap.items():
            self.nbr_min[(x, v)] = self.rounder.exponent(heap.min_key())
            self.nbr_live.setdefault(x, set()).add(v)
        for u in range(graph.n):
            for x, exp in self.engine.bunch[u].items():
                self.cluster_m[x].add(u)
                uval = value_of(exp)
                for v in self.nbr_live.get(x, ()):
                    key = uval + self.rounder.value(self.nbr_min[(x, v)])
                    heap = self.adj_heap.get((u, v))
                    if heap is None:
                        heap = self.adj_heap[(u, v)] = IndexedHeap()
                    heap.insert(x, key)

    # -- updates -----------------------------------------------------------

    def delete(self, u, v):
        self._apply(UpdateEvent(DELETE, u, v))

    def increase(self, u, v, delta):
        self._apply(UpdateEvent(W_INCREASE, u, v, delta))

    def _apply(self, ev):
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        events = self.engine.refresh(rec)
        touched = self._edge_stage(rec)
        self._flush_minima(touched)
        for bev in events:
            touched = self._nbr_bunch_change(bev)
            self._flush_minima(touched)
            self._adj_bunch_change(bev)

    def _edge_stage(self, rec):
        a, b = rec.u, rec.v
        pair = (a, b) if a < b else (b, a)
        touched = set()
        if rec.new_weight == INF:
            self.w_round.pop(pair, None)
            for x, y in ((a, b), (b, a)):
                for v in sorted(self.cluster_m[y]):
                    self.nbr_heap[(x, v)].delete(y)
                    touched.add((x, v))
            return touched
        new_exp = self.rounder.exponent(rec.new_weight)
        old_exp, _ = self.w_round[pair]
        if new_exp == old_exp:
            return touched
        new_val = self.rounder.value(new_exp)
        self.w_round[pair] = (new_exp, new_val)
        value_of = self.engine.value_of
        for x, y in ((a, b), (b, a)):
            for v in sorted(self.cluster_m[y]):
                self.nbr_heap[(x, v)].update(y, new_val + value_of(self.bexp[(v, y)]))
                touched.add((x, v))
        return touched

    def _nbr_bunch_change(self, bev):
        w, v = bev.member, bev.owner
        touched = set()
        if bev.case == JOIN:
            self.bexp[(v, w)] = bev.exponent
            for x in sorted(self.g.adj[w]):
                pair = (x, w) if x < w else (w, x)
                key = self.w_round[pair][1] + bev.value
                heap = self.nbr_heap.get((x, v))
                if heap is None:
                    heap = self.nbr_heap[(x, v)] = IndexedHeap()
                heap.insert(w, key)
                touched.add((x, v))
        elif bev.case == INCREASE:
            self.bexp[(v, w)] = bev.exponent
            for x in sorted(self.g.adj[w]):
                pair = (x, w) if x < w else (w, x)
                self.nbr_heap[(x, v)].update(w, self.w_round[pair][1] + bev.value)
                touched.add((x, v))
        else:  # LEAVE
            del self.bexp[(v, w)]
            for x in sorted(self.g.adj[w]):
                self.nbr_heap[(x, v)].delete(w)
                touched.add((x, v))
        return touched

    def _flush_minima(self, touched):
        """Re-round touched neighborhood minima and patch adjacency heaps."""
        rounder = self.rounder
        value_of = self.engine.value_of
        for xv in sorted(touched):
            heap = self.nbr_heap.get(xv)
            if heap is not None and not heap:
                del self.nbr_heap[xv]
                heap = None
            new_exp = rounder.exponent(heap.min_key()) if heap is not None else None
            old_exp = self.nbr_min.get(xv)
            if new_exp == old_exp:
                continue
            self.nbr_min_changes[xv] = self.nbr_min_changes.get(xv, 0) + 1
            x, v = xv
            if old_exp is None:
                self.nbr_min[xv] = new_exp
                self.nbr_live.setdefault(x, set()).add(v)
                val = rounder.value(new_exp)
                for u in sorted(self.cluster_m[x]):
                    key = value_of(self.bexp[(u, x)]) + val
                    heap2 = self.adj_heap.get((u, v))
                    if heap2 is None:
                        heap2 = self.adj_heap[(u, v)] = IndexedHeap()
                    heap2.insert(x, key)
            elif new_exp is None:
                del self.nbr_min[xv]
                self.nbr_live[x].discard(v)
                for u in sorted(self.cluster_m[x]):
                    heap2 = self.adj_heap[(u, v)]
                    heap2.delete(x)
                    if not heap2:
                        del self.adj_heap[(u, v)]
            else:
                self.nbr_min[xv] = new_exp
                val = rounder.value(new_exp)
                for u in sorted(self.cluster_m[x]):
                    self.adj_heap[(u, v)].update(x, value_of(self.bexp[(u, x)]) + val)

    def _adj_bunch_change(self, bev):
        x, u = bev.member, bev.owner
        rounder = self.rounder
        if bev.case == JOIN:
            self.cluster_m[x].add(u)
            for v in sorted(self.nbr_live.get(x, ())):
                key = bev.value + rounder.value(self.nbr_min[(x, v)])
                heap = self.adj_heap.get((u, v))
                if heap is None:
                    heap = self.adj_heap[(u, v)] = IndexedHeap()
                heap.insert(x, key)
        elif bev.case == INCREASE:
            for v in sorted(self.nbr_live.get(x, ())):
                self.adj_heap[(u, v)].update(x, bev.value + rounder.value(self.nbr_min[(x, v)]))
        else:  # LEAVE
            self.cluster_m[x].discard(u)
            for v in sorted(self.nbr_live.get(x, ())):
                heap = self.adj_heap[(u, v)]
                heap.delete(x)
                if not heap:
                    del self.adj_heap[(u, v)]

    # -- queries -----------------------------------------------------------

    def query(self, u, v):
        if u == v:
            return 0
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"query ({u}, {v}) outside the nodes [0, {n})")
        trees = self.engine.trees
        nearest, nearest_level = trees.nearest, trees.nearest_level
        best = INF
        for a, b in ((u, v), (v, u)):
            s = nearest[a]
            if s is not None:
                cand = nearest_level[a] + trees[s].level_of[b]
                if cand < best:
                    best = cand
        for key in ((u, v), (v, u)):
            heap = self.adj_heap.get(key)
            if heap is not None:
                cand = heap.min_key()
                if cand < best:
                    best = cand
        return best

    def counters(self):
        changes = self.nbr_min_changes
        return {
            "updates": self.updates_applied,
            "searches": self.engine.searches,
            "bunch_rebuilds_max": max(self.engine.rebuilds, default=0),
            "bunch_rebuilds_total": sum(self.engine.rebuilds),
            "nbr_min_changes_max": max(changes.values(), default=0),
            "nbr_min_changes_total": sum(changes.values()),
            "nbr_pairs_live": len(self.nbr_min),
            "adj_pairs_live": len(self.adj_heap),
            "tree_level_increases": sum(t.level_increases for t in self.engine.trees.values()),
        }
