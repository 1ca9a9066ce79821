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
bunch holds x.  Bunches and clusters are read from the BunchEngine, which
owns them; the structure keeps no copy of them and no reverse index.
Rounded edge weights (w_round), bunch estimates and minima (nbr_min) are
all ladder values of the GeometricRounder, so a key is a plain sum and a
change is detected by comparing floats.  Both heap maps hold no empty
heap (heaps.heap_insert/heap_delete): a pair without entries is absent.

An update is absorbed in five steps, each reaching its entries through the
graph's adjacency, engine.cluster and the live minima nbr_live:

  1. the changed edge {x, y} is re-keyed or dropped in the neighborhood
     heaps (x, v) for every owner v of y, and symmetrically.  This runs
     before engine.refresh: only then does engine.cluster[y] still list the
     owners those heaps hold, and a deleted edge is already gone from the
     adjacency, so no later step could find it;
  2. engine.refresh brings bunches and clusters to their final state and
     returns the events, at most one per (owner v, member w);
  3. each event re-keys, inserts or drops w in the neighborhood heaps
     (x, v) for x adjacent to w, keyed by the event's rounded estimate;
  4. each event brings w's entries in the adjacency heaps (v, t), for t in
     nbr_live[w], to its estimate, against the minima as they stand;
  5. every neighborhood minimum touched by steps 1 and 3 is re-rounded
     once (an emptied heap is already gone, so its minimum is dropped); a
     changed one reaches the adjacency heaps (u, v) for every final owner u
     in engine.cluster[x].

Geometric rounding keeps the propagated minima from changing more than
polylogarithmically often per pair.
"""

from __future__ import annotations

import math

from .bunches import INCREASE, JOIN, BunchEngine
from .graph import DELETE, INCREASE as W_INCREASE, DomainError, UpdateEvent, apply_update
from .heaps import heap_delete, heap_insert

INF = math.inf


class MultiplicativeAPSP:
    def __init__(self, graph, p, eps, seed):
        self.g = graph
        self.engine = BunchEngine(graph, p, eps, seed)
        self.rounder = self.engine.rounder

        # rounded edge weights, keyed by unordered pair
        self.w_round = {}
        for a, b, w in graph.edges():
            self.w_round[(a, b) if a < b else (b, a)] = self.rounder.round(w)

        # neighborhood layer
        self.nbr_heap = {}    # (x, v) -> IndexedHeap of y
        self.nbr_min = {}     # (x, v) -> rounded minimum of nbr_heap[(x, v)]
        self.nbr_live = {}    # x -> set of v with a live minimum

        # adjacency layer
        self.adj_heap = {}    # ordered (u, v) -> IndexedHeap of intermediates x

        self.nbr_min_changes = {}
        self.updates_applied = 0

        for v in range(graph.n):
            for y, yval in self.engine.bunch[v].items():
                for x in graph.adj[y]:
                    key = self.w_round[(x, y) if x < y else (y, x)] + yval
                    heap_insert(self.nbr_heap, (x, v), y, key)
        for (x, v), heap in self.nbr_heap.items():
            self.nbr_min[(x, v)] = self.rounder.round(heap.min_key())
            self.nbr_live.setdefault(x, set()).add(v)
        for u in range(graph.n):
            for x, uval in self.engine.bunch[u].items():
                for v in self.nbr_live.get(x, ()):
                    heap_insert(self.adj_heap, (u, v), x, uval + self.nbr_min[(x, v)])

    # -- updates -----------------------------------------------------------

    def delete(self, u, v):
        self._apply(UpdateEvent(DELETE, u, v))

    def increase(self, u, v, delta):
        self._apply(UpdateEvent(W_INCREASE, u, v, delta))

    def _apply(self, ev):
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        touched = self._edge_stage(rec)
        events = self.engine.refresh(rec)
        for bev in events:
            self._nbr_bunch_change(bev, touched)
        for bev in events:
            self._adj_bunch_change(bev)
        self._flush_minima(touched)

    def _edge_stage(self, rec):
        """Re-key or drop the changed edge's neighborhood entries; runs before
        the refresh, while engine.cluster still holds the owners they list."""
        a, b = rec.u, rec.v
        pair = (a, b) if a < b else (b, a)
        touched = set()
        cluster = self.engine.cluster
        if rec.new_weight == INF:
            self.w_round.pop(pair, None)
            for x, y in ((a, b), (b, a)):
                for v in cluster[y]:
                    heap_delete(self.nbr_heap, (x, v), y)
                    touched.add((x, v))
            return touched
        new_val = self.rounder.round(rec.new_weight)
        if new_val == self.w_round[pair]:
            return touched
        self.w_round[pair] = new_val
        bunch = self.engine.bunch
        for x, y in ((a, b), (b, a)):
            for v in cluster[y]:
                self.nbr_heap[(x, v)].update(y, new_val + bunch[v][y])
                touched.add((x, v))
        return touched

    def _nbr_bunch_change(self, bev, touched):
        w, v = bev.member, bev.owner
        if bev.case == JOIN:
            for x in self.g.adj[w]:
                pair = (x, w) if x < w else (w, x)
                heap_insert(self.nbr_heap, (x, v), w, self.w_round[pair] + bev.value)
                touched.add((x, v))
        elif bev.case == INCREASE:
            for x in self.g.adj[w]:
                pair = (x, w) if x < w else (w, x)
                self.nbr_heap[(x, v)].update(w, self.w_round[pair] + bev.value)
                touched.add((x, v))
        else:  # LEAVE
            for x in self.g.adj[w]:
                heap_delete(self.nbr_heap, (x, v), w)
                touched.add((x, v))

    def _adj_bunch_change(self, bev):
        """Bring (owner u, member x)'s adjacency entries to the estimate of the
        event, against the neighborhood minima as they stand."""
        x, u = bev.member, bev.owner
        if bev.case == JOIN:
            for v in self.nbr_live.get(x, ()):
                heap_insert(self.adj_heap, (u, v), x, bev.value + self.nbr_min[(x, v)])
        elif bev.case == INCREASE:
            for v in self.nbr_live.get(x, ()):
                self.adj_heap[(u, v)].update(x, bev.value + self.nbr_min[(x, v)])
        else:  # LEAVE
            for v in self.nbr_live.get(x, ()):
                heap_delete(self.adj_heap, (u, v), x)

    def _flush_minima(self, touched):
        """Re-round each touched neighborhood minimum once and patch the
        adjacency entries of x's final owners where it changed."""
        rounder = self.rounder
        bunch, cluster = self.engine.bunch, self.engine.cluster
        for xv in touched:
            heap = self.nbr_heap.get(xv)
            new_val = rounder.round(heap.min_key()) if heap is not None else None
            old_val = self.nbr_min.get(xv)
            if new_val == old_val:
                continue
            self.nbr_min_changes[xv] = self.nbr_min_changes.get(xv, 0) + 1
            x, v = xv
            if old_val is None:
                self.nbr_min[xv] = new_val
                self.nbr_live.setdefault(x, set()).add(v)
                for u in cluster[x]:
                    heap_insert(self.adj_heap, (u, v), x, bunch[u][x] + new_val)
            elif new_val is None:
                del self.nbr_min[xv]
                self.nbr_live[x].discard(v)
                for u in cluster[x]:
                    heap_delete(self.adj_heap, (u, v), x)
            else:
                self.nbr_min[xv] = new_val
                for u in cluster[x]:
                    self.adj_heap[(u, v)].update(x, bunch[u][x] + new_val)

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
