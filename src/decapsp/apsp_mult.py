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
bunch holds x.  Each layer is a list of n dicts keyed by the second node:
nbr_heap[x][v], nbr_min[x][v] and adj_heap[u][v], so the live minima of x
are the keys of nbr_min[x].  Bunches and clusters are read from the
BunchEngine, which owns them; the structure keeps no copy of them and no
reverse index.  Rounded edge weights (w_round), bunch estimates and minima
(nbr_min) are all ladder values of the GeometricRounder, so a key is a
plain sum and a change is detected by comparing floats.  w_round is a list
of n dicts holding edge {x, y} as w_round[x][y] and w_round[y][x]; row x
keeps graph.adj[x]'s key order (a deletion drops the edge from both, an
increase re-keys it in place), so walking row x visits x's neighbours as
the graph does.  Every entry of both heap layers is written by
heaps.heap_set at its new key, inf meaning absent: a deleted edge, a member
that left a bunch (its event value is inf) and an emptied neighborhood heap
(its minimum reads inf) all give inf, so each step is one loop whatever
the case.  Neither layer holds an empty heap: a pair without entries is
absent from its node's dict.

An update is absorbed in four steps, each reaching its entries through the
graph's adjacency, engine.cluster and the keys of nbr_min:

  1. the changed edge {x, y} is written at its new rounded weight in the
     neighborhood heaps (x, v) for every owner v of y, and symmetrically.
     This runs before engine.refresh: only then does engine.cluster[y]
     still list the owners those heaps hold, and a deleted edge is already
     gone from the adjacency, so no later step could find it;
  2. engine.refresh brings bunches and clusters to their final state and
     returns the events, at most one per (owner v, member w);
  3. each event, in one pass, writes w in the neighborhood heaps (x, v)
     for x adjacent to w at the event's rounded estimate, and w's entries
     in the adjacency heaps (v, t), for t in nbr_min[w], at that estimate
     against the minima as they stand (step 3 never writes nbr_min, so no
     event sees another's);
  4. every neighborhood minimum touched by steps 1 and 3 is re-rounded
     once (inf once its heap is gone); a changed one is written to the
     adjacency heaps (u, v) for every final owner u in engine.cluster[x].

Geometric rounding keeps the propagated minima from changing more than
polylogarithmically often per pair.
"""

from __future__ import annotations

import math

from .bunches import BunchEngine
from .graph import DELETE, INCREASE as W_INCREASE, DomainError, UpdateEvent, apply_update
from .heaps import heap_set

INF = math.inf


class MultiplicativeAPSP:
    def __init__(self, graph, p, eps, seed):
        self.g = graph
        self.engine = BunchEngine(graph, p, eps, seed)
        self.rounder = self.engine.rounder
        n = graph.n

        # rounded edge weights: x -> y -> ladder value, rows in adjacency order
        self.w_round = [dict.fromkeys(graph.adj[x]) for x in range(n)]
        for a, b, w in graph.edges():
            self.w_round[a][b] = self.w_round[b][a] = self.rounder.round(w)

        # neighborhood layer: x -> v -> IndexedHeap of y, and its rounded minimum
        self.nbr_heap = [{} for _ in range(n)]
        self.nbr_min = [{} for _ in range(n)]

        # adjacency layer: u -> v -> IndexedHeap of intermediates x
        self.adj_heap = [{} for _ in range(n)]

        self.nbr_min_changes = {}
        self.updates_applied = 0

        for v in range(n):
            for y, yval in self.engine.bunch[v].items():
                for x, wval in self.w_round[y].items():
                    heap_set(self.nbr_heap[x], v, y, wval + yval)
        for x in range(n):
            for v, heap in self.nbr_heap[x].items():
                self.nbr_min[x][v] = self.rounder.round(heap.min_key())
        for u in range(n):
            for x, uval in self.engine.bunch[u].items():
                for v, val in self.nbr_min[x].items():
                    heap_set(self.adj_heap[u], v, x, uval + val)

    # -- updates -----------------------------------------------------------

    def delete(self, u, v):
        self._apply(UpdateEvent(DELETE, u, v))

    def increase(self, u, v, delta):
        self._apply(UpdateEvent(W_INCREASE, u, v, delta))

    def _apply(self, ev):
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        touched = self._edge_stage(rec)
        for bev in self.engine.refresh(rec):
            self._bunch_change(bev, touched)
        self._flush_minima(touched)

    def _edge_stage(self, rec):
        """Write the changed edge's neighborhood entries at its new rounded
        weight (inf: dropped); runs before the refresh, while
        engine.cluster still holds the owners they list."""
        a, b = rec.u, rec.v
        row_a, row_b = self.w_round[a], self.w_round[b]
        if rec.new_weight == INF:
            new_val = INF
            del row_a[b], row_b[a]
        else:
            new_val = self.rounder.round(rec.new_weight)
            if new_val == row_a[b]:
                return set()
            row_a[b] = row_b[a] = new_val
        touched = set()
        bunch, cluster = self.engine.bunch, self.engine.cluster
        for x, y in ((a, b), (b, a)):
            for v in cluster[y]:
                heap_set(self.nbr_heap[x], v, y, new_val + bunch[v][y])
                touched.add((x, v))
        return touched

    def _bunch_change(self, bev, touched):
        """Write member w's entries for owner v at the event's value (inf for
        a LEAVE): the neighborhood entries (x, v) for x adjacent to w, then
        v's adjacency entries (v, t) through w against the minima as they
        stand, which only _flush_minima writes."""
        w, v, value = bev.member, bev.owner, bev.value
        adj_v, nbr_heap = self.adj_heap[v], self.nbr_heap
        for x, wval in self.w_round[w].items():
            heap_set(nbr_heap[x], v, w, wval + value)
            touched.add((x, v))
        for t, val in self.nbr_min[w].items():
            heap_set(adj_v, t, w, value + val)

    def _flush_minima(self, touched):
        """Re-round each touched neighborhood minimum once (inf once its
        heap is gone) and write the adjacency entries of x's final owners
        where it changed."""
        rounder = self.rounder
        bunch, cluster = self.engine.bunch, self.engine.cluster
        adj_heap = self.adj_heap
        for xv in touched:
            x, v = xv
            heap = self.nbr_heap[x].get(v)
            new_val = rounder.round(heap.min_key()) if heap is not None else INF
            mins = self.nbr_min[x]
            if new_val == mins.get(v, INF):
                continue
            self.nbr_min_changes[xv] = self.nbr_min_changes.get(xv, 0) + 1
            if new_val == INF:
                del mins[v]
            else:
                mins[v] = new_val
            for u in cluster[x]:
                heap_set(adj_heap[u], v, x, bunch[u][x] + new_val)

    # -- queries -----------------------------------------------------------

    def query(self, u, v):
        n = self.g.n
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"query ({u}, {v}) outside the nodes [0, {n})")
        if u == v:
            return 0
        trees = self.engine.trees
        nearest, nearest_level = trees.nearest, trees.nearest_level
        best = INF
        for a, b in ((u, v), (v, u)):
            s = nearest[a]
            if s is not None:
                cand = nearest_level[a] + trees[s].level_of[b]
                if cand < best:
                    best = cand
        for a, b in ((u, v), (v, u)):
            heap = self.adj_heap[a].get(b)
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
            "nbr_pairs_live": sum(map(len, self.nbr_min)),
            "adj_pairs_live": sum(map(len, self.adj_heap)),
            "tree_level_increases": sum(t.level_increases for t in self.engine.trees.values()),
        }
