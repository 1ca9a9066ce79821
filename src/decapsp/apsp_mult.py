"""(2 + eps)-approximate all-pairs distances under deletions.

Query answers come from the minimum of three certificates:

  * route through u's nearest pivot s: level of u plus level of v in s's tree;
  * route through v's pivot, symmetrically;
  * for each pair u < v, one heap over "bunch of u touches an edge into a
    neighborhood of bunch of v" walks, keyed by rounded lengths.

The per-pair heaps are layered.  For an intermediate x and target v, a
neighborhood heap holds w~(x, y) + rounded_bunch(y, v) over edge neighbors
y of x inside bunch(v); its rounded minimum feeds a per-(u, v) adjacency
heap entry keyed rounded_bunch(u, x) + that minimum, for every owner u < v
whose bunch holds x.  Each layer is a list of n dicts keyed by the second
node: nbr_heap[x][v], nbr_min[x][v] and adj_heap[u][v], so the live minima
of x are the keys of nbr_min[x].  adj_heap[u] holds only keys v > u.  The
heap (v, u) would certify the same edges: x sits in heap (u, v) exactly
when some edge {x, y} has x in bunch(u) and y in bunch(v), which is when y
sits in heap (v, u), and the two entries differ only in which side's sum
is rounded, so one of them is kept.  query(u, u) answers 0 before reading
any heap, so no heap (u, u) is kept either.  Bunches and clusters are read
from the BunchEngine, which owns them; the structure keeps no copy of them
and no reverse index.  Rounded edge weights, bunch estimates and minima (nbr_min)
are all ladder values of the GeometricRounder, so a key is a plain sum and
a change is detected by comparing floats.  Edges are read off graph.adj
itself, so entries are written in the graph's neighbour order; w_round is
one dict from each weight the graph has held to its ladder value, and the
rounded weight of edge {x, y} is w_round[graph.adj[x][y]].  No entry is
ever removed: weights are positive integers, so it holds at most
min(m + rises, largest weight held) entries, and a stream whose every rise
lands on a fresh weight grows it by one entry per rise.  Every entry of
both heap layers is written by heaps.heap_set at its new key, inf meaning
absent: a deleted edge, a member that left a bunch (its event value is inf)
and an emptied neighborhood heap (its minimum reads inf) all give inf, so
each step is one loop whatever the case.  Neither layer holds an empty
heap: a pair without entries is absent from its node's dict.

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
     in the adjacency heaps (v, t), for t > v in nbr_min[w], at that
     estimate against the minima as they stand (step 3 never writes
     nbr_min, so no event sees another's);
  4. every neighborhood minimum touched by steps 1 and 3 is re-rounded
     once (inf once its heap is gone); a changed one is written to the
     adjacency heaps (u, v) for every final owner u < v in
     engine.cluster[x].

Geometric rounding keeps the propagated minima from changing more than
polylogarithmically often per pair.
"""

from __future__ import annotations

import math

from .bunches import BunchEngine
from .graph import Decremental, apply_update, check_query
from .heaps import heap_set

INF = math.inf


class MultiplicativeAPSP(Decremental):
    """(2 + eps)-APSP in total update time O~(m^{1/2} n^{3/2}).

    p is the pivot sampling probability; None derives p = min(1, sqrt(n / m))
    with m = max(graph.m, 1).  The p n pivot trees cost O~(m) each, O~(p n m)
    in all.  A bunch holds O~(1/p) nodes, and owner u's adjacency heaps
    hold each member x of bunch(u) at most once per target v > u:
    O~(n^2 / p) entries in all, each re-keyed polylogarithmically often by
    the rounding.  p = sqrt(n / m) balances p n m against n^2 / p at
    m^{1/2} n^{3/2}.  An explicit p outside [0, 1] is refused by
    sample_pivots; only the derived one is clamped.

    Why query(u, v) <= (2 + eps) d(u, v) with one heap per pair (Thorup &
    Zwick, JACM 2005).  Let r_u be u's pivot distance at its last bunch
    rebuild; bunch(u) holds every node closer to u than r_u, and distances
    only grow, so it still does.  Let d = d(u, v) and u < v, and let eps
    stand for min(eps, 4.85), the eps the engine rounds at: no larger.

      * r_u + r_v > d, neither a pivot: on a shortest u-v path, let y be
        the first node with d(u, y) >= r_u, or v if none is, and x its
        predecessor.  Then d(u, x) < r_u puts x in bunch(u), and
        d(v, y) <= max(0, d - r_u) < r_v puts y in bunch(v).  Heap
        (u, v) holds x at rounded_bunch(u, x) + round(w~(x, y) +
        rounded_bunch(v, y)) or less.  Each rounding is up by at most a
        factor 1 + eps/3 and the sum inside is rounded once more, so the
        entry is at most (1 + eps/3)^2 d, which is <= (2 + eps) d as
        eps^2 - 3 eps - 9 <= 0 for eps <= 4.85.
      * r_u + r_v <= d: say r_u <= r_v, so r_u <= d / 2.  u's nearest
        pivot s is at distance P <= (1 + eps/3) r_u, as a bunch is rebuilt
        once its pivot distance outgrows r_u by more.  s's tree is exact,
        so the route through s reads P + d(s, v) <= 2P + d <= (2 + eps/3) d;
        when r_v <= r_u, v's route gives the same.
      * A pivot's bunch is empty, and its own tree answers exactly.

    Heap (v, u) would hold y under the same condition, so it adds no case.
    """

    def __init__(self, graph, p, eps, seed):
        if p is None:
            p = min(1.0, math.sqrt(graph.n / max(graph.m, 1)))
        self.g = graph
        self.engine = BunchEngine(graph, p, eps, seed)
        self.rounder = self.engine.rounder
        n = graph.n

        # rounded edge weights: weight -> ladder value, one round() per edge
        w_round = self.w_round = {}
        for _, _, w in graph.edges():
            w_round[w] = self.rounder.round(w)

        # neighborhood layer: x -> v -> IndexedHeap of y, and its rounded minimum
        self.nbr_heap = [{} for _ in range(n)]
        self.nbr_min = [{} for _ in range(n)]

        # adjacency layer: u -> v -> IndexedHeap of intermediates x
        self.adj_heap = [{} for _ in range(n)]

        # x -> v -> times the rounded minimum nbr_min[x][v] changed
        self.nbr_min_changes = [{} for _ in range(n)]
        self.updates_applied = 0

        for v in range(n):
            for y, yval in self.engine.bunch[v].items():
                for x, w in graph.adj[y].items():
                    heap_set(self.nbr_heap[x], v, y, w_round[w] + yval)
        for x in range(n):
            for v, heap in self.nbr_heap[x].items():
                self.nbr_min[x][v] = self.rounder.round(heap.min_key())
        for u in range(n):
            for x, uval in self.engine.bunch[u].items():
                for v, val in self.nbr_min[x].items():
                    if u < v:
                        heap_set(self.adj_heap[u], v, x, uval + val)

    # -- updates -----------------------------------------------------------

    def apply(self, ev):
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
        a, b, new = rec.u, rec.v, rec.new_weight
        if new == INF:
            new_val = INF
        else:
            new_val = self.w_round[new] = self.rounder.round(new)
            if new_val == self.w_round[rec.old_weight]:
                return set()
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
        adj_v, nbr_heap, w_round = self.adj_heap[v], self.nbr_heap, self.w_round
        for x, wt in self.g.adj[w].items():
            heap_set(nbr_heap[x], v, w, w_round[wt] + value)
            touched.add((x, v))
        for t, val in self.nbr_min[w].items():
            if v < t:
                heap_set(adj_v, t, w, value + val)

    def _flush_minima(self, touched):
        """Re-round each touched neighborhood minimum once (inf once its
        heap is gone) and write the adjacency entries of x's final owners
        where it changed."""
        rounder = self.rounder
        bunch, cluster = self.engine.bunch, self.engine.cluster
        adj_heap = self.adj_heap
        for x, v in touched:
            heap = self.nbr_heap[x].get(v)
            new_val = rounder.round(heap.min_key()) if heap is not None else INF
            mins = self.nbr_min[x]
            if new_val == mins.get(v, INF):
                continue
            changes = self.nbr_min_changes[x]
            changes[v] = changes.get(v, 0) + 1
            if new_val == INF:
                del mins[v]
            else:
                mins[v] = new_val
            for u in cluster[x]:
                if u < v:
                    heap_set(adj_heap[u], v, x, bunch[u][x] + new_val)

    # -- queries -----------------------------------------------------------

    def query(self, u, v):
        n = self.g.n
        # graph.is_node, inline: two calls made a query about 20% slower
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            check_query(u, v, n)
        if u == v:
            return 0
        if v < u:
            u, v = v, u
        rows = self.engine.trees.nearest_row
        ru, rv = rows[u], rows[v]
        best = ru[u] + ru[v]
        cand = rv[v] + rv[u]
        if cand < best:
            best = cand
        heap = self.adj_heap[u].get(v)
        if heap is not None:
            cand = heap.min_key()
            if cand < best:
                best = cand
        return best

    def counters(self):
        changes = [count for row in self.nbr_min_changes for count in row.values()]
        return {
            "updates": self.updates_applied,
            "searches": self.engine.searches,
            "bunch_rebuilds_max": max(self.engine.rebuilds, default=0),
            "bunch_rebuilds_total": sum(self.engine.rebuilds),
            "nbr_min_changes_max": max(changes, default=0),
            "nbr_min_changes_total": sum(changes),
            "nbr_pairs_live": sum(map(len, self.nbr_min)),
            # pairs u < v with an adjacency heap
            "adj_pairs_live": sum(map(len, self.adj_heap)),
            "tree_level_increases": sum(t.level_increases for t in self.engine.trees.values()),
        }
