"""Single-source shortest-path trees over an adjacency their owner keeps.

MonotoneESTree keeps a level l(v) per node with the contract:

  * levels never decrease;
  * l(v) is always an upper bound... (lower-bounded by the true distance:
    d_H(root, v) <= l(v));
  * under a purely decremental history the levels are exact whenever they
    do not exceed the depth cap;
  * on an increase the new level equals the minimum of l(u) + w(u, v) over
    the current neighbors, so every finite level is witnessed by an incident
    edge even when insertions made the true distance smaller.

Ownership: the tree keeps a reference to the adjacency it is built on
(node -> {neighbor: weight}) and never copies or writes it, so any number
of trees can read one graph.  The owner of the adjacency writes each change
first and then calls the tree method of the same kind with the same
endpoints and weight; the tree re-keys its neighbor heaps and settles.  A
call the adjacency does not yet show raises UnwrittenChange.  The tree
cannot see an old weight, so refusing a weight that does not rise is the
owner's job.

Levels beyond the cap jump to infinity.  Each node owns a heap over its
neighbors keyed by l(neighbor) + weight, and a global queue drives level
recomputation in increasing level order.
"""

from __future__ import annotations

import heapq
import math

from .graph import DuplicateEdge, EdgeNotFound
from .heaps import IndexedHeap

INF = math.inf


class UnwrittenChange(RuntimeError):
    """A tree call for an edge change its owner has not written yet."""


class MonotoneESTree:
    __slots__ = ("root", "cap", "adj", "level_of", "_nbr", "_queue", "level_increases")

    def __init__(self, adj, root, cap):
        """adj: mapping node -> {neighbor: weight}; read, never copied."""
        if cap < 0:
            raise ValueError("depth cap must be nonnegative")
        self.root = root
        self.cap = cap
        self.adj = adj
        if root not in adj:
            raise KeyError(f"root {root!r} not a node of the graph")
        self.level_of = self._dijkstra()
        self._nbr = {
            u: IndexedHeap((v, self.level_of[v] + w) for v, w in nbrs.items())
            for u, nbrs in adj.items()
        }
        self._queue = IndexedHeap()
        self.level_increases = 0

    def _dijkstra(self):
        dist = dict.fromkeys(self.adj, INF)
        dist[self.root] = 0
        heap = [(0, self.root)]
        adj = self.adj
        cap = self.cap
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u].items():
                nd = d + w
                if nd <= cap and nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return dist

    def level(self, v):
        return self.level_of[v]

    def _require(self, u, v, w):
        adj = self.adj
        if adj[u].get(v, INF) != w or adj[v].get(u, INF) != w:
            raise UnwrittenChange(
                f"edge {{{u}, {v}}} should read weight {w} in the adjacency: "
                "write the change before calling the tree")

    def insert_edge(self, u, v, w):
        """Absorb a new edge; levels never drop, so no recomputation happens."""
        if v in self._nbr[u]:
            raise DuplicateEdge(f"edge {{{u}, {v}}} already in tree graph")
        self._require(u, v, w)
        lv = self.level_of
        self._nbr[u].insert(v, lv[v] + w)
        self._nbr[v].insert(u, lv[u] + w)

    def relax_edge(self, u, v, w):
        """Absorb {u, v} inserted with weight w, or its weight lowered to w.

        The owner keeps the lower of the old weight and w.  A cheaper
        parallel edge behaves exactly like an insertion: neighbor heap keys
        drop but levels stay put, so the shortcut only takes effect at the
        next level recomputation.
        """
        if v not in self._nbr[u]:
            self.insert_edge(u, v, w)
            return
        cur = self.adj[u].get(v, INF)
        self._require(u, v, min(cur, w))
        lv = self.level_of
        nu, nv = self._nbr[u], self._nbr[v]
        if lv[v] + cur < nu.key_of(v) or lv[u] + cur < nv.key_of(u):
            nu.update(v, lv[v] + cur)
            nv.update(u, lv[u] + cur)

    def delete_edge(self, u, v):
        return self.increase_weight(u, v, INF)

    def increase_weight(self, u, v, w):
        """Absorb the rise of {u, v} to weight w (inf: the edge is gone).
        Returns the set of nodes whose level increased as a consequence."""
        if v not in self._nbr[u]:
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in tree graph")
        self._require(u, v, w)
        nu, nv = self._nbr[u], self._nbr[v]
        if w == INF:
            nu.delete(v)
            nv.delete(u)
        else:
            lv = self.level_of
            nu.update(v, lv[v] + w)
            nv.update(u, lv[u] + w)
        queue = self._queue
        root = self.root
        if u != root and u not in queue:
            queue.insert(u, self.level_of[u])
        if v != root and v not in queue:
            queue.insert(v, self.level_of[v])
        return self._settle()

    def _settle(self):
        """Drain the queue, lifting levels in increasing order."""
        queue = self._queue
        level_of = self.level_of
        nbr = self._nbr
        adj = self.adj
        cap = self.cap
        root = self.root
        changed = set()
        while queue:
            u, _ = queue.pop()
            heap = nbr[u]
            new = heap.min_key() if heap else INF
            old = level_of[u]
            if new > old:
                if new > cap:
                    new = INF
                level_of[u] = new
                self.level_increases += 1
                changed.add(u)
                for v, w in adj[u].items():
                    nbr[v].update(u, new + w)
                    if v != root and v not in queue:
                        queue.insert(v, level_of[v])
        return changed
