"""Shared test utilities: tiny independent reference implementations.

These are deliberately naive (dict-based Dijkstra, matrix min-plus) so that
package code is always judged against something written separately.
"""

import heapq
import math
import random

from decapsp import DuplicateEdge, DynamicGraph, EdgeNotFound, IndexedHeap
from decapsp.estree import MonotoneESTree, _require_written

INF = math.inf


def heap_entries(heap):
    """id -> key of every entry of an IndexedHeap, copied off its dict (the
    heap's users only ever ask for the minimum, so it offers no snapshot),
    after checking that the cached minimum is the least of those keys."""
    entries = dict(heap._keys)
    if entries:
        assert heap.min_key() == min(entries.values())
    return entries


def ref_dijkstra(adj, source):
    dist = {u: INF for u in adj}
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adj[u].items():
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (d + w, v))
    return dist


def ref_apsp(graph):
    return {s: ref_dijkstra(graph.adj, s) for s in graph.adj}


def minplus_product(a, b):
    n = len(a)
    out = [[INF] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(n):
            aik = ai[k]
            if aik == INF:
                continue
            bk = b[k]
            for j in range(n):
                cand = aik + bk[j]
                if cand < oi[j]:
                    oi[j] = cand
    return out


def minplus_hop_limited(graph, hops):
    """Shortest-path matrix restricted to paths of at most `hops` edges."""
    n = graph.n
    a = [[INF] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 0
    for u, v, w in graph.edges():
        a[u][v] = min(a[u][v], w)
        a[v][u] = min(a[v][u], w)
    out = a
    steps = 1
    while steps < hops:
        out = minplus_product(out, a)
        steps += 1
    return out


def rand_connected(rng, n, extra_density=0.2, max_weight=1):
    """Random spanning tree plus extra edges; always connected at the start."""
    edges = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.append((min(u, v), max(u, v), rng.randint(1, max_weight)))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < extra_density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return DynamicGraph(n, edges)


def deletion_order(rng, graph):
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng.shuffle(edges)
    return edges


class ReferenceESTree(MonotoneESTree):
    """The ES-tree that raises a cut-off node one level at a time.

    Each node keeps a heap over its neighbors keyed by l(neighbor) + weight,
    and a queue settles nodes in increasing level order; every lift to the
    current neighbor minimum counts as one level increase.  It shares
    construction and checks with MonotoneESTree, keeps the edge set in its
    heaps, and serves as the oracle for the region repair.
    """

    __slots__ = ("_nbr", "_queue")

    def __init__(self, adj, root, cap):
        super().__init__(adj, root, cap)
        self._nbr = {u: IndexedHeap() for u in adj}
        for u, nbrs in adj.items():
            for v, w in nbrs.items():
                self._nbr[u].insert(v, self.level_of[v] + w)
        self._queue = IndexedHeap()

    def insert_edge(self, u, v, w):
        if v in self._nbr[u]:
            raise DuplicateEdge(f"edge {{{u}, {v}}} already in tree graph")
        _require_written(self.adj, u, v, w)
        lv = self.level_of
        self._nbr[u].insert(v, lv[v] + w)
        self._nbr[v].insert(u, lv[u] + w)

    def relax_edge(self, u, v, w):
        if v not in self._nbr[u]:
            self.insert_edge(u, v, w)
            return
        cur = self.adj[u].get(v, INF)
        _require_written(self.adj, u, v, min(cur, w))
        lv = self.level_of
        nu, nv = self._nbr[u], self._nbr[v]
        if lv[v] + cur < heap_entries(nu)[v] or lv[u] + cur < heap_entries(nv)[u]:
            nu.update(v, lv[v] + cur)
            nv.update(u, lv[u] + cur)

    def increase_weight(self, u, v, w, old):
        """Scans both endpoints whatever old is: the oracle for the skip."""
        if v not in self._nbr[u]:
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in tree graph")
        _require_written(self.adj, u, v, w)
        nu, nv = self._nbr[u], self._nbr[v]
        if w == INF:
            nu.delete(v)
            nv.delete(u)
        else:
            lv = self.level_of
            nu.update(v, lv[v] + w)
            nv.update(u, lv[u] + w)
        queue = self._queue
        for x in (u, v):
            if x != self.root and x not in queue:
                queue.insert(x, self.level_of[x])
        return self._settle()

    def _settle(self):
        queue, level_of, nbr = self._queue, self.level_of, self._nbr
        changed = set()
        while queue:
            u, _ = queue.pop()
            heap = nbr[u]
            new = heap.min_key() if heap else INF
            if new > level_of[u]:
                if new > self.cap:
                    new = INF
                level_of[u] = new
                self.level_increases += 1
                changed.add(u)
                for v, w in self.adj[u].items():
                    nbr[v].update(u, new + w)
                    if v != self.root and v not in queue:
                        queue.insert(v, level_of[v])
        return changed
