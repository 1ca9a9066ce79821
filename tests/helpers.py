"""Shared test utilities: tiny independent reference implementations.

These are deliberately naive (heapq Dijkstra, matrix min-plus) so that
package code is always judged against something written separately.
"""

import heapq
import math

from decapsp import DuplicateEdge, EdgeNotFound, IndexedHeap
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


def nearest_levels(fam):
    """Each node's level in its nearest tree of a TreeFamily, read off its
    nearest_row (inf when it has no nearest root)."""
    return [row[v] for v, row in enumerate(fam.nearest_row)]


def check_nearest_rows(fam):
    """Each node's nearest_row in a TreeFamily is its nearest tree's own
    level_of list, or the family's inf_row when it has no nearest root, and
    inf_row holds inf for every node."""
    assert fam.inf_row == (INF,) * len(fam.adj)
    for v, r in enumerate(fam.nearest):
        assert fam.nearest_row[v] is (fam.inf_row if r is None else fam[r].level_of)


def ref_dijkstra(adj, source):
    dist = [INF] * len(adj)
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
    return [ref_dijkstra(graph.adj, s) for s in range(graph.n)]


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
        self._nbr = [IndexedHeap() for _ in adj]
        for u, nbrs in enumerate(adj):
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
