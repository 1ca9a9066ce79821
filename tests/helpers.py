"""Shared test utilities: tiny independent reference implementations.

These are deliberately naive (heapq Dijkstra, matrix min-plus, an ES-tree
that lifts one level at a time) and share no package code, so that package
code is always judged against something written separately.
"""

import heapq
import math

INF = math.inf


def heap_entries(heap):
    """id -> key of every entry of an IndexedHeap, copied off the heap, which
    is that dict itself, after checking that the cached minimum is the least
    of those keys."""
    entries = dict(heap)
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


class ReferenceESTree:
    """The ES-tree that raises a cut-off node one level at a time.

    The build is ref_dijkstra from the root, infinite above the cap.  On a
    rise or deletion a heapq queue settles nodes in increasing level order,
    starting from the endpoints: a node's new level is the least l(y) + w
    over its neighbors y in the adjacency, read live, and when that exceeds
    its level the node takes it (inf above the cap) and its neighbors join
    the queue.  The tree keeps its own edge set, so a stream that inserts an
    edge twice or raises a missing one fails an assert.  It serves as the
    oracle for MonotoneESTree's region repair.
    """

    def __init__(self, adj, root, cap):
        self.adj, self.root, self.cap = adj, root, cap
        self.level_of = [d if d <= cap else INF for d in ref_dijkstra(adj, root)]
        self.edges = {frozenset((u, v)) for u, nbrs in enumerate(adj) for v in nbrs}

    def insert_edge(self, u, v, w):
        """Levels never drop, so a new edge only counts from the next rise."""
        edge = frozenset((u, v))
        assert edge not in self.edges and self.adj[u][v] == self.adj[v][u] == w
        self.edges.add(edge)

    def relax_edge(self, u, v, w):
        if frozenset((u, v)) not in self.edges:
            self.insert_edge(u, v, w)

    def delete_edge(self, u, v, old):
        return self.increase_weight(u, v, INF, old)

    def increase_weight(self, u, v, w, old):
        """Settles both endpoints whatever old is: the oracle for the skip."""
        edge = frozenset((u, v))
        assert edge in self.edges and self.adj[u].get(v, INF) == self.adj[v].get(u, INF) == w
        if w == INF:
            self.edges.remove(edge)
        level_of, adj = self.level_of, self.adj
        queued = {u, v} - {self.root}
        queue = [(level_of[x], x) for x in queued]
        heapq.heapify(queue)
        raised = set()
        while queue:
            _, x = heapq.heappop(queue)
            queued.remove(x)
            new = min((level_of[y] + wy for y, wy in adj[x].items()), default=INF)
            if new > level_of[x]:
                level_of[x] = new if new <= self.cap else INF
                raised.add(x)
                for y in adj[x]:
                    if y != self.root and y not in queued:
                        queued.add(y)
                        heapq.heappush(queue, (level_of[y], y))
        return raised
