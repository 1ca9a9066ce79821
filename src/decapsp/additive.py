"""Near-exact small-distance APSP for unweighted graphs under deletions.

Nodes are partitioned into levels D_1..D_k by independent sampling with
geometrically interpolated densities; every node roots one bounded-depth
tree.  The trees of level i share one view: level 1's is the graph's own
adjacency, and each higher level's a sparser graph holding only edges whose
endpoints lack low-level neighbors (E_i) and one designated escape edge per
node into its lowest reachable level (E*).  Each tree above level 1 also
owns a shortcut from its root to every lower-level node, priced at that
node's own tree estimate; shortcuts touch the root, so a tree holds them as
offers (see estree) and the view stays the same for every root of the
level.

A deletion is absorbed level by level, every level the same way.  The
graph loses the edge first; the escape-edge redesignation then writes each
higher view's new pairs through its one writer, _add_edge_level (levels
never drop on an insertion, and only level i's trees read view i, so no
tree is called), and each higher view loses the dying edge where it holds
it.  Then each root of the level whose offers lower levels exported
absorbs all of its raised offers and the deletion in one repair
(MonotoneESTree.absorb), and each other root calls delete_edge only where
the edge supported an endpoint (the O(1) phase-0 test of estree).  The
repair's fixpoint is unique, so the levels and offers are those of
absorbing the changes one by one; estimate increases are exported upward.

For a pair at distance at most d + (k - i), the tree rooted at its
lower-level endpoint (level i) answers within additive error 2(i - 1), so
any pair within d is answered within 2(k - 1).
"""

from __future__ import annotations

import math
import random

from .estree import MonotoneESTree
from .graph import DELETE, DomainError, UpdateEvent, apply_update

INF = math.inf


def level_thresholds(n, m, k):
    """s_i for i = 1..k-1; interpolates between m/n and ln n."""
    if n < 2:
        raise DomainError("need at least two nodes")
    ratio = max(m / n, 1e-9)
    lg = math.log(n)
    return [ratio ** (1 - i / k) * lg ** (i / k) for i in range(1, k)]


def sample_partition(n, m, k, c, seed):
    """Assign each node its level: lowest sampled index, else k."""
    if not 0 < c < INF:
        raise DomainError(f"sampling constant c must be a positive finite number, got {c!r}")
    thresholds = level_thresholds(n, m, k)
    rng = random.Random(seed)
    level = [k] * n
    for i, s_i in enumerate(thresholds, start=1):
        p_i = min(1.0, c * math.log(n) / s_i)
        for v in range(n):
            if rng.random() < p_i and level[v] == k:
                level[v] = i
    return level


class AdditiveAPSP:
    def __init__(self, graph, k, d, c=2, seed=0):
        if graph.n < 2:
            raise DomainError("need at least two nodes")
        if k < 2 or k > max(2, int(math.log2(graph.n))):
            raise DomainError(f"k={k} outside [2, log2(n)]")
        if d < 1:
            raise DomainError("depth parameter d must be >= 1")
        for u, v, w in graph.edges():
            if w != 1:
                raise DomainError(f"edge {{{u}, {v}}} has weight {w}; expected unweighted input")
        self.g = graph
        self.k = k
        self.d = d
        self.cap = d + 3 * k
        self.level = sample_partition(graph.n, graph.m, k, c, seed)
        self.roots = [[v for v in range(graph.n) if self.level[v] == i] for i in range(k + 1)]
        # rank[v]: v's place in (level, node) order; a pair's lower one roots its tree
        self.rank = [0] * graph.n
        for place, v in enumerate(v for level in self.roots for v in level):
            self.rank[v] = place

        # escape-edge state: fixed neighbor scan order with a resume pointer
        n = graph.n
        self.nbr_order = [sorted(graph.adj[v]) for v in range(n)]
        self.ptr = [0] * n
        self.idx = [k] * n       # i_v: lowest level seen among live neighbors
        self.escape = [None] * n
        self.estar_added = 0
        self.ei_added = [0] * (k + 1)  # per tree level, index 0 unused
        self.scans = 0
        self.exports_applied = 0

        for v in range(n):
            if graph.adj[v]:
                self.idx[v] = min(self.level[x] for x in graph.adj[v])
                self.escape[v] = self._scan(v)
                self.estar_added += 1

        # per-level views: level 1 reads the whole graph, each higher level a
        # sparse view at weight 1
        self.view = {i: {u: {} for u in range(n)} for i in range(2, k + 1)}
        self.view[1] = graph.adj
        for u, v, _ in graph.edges():
            for i in range(2, max(self.idx[u], self.idx[v]) + 1):
                self._add_edge_level((u, v), i)
        for v in range(n):
            x = self.escape[v]
            if x is not None:
                for i in range(2, k + 1):
                    self._add_edge_level(self._pair(v, x), i, star=True)

        # trees, built level by level so the offers' estimates already exist;
        # the roots of a level share its view
        self.tree = {}
        for i in range(1, k + 1):
            view = self.view[i]
            lower = [w for j in range(1, i) for w in self.roots[j]]
            for u in self.roots[i]:
                offers = {}
                for w in lower:
                    lw = self.tree[w].level_of[u]
                    if lw < INF:
                        offers[w] = lw
                self.tree[u] = MonotoneESTree(view, u, self.cap, offers)

        self.updates_applied = 0

    # -- escape-edge bookkeeping ------------------------------------------

    @staticmethod
    def _pair(a, b):
        return (a, b) if a < b else (b, a)

    def _scan(self, v):
        """Next live neighbor of v in D_{idx[v]} at or after the pointer."""
        order = self.nbr_order[v]
        live = self.g.adj[v]
        want = self.idx[v]
        while self.ptr[v] < len(order):
            x = order[self.ptr[v]]
            self.ptr[v] += 1
            self.scans += 1
            if x in live and self.level[x] == want:
                return x
        return None

    def _redesignate(self, v):
        """v lost its escape edge; find a replacement, promoting idx if needed."""
        x = self._scan(v)
        if x is None:
            live = self.g.adj[v]
            old = self.idx[v]
            if not live:
                self.idx[v] = self.k
            else:
                self.idx[v] = min(self.level[z] for z in live)
                self.ptr[v] = 0
                x = self._scan(v)
            if self.idx[v] > old:
                for z in self.g.adj[v]:
                    lo = max(old, self.idx[z])
                    hi = max(self.idx[v], self.idx[z])
                    for i in range(lo + 1, hi + 1):
                        self._add_edge_level(self._pair(v, z), i)
        self.escape[v] = x
        if x is not None:
            self.estar_added += 1
            pair = self._pair(v, x)
            for i in range(2, self.k + 1):
                self._add_edge_level(pair, i, star=True)

    def _add_edge_level(self, pair, i, star=False):
        """Write pair into level i's view at weight 1 unless the view holds
        it, counting it in ei_added[i] unless it is an escape edge (star);
        the one writer of the views above level 1."""
        a, b = pair
        view = self.view[i]
        if b in view[a]:
            return
        view[a][b] = view[b][a] = 1
        if not star:
            self.ei_added[i] += 1

    # -- updates ------------------------------------------------------------

    def _export(self, pend, tree, raised):
        """Queue tree's root at each higher-level node tree raised, whose
        offer at that root must follow; pend maps a root to the nodes whose
        offers it re-reads.  A raised node's level was finite, so the
        offer is there."""
        source = tree.root
        level = self.level
        for x in raised:
            if level[x] > level[source]:
                pend.setdefault(x, set()).add(source)

    def _advance_level(self, i, pend, edge):
        """Bring level i's trees through one deletion, its view written: each
        root whose offers were exported absorbs them and edge = (a, b, 1),
        the pair taken out of the view (None if the view lacked it), in one
        repair; any other root calls delete_edge where the edge supported
        an endpoint."""
        tree = self.tree
        for r in self.roots[i]:
            t = tree[r]
            exported = pend.pop(r, None)
            if exported:
                rises = {w: tree[w].level_of[r] for w in exported}
                self.exports_applied += len(rises)
                raised = t.absorb(rises, edge)
            elif edge is None:
                continue
            else:
                a, b, _ = edge
                la, lb = t.level_of[a], t.level_of[b]
                if not (lb + 1 <= la < INF or la + 1 <= lb < INF):
                    continue  # phase 0: the pair supported neither endpoint
                raised = t.delete_edge(a, b, 1)
            if raised:
                self._export(pend, t, raised)

    def delete(self, u, v):
        rec = apply_update(self.g, UpdateEvent(DELETE, u, v))
        self.updates_applied += 1
        a, b = rec.u, rec.v

        for x, y in ((a, b), (b, a)):
            if self.escape[x] == y:
                self._redesignate(x)

        # pend[root]: lower nodes whose estimate the root re-reads as an
        # offer; trees export upward only, so entries precede their root.
        # The graph is level 1's view; each higher view loses the dying
        # pair where it holds it.
        pend = {}
        self._advance_level(1, pend, (a, b, 1))
        for i in range(2, self.k + 1):
            view = self.view[i]
            edge = None
            if b in view[a]:
                del view[a][b], view[b][a]
                edge = (a, b, 1)
            self._advance_level(i, pend, edge)

    def increase(self, u, v, delta):
        raise DomainError("additive structure supports deletions only")

    # -- queries -------------------------------------------------------------

    def query(self, u, v):
        rank = self.rank
        n = len(rank)
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"query ({u}, {v}) outside the nodes [0, {n})")
        if u == v:
            return 0
        root, other = (u, v) if rank[u] < rank[v] else (v, u)
        return self.tree[root].level_of[other]

    def counters(self):
        return {
            "updates": self.updates_applied,
            "estar_added": self.estar_added,
            "ei_added": {i: self.ei_added[i] for i in range(2, self.k + 1)},
            "neighbor_scans": self.scans,
            "exports_applied": self.exports_applied,
            "tree_level_increases": sum(t.level_increases for t in self.tree.values()),
            "level_sizes": [len(r) for r in self.roots[1:]],
        }
