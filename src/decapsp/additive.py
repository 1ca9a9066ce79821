"""Near-exact small-distance APSP for unweighted graphs under deletions.

Nodes are partitioned into levels D_1..D_k by independent sampling with
geometrically interpolated densities; every node roots one bounded-depth
tree.  The trees of level i share one view: level 1's is the graph's own
adjacency, and each higher level's a sparser graph holding only edges whose
endpoints lack low-level neighbors (E_i) and one designated escape edge per
node into its lowest reachable level (E*).  Each tree above level 1 also
has a shortcut from its root to every lower-level node, priced at that
node's own tree estimate of the root.  Shortcuts touch the root, so the
level's roots read them as offers (see estree), live from one shared list
of the lower trees' level rows, and share one view.

A deletion is absorbed level by level, every level the same way.  The
graph loses the edge first; the escape-edge redesignation then writes each
higher view's new pairs through its one writer, _add_edge_level (levels
never drop on an insertion, and only level i's trees read view i, so no
tree is called), and each higher view loses the dying edge where it holds
it.  A lower tree w that raises a higher-level node x raises the offer at
w in x's tree, and _export names w to x.  Each root of the level with
named nodes absorbs them and the deletion in one repair (absorb), and each
other root calls delete_edge only where the edge supported an endpoint
(the O(1) phase-0 test of estree).  The repair's fixpoint is unique, so
the levels are those of absorbing the changes one by one.

Depth.  Level i's trees run to depth d + k + i - 2 and send any level
above it to inf.  Write D for distance in the graph.  For every root u of
level i and every node x in reach, D(u, x) <= d + (k - i),

    D(u, x) <= l_u(x) <= B(x) = D(u, x) + 2(i - 1),

and B(x) <= d + (k - i) + 2(i - 1) = d + k + i - 2, the depth.  A query
reads the tree of the pair's lower-level endpoint, so a pair within d is
answered within 2(k - 1); a pair farther than d has no bound and may be
answered inf.

Proof, by induction on the level and, within a level, on the updates.
The lower bound holds because every view is a subgraph of the graph at
weight 1 and every offer is a lower tree's level, itself at least the
distance.  For the upper bound, take level i after an update; every lower
level is already through it, and each offer reads its tree's current
level.  A repair leaves L, the least vector at or above the old levels
that is feasible, i.e. every node but the root is at least its best
support (a neighbor's level + 1, or its offer), or inf if that exceeds
the depth (estree's fixpoint); the build leaves the least feasible vector.
Let L' lower each x in reach to min(L(x), B(x)).  Distances only grow, so
x was in reach before, its old level at most its old B(x) <= B(x) by
induction on the updates, and L' stays at or above the old levels.  L' is
feasible: where L' = L the supports only got lower; where L'(x) = B(x) <
L(x), take x's predecessor p on a shortest u-x path, in reach with
L'(p) <= B(x) - 1.  If view i holds {p, x}, p supports x at B(x).  Else
i > 1 and idx(x) < i, since view i holds every edge with an endpoint of
idx >= i, so x's escape edge, which every view holds, leads to a node z of
level j = idx(x) < i.  D(z, u) <= D(u, x) + 1 <= d + (k - j), so by
induction on the level the offer at z, tree z's level of u, is at most
D(u, x) + 1 + 2(j - 1) <= B(x) - 1, and L(z) never exceeds an offer up to
the depth (offers only rise, and lowering z to its offer keeps a vector
feasible, by the same argument); so z supports x at B(x).  Every B(x) is
at most the depth, so no support is sent to inf, and L <= L' by
minimality, which is the bound.  The depth is tight: with any level's
trees one shallower the bound fails on some drains (tests/test_additive).
"""

from __future__ import annotations

import math
import random

from .estree import MonotoneESTree
from .graph import DELETE, Decremental, DomainError, apply_update, check_query, check_unweighted

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


class AdditiveAPSP(Decremental):
    """Answers every pair within distance d with additive error 2(k - 1).

    Level i's trees run to depth d + k + i - 2, the largest level its bound
    reads (see the module docstring's proof); a pair farther than d may be
    answered inf.

    k and d have no default: d is the query radius and k trades stretch
    against time.  c is the sampling constant of the level probabilities
    min(1, c ln n / s_i); None derives c = 2.  A node with at least s_i
    neighbours then has none sampled at level i with probability at most
    (1 - c ln n / s_i)^{s_i} <= n^{-c}, so c = 2 leaves, over the n nodes
    and k - 1 levels, a chance of at most k / n that any has none.
    """

    def __init__(self, graph, k, d, c=None, seed=0):
        if c is None:
            c = 2
        if graph.n < 2:
            raise DomainError("need at least two nodes")
        if k < 2 or k > max(2, int(math.log2(graph.n))):
            raise DomainError(f"k={k} outside [2, log2(n)]")
        if d < 1:
            raise DomainError("depth parameter d must be >= 1")
        check_unweighted(graph)
        self.g = graph
        self.k = k
        self.d = d
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
        self.view = {i: [{} for _ in range(n)] for i in range(2, k + 1)}
        self.view[1] = graph.adj
        for u, v, _ in graph.edges():
            for i in range(2, max(self.idx[u], self.idx[v]) + 1):
                self._add_edge_level((u, v), i)
        for v in range(n):
            x = self.escape[v]
            if x is not None:
                for i in range(2, k + 1):
                    self._add_edge_level(self._pair(v, x), i, star=True)

        # trees, built level by level so the lower rows already exist; the
        # roots of a level share its view, its depth and its offer rows
        self.tree = {}
        rows = None
        for i in range(1, k + 1):
            view = self.view[i]
            cap = d + k + i - 2
            for u in self.roots[i]:
                self.tree[u] = MonotoneESTree(view, u, cap, rows)
            rows = list(rows) if rows else [None] * n
            for w in self.roots[i]:
                rows[w] = self.tree[w].level_of

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
        """Queue tree's root at each higher-level node x tree raised: the
        offer x's tree reads at that root, tree's level of x, rose.  pend
        maps a root to the nodes whose offers rose in its tree."""
        source = tree.root
        level = self.level
        for x in raised:
            if level[x] > level[source]:
                pend.setdefault(x, set()).add(source)

    def _advance_level(self, i, pend, edge):
        """Bring level i's trees through one deletion, its view written: each
        root whose offers rose absorbs those nodes and edge = (a, b, inf,
        1), the pair taken out of the view (None if the view lacked it), in
        one repair; any other root calls delete_edge where the edge
        supported an endpoint."""
        tree = self.tree
        for r in self.roots[i]:
            t = tree[r]
            exported = pend.pop(r, None)
            if exported:
                self.exports_applied += len(exported)
                raised = t.absorb(exported, edge)
            elif edge is None:
                continue
            else:
                a, b, _, _ = edge
                la, lb = t.level_of[a], t.level_of[b]
                if not (lb + 1 <= la < INF or la + 1 <= lb < INF):
                    continue  # phase 0: the pair supported neither endpoint
                raised = t.delete_edge(a, b, 1)
            if raised:
                self._export(pend, t, raised)

    def apply(self, ev):
        if ev.kind != DELETE:
            raise DomainError("additive structure supports deletions only")
        rec = apply_update(self.g, ev)
        self.updates_applied += 1
        a, b = rec.u, rec.v

        for x, y in ((a, b), (b, a)):
            if self.escape[x] == y:
                self._redesignate(x)

        # pend[root]: lower nodes whose offer rose in the root's tree;
        # trees export upward only, so entries precede their root.
        # The graph is level 1's view; each higher view loses the dying
        # pair where it holds it.
        pend = {}
        self._advance_level(1, pend, (a, b, INF, 1))
        for i in range(2, self.k + 1):
            view = self.view[i]
            edge = None
            if b in view[a]:
                del view[a][b], view[b][a]
                edge = (a, b, INF, 1)
            self._advance_level(i, pend, edge)

    # -- queries -------------------------------------------------------------

    def query(self, u, v):
        rank = self.rank
        n = len(rank)
        # graph.is_node, inline: two calls made a query about 20% slower
        if type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n):
            check_query(u, v, n)
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
