"""Single-source shortest-path trees over an adjacency their owner keeps.

MonotoneESTree keeps a level l(v) per node with the contract:

  * levels never decrease;
  * l(v) is lower-bounded by the true distance: d_H(root, v) <= l(v);
  * under a purely decremental history the levels are exact whenever they
    do not exceed the depth cap;
  * on an increase the new level equals the minimum of l(u) + w(u, v) over
    the current neighbors, so every finite level is witnessed by an incident
    edge even when insertions made the true distance smaller.

Ownership: the tree reads the adjacency it is built on, a list of n dicts
(adj[u] maps each neighbor of u to the edge's weight), by reference and
never copies or writes it, so any number of trees can share one graph.
Nodes are 0..n-1 and level_of is a list of n levels, written in place.
The owner writes each change first, then passes it to the tree with the
weight the edge had before a rise; a change the adjacency does not show
yet raises UnwrittenChange, an endpoint that graph.is_node refuses raises
KeyError, and an old weight that is not finite or not below the new one
raises MonotonicityViolation.  The tree keeps no edge set, so the owner
refuses a missing or duplicate edge.

Offers: edges from the root that no other tree sees, so trees whose root
edges differ can still share one adjacency.  offers is None or a list of n
entries, each None or a level row, shared and read live, never written:
the offer at x is offers[x][root] (inf: none), a support of x when at most
l(x).  The caller keeps no entry at the root and every offer at least 1 and
rising, and names each node whose offer rose to the next absorb.

Build.  The constructor runs Dijkstra from the root at 0 and from each
offer no larger than the cap; a level above the cap is infinite.  Its
queue holds each distinct distance once: a dict maps a distance to the
list of nodes filed at it, and a heapq heap holds the distances.  Weights
are positive integers, so distances repeat heavily (an additive tree with
cap 13 has at most 14 levels) and one heap operation serves a whole level.
A list leaves the dict before it is drained, and a node filed again lower
is skipped when its old entry comes up.  Nothing bounds the keys, so huge
weights need no other path.  The repair below keeps a (key, node) heap:
half of all repairs have a one-node region, where buckets cost more than
they save.

absorb is the one entry that checks, seeds and repairs: it takes any
number of nodes whose offer rose, together with at most one edge rise
(u, v, w, old) the owner has written, w = inf for a deletion, in a single
repair.  increase_weight(u, v, w, old) is absorb((), (u, v, w, old)), and
delete_edge(u, v, old) is increase_weight(u, v, inf, old).

Repair.  With f sending values above the cap to infinity, a weight rise
moves the levels to the least vector l >= l_old with l(v) >= f(min over
neighbors u of l(u) + w(u, v)) for every v but the root.  Feasible vectors
are closed under pointwise min, so it is unique, slack left by insertions
included.  Bounded-region repair (Ramalingam & Reps, 1996) finds it:

  0. Test the endpoints in O(1).  Before the rise every finite non-root node
     has a support (slack left by insertions keeps one), so an endpoint x can
     have lost its support only if l(x) is finite and l(other) + old <= l(x).
     A node the edge did not support keeps its own support; should that
     support join the region, phase 1 rechecks its neighbors then.  With no
     such endpoint nothing rises and the call returns at once.  A node
     whose offer rose seeds it while l(x) is below that offer, since the
     old offer is gone (a seed still supported stays out).  Every flagged
     node of a batch seeds at once: one repair per tree per batch.
  1. Collect the nodes left without support, a support of x being a
     neighbor y outside the set with l(y) + w <= l(x), or an offer at x no
     larger than l(x) (the root never joins the set): check the endpoints
     phase 0 kept, and when x joins, recheck the neighbors it supported.
     One pass over x's row does both: it stops at the first support
     outside the set, and otherwise has collected x's dependants, the y
     with l(x) + w <= l(y) (with w >= 1 no neighbor is both).  A dependant
     already in the set is dropped when it is popped.
  2. Run Dijkstra over that set only.  One pass over each member's row
     finds its best offer from outside the set, starting from its own offer
     from the root if it has one; that best exceeds its old level and, if
     finite and up to the cap, seeds the heap; a settled node x offers each
     neighbor y still in the set the key max(l_old(y), f(l(x) + w)).
     Nodes it does not reach go to infinity at once.

level_increases counts raised nodes: one per node whose level rose, per
repair, so a node that a batch raises counts once however many of the
batch's changes it felt.

Screening.  Phase 0 reads two levels, so an owner of many trees can run it
inline and call only the trees it flags; a skipped tree would have returned
an empty set.  TreeFamily keeps uncapped trees on one adjacency, keyed by
root, and each node's nearest root and that root's level_of list (the
pivots of BunchEngine and the heavy nodes of MixedAPSP are two families),
so a route through v's nearest root to any node is two list reads.  Every
tree joins through add_root, at the build as mid-stream; apply checks a
change once, screens every tree, and calls increase_weight (new weight inf
for a deletion) only on the flagged ones.  ExactAPSP is the family rooted
at every node, the classic exact decremental baseline (Even & Shiloach):
its one update entry, apply(ev), writes the change to the graph and hands
the record to the family's apply.
"""

from __future__ import annotations

import heapq
import math

from .graph import Decremental, MonotonicityViolation, apply_update, check_query, is_node

INF = math.inf


class UnwrittenChange(RuntimeError):
    """A tree call for an edge change its owner has not written yet."""


def _require_written(adj, u, v, w):
    """Refuse a change to {u, v} that adj does not show at weight w both
    ways (inf: the edge is gone) with UnwrittenChange, or one whose
    endpoints are not both nodes with KeyError, the error of a lookup of a
    missing node."""
    if not (is_node(u, len(adj)) and is_node(v, len(adj))):
        raise KeyError(f"edge {{{u!r}, {v!r}}}: endpoints must be nodes of the graph")
    if adj[u].get(v, INF) != w or adj[v].get(u, INF) != w:
        raise UnwrittenChange(
            f"edge {{{u}, {v}}} should read weight {w} in the adjacency: "
            "write the change before calling the tree")


def _require_rise(u, v, old, w):
    if not -INF < old < w:
        raise MonotonicityViolation(
            f"weight of {{{u}, {v}}} must rise from a finite weight: {old!r} -> {w!r}")


class MonotoneESTree:
    __slots__ = ("root", "cap", "adj", "offers", "level_of", "level_increases")

    def __init__(self, adj, root, cap, offers=None):
        """adj: a list of n dicts, adj[u] mapping each neighbor of u to the
        edge's weight; read, never copied.  offers: None, or a list of n
        entries, each None or a level row whose entry at root is the offer
        at that node; read live, never copied or written.  A root outside
        0..n-1, or an offers list of another length or with an entry at
        the root, raises before anything is built."""
        if cap < 0:
            raise ValueError("depth cap must be nonnegative")
        self.root = root
        self.cap = cap
        self.adj = adj
        if not is_node(root, len(adj)):
            raise KeyError(f"root {root!r} not a node of the graph")
        if offers is not None and (len(offers) != len(adj) or offers[root] is not None):
            raise ValueError("offers must hold one entry per node and none at the root")
        self.offers = offers
        self.level_of = self._dijkstra()
        self.level_increases = 0

    def _dijkstra(self):
        """The build: Dijkstra from the root and the offers, with one heap
        entry per distinct distance (see the module docstring)."""
        dist = [INF] * len(self.adj)
        dist[self.root] = 0
        bucket = {0: [self.root]}
        adj = self.adj
        cap = self.cap
        for x, row in enumerate(self.offers or ()):
            w = INF if row is None else row[self.root]
            if w < INF and w <= cap:
                dist[x] = w
                bucket.setdefault(w, []).append(x)
        keys = list(bucket)
        heapq.heapify(keys)
        heappop, heappush = heapq.heappop, heapq.heappush
        while keys:
            d = heappop(keys)
            for u in bucket.pop(d):
                if d > dist[u]:  # stale: u was filed again, lower
                    continue
                for v, w in adj[u].items():
                    nd = d + w
                    if nd < dist[v] and nd <= cap:  # cap last: int vs inf is slow
                        dist[v] = nd
                        filed = bucket.get(nd)
                        if filed is None:
                            bucket[nd] = [v]
                            heappush(keys, nd)
                        else:
                            filed.append(v)
        return dist

    def insert_edge(self, u, v, w):
        """Check the new edge {u, v} reads w; levels never drop, so it only
        counts from the next repair on.  No caller in the package; kept for
        the tests and because perfbench's tracer patches it by name."""
        _require_written(self.adj, u, v, w)

    def relax_edge(self, u, v, w):
        """Check {u, v}, new at w or lowered to w, reads the lower weight.
        No caller in the package; kept for the tests and because perfbench's
        tracer patches it by name."""
        _require_written(self.adj, u, v, min(self.adj[u].get(v, INF), w))

    def delete_edge(self, u, v, old):
        """The deletion of {u, v}: increase_weight(u, v, inf, old)."""
        return self.increase_weight(u, v, INF, old)

    def increase_weight(self, u, v, w, old):
        """The rise of {u, v} from weight old to w (inf: the edge is gone):
        absorb((), (u, v, w, old))."""
        return self.absorb((), (u, v, w, old))

    def absorb(self, rises, change=None):
        """Absorb the rise of the offers at the nodes in rises, which their
        rows already show, and, given change = (u, v, w, old), the rise of
        edge {u, v} from weight old to w (inf: the edge is gone), which the
        owner has written: all in one repair.  Returns the set of nodes
        whose level increased.  A node in rises without an offer row, a
        change the adjacency does not show or whose endpoints are not
        nodes, or a weight that does not rise from a finite one raises
        before anything changes."""
        level_of = self.level_of
        seeds = []
        if change is not None:
            u, v, new, old = change
            adj = self.adj
            n = len(adj)
            # graph.is_node, inline: two calls would cost more than the test
            if (type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n)
                    or adj[u].get(v, INF) != new or adj[v].get(u, INF) != new):
                _require_written(adj, u, v, new)
            if not -INF < old < new:
                _require_rise(u, v, old, new)
            lu, lv = level_of[u], level_of[v]
            if lv + old <= lu < INF:
                seeds.append(u)
            if lu + old <= lv < INF:
                seeds.append(v)
        if rises:
            offers = self.offers
            for x in rises:
                if offers is None or not is_node(x, len(self.adj)) or offers[x] is None:
                    raise KeyError(f"node {x!r} holds no offer row")
            seeds += [x for x in rises if level_of[x] < offers[x][self.root]]  # inf: no seed
        region = self._unsupported(seeds) if seeds else None
        if not region:
            return set()
        raised = self._reroute(region)
        self.level_increases += len(raised)
        return raised

    def _unsupported(self, stack):
        """Phase 1: the nodes that no neighbor outside the set and no offer
        supports, grown from the nodes in stack.  One pass over x's
        neighbors looks for a support and collects the neighbors x
        supported."""
        level_of = self.level_of
        adj = self.adj
        root = self.root
        offers = self.offers
        region = set()
        while stack:
            x = stack.pop()
            lx = level_of[x]
            if x in region or x == root or lx == INF:
                continue
            dependants = []
            for y, w in adj[x].items():
                ly = level_of[y]
                if ly + w <= lx:
                    if y not in region:
                        break
                elif lx + w <= ly:
                    dependants.append(y)
            else:
                if offers is not None and offers[x] is not None and offers[x][root] <= lx:
                    continue
                region.add(x)
                stack += dependants
        return region

    def _reroute(self, region):
        """Phase 2: Dijkstra inside the region from its boundary; returns
        the nodes whose level rose."""
        level_of = self.level_of
        adj = self.adj
        cap = self.cap
        root = self.root
        offers = self.offers
        key = {}
        heap = []
        for x in region:
            best = offers[x][root] if offers is not None and offers[x] is not None else INF
            for y, w in adj[x].items():
                if y not in region:
                    d = level_of[y] + w
                    if d < best:
                        best = d
            if best < INF and best <= cap:  # and > level_of[x]: no support outside
                key[x] = best
                heap.append((best, x))
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        raised = set()
        while heap:
            d, x = heappop(heap)
            if d > key[x]:  # stale: a lower entry for x came later
                continue
            region.discard(x)
            if d > level_of[x]:
                level_of[x] = d
                raised.add(x)
            if not region:  # what is left on the heap is stale
                break
            for y, w in adj[x].items():
                if y in region:
                    nd = d + w
                    ly = level_of[y]
                    if nd < ly:
                        nd = ly
                    if nd < key.get(y, INF) and nd <= cap:  # cap last, as in _dijkstra
                        key[y] = nd
                        heappush(heap, (nd, y))
        for x in region:
            level_of[x] = INF
        raised.update(region)
        return raised


class TreeFamily(dict):
    """Uncapped MonotoneESTrees (cap inf) on one adjacency, keyed by root.

    nearest[v] is the root whose tree gives v the least level, ties going
    to the smaller root, or None when every level at v is infinite.
    nearest_row[v] is the level_of list of v's nearest tree, or the
    family's one inf_row, a tuple of n infs, when nearest[v] is None; so
    v's nearest level is nearest_row[v][v], and with ru = nearest_row[u]
    the route from u through its nearest root to v is ru[u] + ru[v], inf
    when u has no root.  There is no heap per node: levels only rise, so
    nearest[v] can move only when v's nearest tree raised v, and apply
    re-reads the roots at exactly those nodes.
    """

    __slots__ = ("adj", "nearest", "nearest_row", "inf_row")

    def __init__(self, adj, roots=()):
        self.adj = adj
        n = len(adj)
        self.nearest = [None] * n
        self.inf_row = (INF,) * n
        self.nearest_row = [self.inf_row] * n
        for r in roots:
            self.add_root(r)

    def _read_min(self, nodes):
        """Re-read the nearest root of each node in nodes over every tree."""
        nearest, nearest_row = self.nearest, self.nearest_row
        for v in nodes:
            best, arg, row = INF, None, self.inf_row
            for r, tree in self.items():
                level = tree.level_of[v]
                if level < best or (level == best < INF and r < arg):
                    best, arg, row = level, r, tree.level_of
            nearest[v] = arg
            nearest_row[v] = row

    def add_root(self, r):
        """Build r's tree on the current graph and let it compete for every
        node's nearest root; a root already present, or outside 0..n-1,
        raises KeyError before anything changes."""
        if r in self:
            raise KeyError(f"root {r!r} already has a tree in the family")
        tree = MonotoneESTree(self.adj, r, INF)
        nearest, nearest_row = self.nearest, self.nearest_row
        level_of = tree.level_of
        for v, level in enumerate(level_of):
            best = nearest_row[v][v]
            if level < best or (level == best < INF and r < nearest[v]):
                nearest[v] = r
                nearest_row[v] = level_of
        self[r] = tree

    def apply(self, change):
        """Pass one written ChangeRecord (a rise or a deletion) to the trees
        whose phase-0 test flags an endpoint, each once; returns the list of
        nodes whose nearest root it re-read, each once: those raised in
        their nearest tree.  A node raised only in another tree keeps its
        nearest root and level.  A change the adjacency does not show, or a
        weight that does not rise, raises before any tree changes."""
        u, v, old, new = change.u, change.v, change.old_weight, change.new_weight
        adj = self.adj
        n = len(adj)
        # graph.is_node, inline as in absorb
        if (type(u) is not int or type(v) is not int or not (0 <= u < n and 0 <= v < n)
                or adj[u].get(v, INF) != new or adj[v].get(u, INF) != new):
            _require_written(adj, u, v, new)
        if not -INF < old < new:
            _require_rise(u, v, old, new)
        nearest = self.nearest
        stale = []
        for r, tree in self.items():
            level_of = tree.level_of
            lu, lv = level_of[u], level_of[v]
            if lv + old <= lu < INF or lu + old <= lv < INF:
                stale += [x for x in tree.increase_weight(u, v, new, old) if nearest[x] == r]
        if stale:
            self._read_min(stale)
        return stale


class ExactAPSP(Decremental):
    """Exact distances under deletions and weight rises: a TreeFamily with a
    tree rooted at every node, so query(u, v) reads u's tree at v.  A
    purely decremental history keeps every uncapped level exact."""

    def __init__(self, graph):
        self.g = graph
        self.trees = TreeFamily(graph.adj, range(graph.n))
        self.updates = 0

    def apply(self, ev):
        self.trees.apply(apply_update(self.g, ev))
        self.updates += 1

    def query(self, u, v):
        check_query(u, v, self.g.n)
        return self.trees[u].level_of[v]

    def counters(self):
        return {"updates": self.updates,
                "tree_level_increases": sum(t.level_increases for t in self.trees.values())}
