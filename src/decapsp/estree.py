"""Single-source shortest-path trees over an adjacency their owner keeps.

MonotoneESTree keeps a level l(v) per node with the contract:

  * levels never decrease;
  * l(v) is lower-bounded by the true distance: d_H(root, v) <= l(v);
  * under a purely decremental history the levels are exact whenever they
    do not exceed the depth cap;
  * on an increase the new level equals the minimum of l(u) + w(u, v) over
    the current neighbors, so every finite level is witnessed by an incident
    edge even when insertions made the true distance smaller.

Ownership: the tree reads the adjacency it is built on (node -> {neighbor:
weight}) by reference and never copies or writes it, so any number of trees
can share one graph.  The owner writes each change first, then calls the
tree method of the same kind, passing the weight the edge had before a rise;
a call the adjacency does not show yet raises UnwrittenChange, and an old
weight that is not finite or not below the new one raises
MonotonicityViolation.  The tree keeps no edge set, so the owner refuses a
missing or duplicate edge.

Offers: a tree may also own offers (node -> weight), edges of its own from
the root that no other tree sees, so trees whose root edges differ can still
share one adjacency.  An offer w at x is the constraint l(x) <= w: like an
edge from the root it supports x whenever w <= l(x), and it is only ever
raised or dropped.  A tree without offers holds the shared read-only
NO_OFFERS.  absorb is the one entry for offers: it raises any number of
them, together with at most one deletion the owner has written, in a
single repair.

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
     such endpoint nothing rises and the call returns at once.  A raised
     offer seeds its node x the same way when old <= l(x) < inf; absorb
     seeds the region with every flagged node of its batch at once, so
     each tree runs at most one repair per batch.
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
     from the root if it has one; that best exceeds its old level and, up
     to the cap, seeds the heap; a settled node x offers each
     neighbor y still in the set the key max(l_old(y), f(l(x) + w)).
     Nodes it does not reach go to infinity at once.

level_increases counts raised nodes: one per node whose level rose, per
repair, so a node that a batch raises counts once however many of the
batch's changes it felt.

Screening.  Phase 0 reads two levels, so an owner of many trees can run it
inline and call only the trees it flags; a skipped tree would have returned
an empty set.  TreeFamily keeps trees of one cap on one adjacency, keyed by
root, and each node's nearest root (the pivots of BunchEngine and the heavy
nodes of MixedAPSP are two families); it checks a change once, screens
every tree, and calls increase_weight (new weight inf for a deletion) only
on the flagged ones.
"""

from __future__ import annotations

import heapq
import math
from types import MappingProxyType

from .graph import MonotonicityViolation

INF = math.inf
NO_OFFERS = MappingProxyType({})  # the offers of every tree that has none


class UnwrittenChange(RuntimeError):
    """A tree call for an edge change its owner has not written yet."""


def _require_written(adj, u, v, w):
    """Refuse a change to {u, v} that adj does not show at weight w both
    ways (inf: the edge is gone)."""
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
        """adj: mapping node -> {neighbor: weight}; read, never copied.
        offers: node -> finite positive weight, or None; the tree takes the
        dict over and is its only writer from then on."""
        if cap < 0:
            raise ValueError("depth cap must be nonnegative")
        self.root = root
        self.cap = cap
        self.adj = adj
        if root not in adj:
            raise KeyError(f"root {root!r} not a node of the graph")
        if offers:
            for x, w in offers.items():
                if x == root or x not in adj or not 0 < w < INF:
                    raise ValueError(f"offer {w!r} at {x!r}: need a non-root node "
                                     "and a finite positive weight")
        self.offers = offers or NO_OFFERS
        self.level_of = self._dijkstra()
        self.level_increases = 0

    def _dijkstra(self):
        dist = dict.fromkeys(self.adj, INF)
        dist[self.root] = 0
        heap = [(0, self.root)]
        adj = self.adj
        cap = self.cap
        for x, w in self.offers.items():
            if w <= cap:
                dist[x] = w
                heap.append((w, x))
        heapq.heapify(heap)
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
        """Absorb the rise of {u, v} from weight old to w (inf: the edge is
        gone).  Returns the set of nodes whose level increased as a
        consequence."""
        adj = self.adj
        if adj[u].get(v, INF) != w or adj[v].get(u, INF) != w:
            _require_written(adj, u, v, w)
        if not -INF < old < w:
            _require_rise(u, v, old, w)
        level_of = self.level_of
        lu, lv = level_of[u], level_of[v]
        seeds = []
        if lv + old <= lu < INF:
            seeds.append(u)
        if lu + old <= lv < INF:
            seeds.append(v)
        if not seeds:
            return set()
        return self._repair(seeds)

    def absorb(self, rises, dying=None):
        """Raise the offers in rises (node -> new weight, inf drops the
        offer) and, given dying = (u, v, old), absorb the deletion of edge
        {u, v} of weight old, which the owner has taken out of the
        adjacency: all in one repair.  Returns the set of nodes whose level
        increased.  An offer that does not rise (a node holding none
        included), an edge the adjacency still shows or an old weight that
        is not finite raises before anything changes."""
        offers = self.offers
        for x, w in rises.items():
            old = offers.get(x, INF)
            if not old < w:
                raise MonotonicityViolation(
                    f"offer at {x!r} must rise from a finite weight: {old!r} -> {w!r}")
        if dying is not None:
            u, v, old = dying
            _require_written(self.adj, u, v, INF)
            if not -INF < old < INF:
                raise MonotonicityViolation(
                    f"deleted edge {{{u}, {v}}} must have had a finite weight: {old!r}")
        level_of = self.level_of
        seeds = []
        for x, w in rises.items():
            if offers[x] <= level_of[x] < INF:
                seeds.append(x)
            if w == INF:
                del offers[x]
            else:
                offers[x] = w
        if dying is not None:
            lu, lv = level_of[u], level_of[v]
            if lv + old <= lu < INF:
                seeds.append(u)
            if lu + old <= lv < INF:
                seeds.append(v)
        return self._repair(seeds) if seeds else set()

    def _repair(self, seeds):
        region = self._unsupported(seeds)
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
                if offers and offers.get(x, INF) <= lx:
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
        offers = self.offers
        key = {}
        heap = []
        for x in region:
            best = offers.get(x, INF) if offers else INF
            for y, w in adj[x].items():
                if y not in region:
                    d = level_of[y] + w
                    if d < best:
                        best = d
            if best <= cap:  # and best > level_of[x]: no support outside
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
            for y, w in adj[x].items():
                if y in region:
                    nd = d + w
                    if nd <= cap:
                        ly = level_of[y]
                        if nd < ly:
                            nd = ly
                        if nd < key.get(y, INF):
                            key[y] = nd
                            heappush(heap, (nd, y))
        for x in region:
            level_of[x] = INF
        raised.update(region)
        return raised


class TreeFamily(dict):
    """MonotoneESTrees of one depth cap on one adjacency, keyed by root.

    nearest[v] is the root whose tree gives v the least level, ties going
    to the smaller root, and nearest_level[v] that level; None and inf when
    every level at v is infinite.  There is no heap per node: levels only
    rise, so nearest[v] can move only when v's nearest tree raised v, and
    apply re-reads the roots at exactly those nodes.
    """

    __slots__ = ("adj", "cap", "nearest", "nearest_level")

    def __init__(self, adj, cap, roots=()):
        super().__init__((r, MonotoneESTree(adj, r, cap)) for r in roots)
        self.adj = adj
        self.cap = cap
        n = len(adj)
        self.nearest = [None] * n
        self.nearest_level = [INF] * n
        self._read_min(range(n))

    def _read_min(self, nodes):
        """Re-read the nearest root of each node in nodes over every tree."""
        nearest, nearest_level = self.nearest, self.nearest_level
        for v in nodes:
            best, arg = INF, None
            for r, tree in self.items():
                level = tree.level_of[v]
                if level < best or (level == best < INF and r < arg):
                    best, arg = level, r
            nearest[v] = arg
            nearest_level[v] = best

    def add_root(self, r):
        """Build r's tree on the current graph and let it compete for every
        node's nearest root; a root already present raises KeyError before
        anything changes."""
        if r in self:
            raise KeyError(f"root {r!r} already has a tree in the family")
        tree = MonotoneESTree(self.adj, r, self.cap)
        nearest, nearest_level = self.nearest, self.nearest_level
        for v, level in tree.level_of.items():
            best = nearest_level[v]
            if level < best or (level == best < INF and r < nearest[v]):
                nearest[v] = r
                nearest_level[v] = level
        self[r] = tree

    def apply(self, change):
        """Pass one written ChangeRecord (a rise or a deletion) to the trees
        whose phase-0 test flags an endpoint, each once; returns the nodes
        raised in any of them.  A change the adjacency does not show, or a
        weight that does not rise, raises before any tree changes."""
        u, v, old, new = change.u, change.v, change.old_weight, change.new_weight
        _require_written(self.adj, u, v, new)
        _require_rise(u, v, old, new)
        nearest = self.nearest
        raised = set()
        stale = []
        for r, tree in self.items():
            level_of = tree.level_of
            lu, lv = level_of[u], level_of[v]
            if lv + old <= lu < INF or lu + old <= lv < INF:
                moved = tree.increase_weight(u, v, new, old)
                if moved:
                    raised |= moved
                    stale += [x for x in moved if nearest[x] == r]
        if stale:
            self._read_min(stale)
        return raised
