"""Pivot and bunch maintenance under deletions.

Each node v tracks its nearest sampled pivot through a TreeFamily, one
uncapped shortest-path tree per pivot, whose nearest_row[v][v] is v's pivot
estimate, and keeps a bunch: the set of nodes strictly closer than the
pivot.  A node with no pivot in reach has pivot distance inf, so its bunch
is its whole component.  Bunch membership is maintained lazily around a
cached radius:

  * the radius starts at the pivot distance;
  * members may leave at any time (their distance reached the current pivot
    estimate, or they got disconnected);
  * new members join only when the pivot estimate outgrows the cached radius
    by more than a (1 + eps/3) factor, at which point the bunch is rebuilt
    from scratch and the radius is reset.

Radii grow geometrically, so each node rebuilds O(log_(1+eps/3)(n W)) times
over a whole deletion sequence; this is what bounds the churn seen by the
certificate heaps downstream.

In-bunch distance estimates are exact truncated searches here (the contract
only needs (1 + eps/3)-accurate ones); the slack is deliberately unused so
that non-membership certifies d(v, w) >= radius with no extra factor.  The
settled dict of v's last search is kept as v's region: a change to edge
{u, v} of old weight w re-searches only the owners x in whose region the
edge is tight, region[x][u] + w == region[x][v] or the reverse.  Every edge
on a shortest path to a settled node joins two settled nodes and is tight,
so a change that is not tight in x's region leaves every settled distance,
and so x's bunch and estimates, as they were (Ramalingam & Reps, 1996);
the region keeps its stored distances, which stay exact.
"""

from __future__ import annotations

import heapq
import logging
import math
from typing import NamedTuple

from .estree import TreeFamily
from .graph import DomainError
from .rounding import GeometricRounder

INF = math.inf

LEAVE = "leave"
INCREASE = "increase"
JOIN = "join"
EPS_ROUNDED_MAX = 4.85  # mult's proof needs (1 + eps/3)^2 <= 2 + eps, true up to here

logger = logging.getLogger(__name__)


def sample_pivots(n, p, seed):
    """Independent inclusion with probability p; sorted for determinism."""
    if not (0 <= p <= 1):
        raise DomainError(f"sampling probability must be in [0, 1], got {p!r}")
    import random

    rng = random.Random(seed)
    return [v for v in range(n) if rng.random() < p]


class BunchChangeEvent(NamedTuple):
    """One membership or estimate change of bunch(owner) w.r.t. member.

    case is LEAVE (value = inf), INCREASE (rounded estimate grew) or JOIN
    (member entered at a rebuild).  value is the new rounded in-bunch
    estimate, as stored in engine.bunch[owner][member].
    """

    owner: int
    member: int
    case: str
    value: float


class BunchEngine:
    """Maintains pivots, bunches, clusters and per-pivot distances.

    The owning algorithm mutates the graph first (apply_update) and then
    calls refresh() with the resulting ChangeRecord; queries and accessors
    are valid between refreshes.
    """

    def __init__(self, graph, p, eps, seed):
        if not (eps > 0):
            raise DomainError(f"eps must be positive, got {eps!r}")
        if not (1.0 + eps / 3.0 > 1.0 and eps < INF):
            raise DomainError(f"eps must be finite with 1 + eps / 3 > 1, got {eps!r}")
        self.rounder = GeometricRounder(min(eps, EPS_ROUNDED_MAX) / 3.0)
        self.g = graph
        n = graph.n
        self.trees = TreeFamily(graph.adj, sample_pivots(n, p, seed))
        if not self.trees:
            logger.warning(
                "no pivots sampled (n=%d, p=%g): every bunch is its whole component", n, p
            )

        self.radius = [row[v] for v, row in enumerate(self.trees.nearest_row)]
        self.rebuilds = [0] * n
        # bunch[v][w]: the rounded estimate round(d(v, w)), 0.0 for w == v
        self.bunch = [{} for _ in range(n)]
        self.cluster = [set() for _ in range(n)]
        self._region = [{} for _ in range(n)]
        self._region_rev = [set() for _ in range(n)]
        self.searches = 0
        for v in range(n):
            settled = self._search(v, self.radius[v])
            b = {}
            for w, dist in settled.items():
                b[w] = 0.0 if dist == 0 else self.rounder.round(dist)
                self.cluster[w].add(v)
            self.bunch[v] = b
            self._set_region(v, settled)

    # -- accessors ---------------------------------------------------------

    def rebuild_bound(self):
        """Per-node rebuild budget for a run on this instance, from the
        graph's W; a run that raises weights above W may exceed it."""
        span = max(self.g.n * self.g.W, 2)
        return math.ceil(math.log(span, 1 + self.rounder.eps)) + 1

    # -- internals ---------------------------------------------------------

    def _search(self, source, threshold):
        """Exact distances from source, settled strictly below threshold."""
        self.searches += 1
        if threshold <= 0:
            return {}
        adj = self.g.adj
        dist = {source: 0}
        settled = {}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d >= threshold:
                break
            if d > dist[u]:
                continue
            settled[u] = d
            for v, w in adj[u].items():
                nd = d + w
                if nd < threshold and nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return settled

    def _set_region(self, x, settled):
        old, new = self._region[x].keys(), settled.keys()
        for w in old - new:
            self._region_rev[w].discard(x)
        for w in new - old:
            self._region_rev[w].add(x)
        self._region[x] = settled

    def _rebuild_owner(self, x, rebuild, events):
        """Re-search around x and emit membership/estimate events."""
        settled = self._search(x, self.trees.nearest_row[x][x])
        old_b = self.bunch[x]
        new_b = {}
        rounder = self.rounder
        for w, dist in settled.items():
            if rebuild or w in old_b:
                new_b[w] = 0.0 if dist == 0 else rounder.round(dist)
        for w in sorted(old_b.keys() | new_b.keys()):
            if w not in new_b:
                self.cluster[w].discard(x)
                events.append(BunchChangeEvent(x, w, LEAVE, INF))
            elif w not in old_b:
                self.cluster[w].add(x)
                events.append(BunchChangeEvent(x, w, JOIN, new_b[w]))
            elif new_b[w] != old_b[w]:
                events.append(BunchChangeEvent(x, w, INCREASE, new_b[w]))
        self.bunch[x] = new_b
        self._set_region(x, settled)

    def refresh(self, change):
        """Absorb one already-applied graph change; returns ordered events."""
        rows, radius, grow = self.trees.nearest_row, self.radius, 1 + self.rounder.eps
        # apply returns the nodes whose estimate rose; every other one stays
        # within (1 + eps/3) * radius, as each estimate does between rebuilds.
        outgrown = {x for x in self.trees.apply(change) if rows[x][x] > grow * radius[x]}
        # old >= 1, so |d(x, u) - d(x, v)| == old is the tightness test
        u, v, old, region = change.u, change.v, change.old_weight, self._region
        nearby = {x for x in self._region_rev[u] & self._region_rev[v]
                  if abs(region[x][u] - region[x][v]) == old}
        events = []
        for x in sorted(nearby | outgrown):
            rebuild = x in outgrown
            if rebuild:
                radius[x] = rows[x][x]
                self.rebuilds[x] += 1
            self._rebuild_owner(x, rebuild, events)
        return events
