"""Pivot and bunch maintenance under deletions.

Each node v tracks its nearest sampled pivot through one shortest-path tree
per pivot, and keeps a bunch: the set of nodes strictly closer than the
pivot.  Bunch membership is maintained lazily around a cached radius:

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
that non-membership certifies d(v, w) >= radius with no extra factor.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

from .estree import MonotoneESTree
from .graph import DomainError
from .heaps import IndexedHeap
from .rounding import GeometricRounder

INF = math.inf

LEAVE = "leave"
INCREASE = "increase"
JOIN = "join"

# exponent sentinel for a zero distance (a node inside its own bunch)
EXP_ZERO = -(10**9)

logger = logging.getLogger(__name__)


def sample_pivots(n, p, seed):
    """Independent inclusion with probability p; sorted for determinism."""
    if not (0 <= p <= 1):
        raise DomainError(f"sampling probability must be in [0, 1], got {p!r}")
    import random

    rng = random.Random(seed)
    return [v for v in range(n) if rng.random() < p]


@dataclass(frozen=True)
class BunchChangeEvent:
    """One membership or estimate change of bunch(owner) w.r.t. member.

    case is LEAVE (value = inf), INCREASE (rounded estimate grew) or JOIN
    (member entered at a rebuild).  exponent/value carry the new rounded
    in-bunch estimate.
    """

    owner: int
    member: int
    case: str
    exponent: int | None
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
        self.g = graph
        self.eps = eps
        self.e3 = eps / 3.0
        self.rounder = GeometricRounder(eps / 3.0)
        n = graph.n
        self.A = sample_pivots(n, p, seed)
        self.depth_cap = max(1, math.ceil((2 + eps) * max(n - 1, 1) * graph.W))
        self.trees = {s: MonotoneESTree(graph.adj, s, self.depth_cap) for s in self.A}

        self._pivot_heap = [
            IndexedHeap((s, self.trees[s].level_of[v]) for s in self.A) for v in range(n)
        ]
        self.pivot_est = [INF] * n
        self.pivot_of = [None] * n
        for v in range(n):
            self.pivot_of[v], self.pivot_est[v] = self._pivot_min(v)

        self._size_cap = None
        if not self.A:
            if p > 0:
                self._size_cap = max(1, math.ceil(4 * math.log(max(n, 2)) / p))
            logger.warning(
                "no pivots sampled (n=%d, p=%g): bunches degenerate to whole "
                "components, capped at %s members",
                n,
                p,
                self._size_cap,
            )

        self.radius = list(self.pivot_est)
        self.rebuilds = [0] * n
        self.bunch = [{} for _ in range(n)]
        self.cluster = [set() for _ in range(n)]
        self._region = [set() for _ in range(n)]
        self._region_rev = [set() for _ in range(n)]
        self.searches = 0
        for v in range(n):
            settled = self._search(v, self.pivot_est[v])
            b = {}
            for w, dist in settled.items():
                b[w] = EXP_ZERO if dist == 0 else self.rounder.exponent(dist)
                self.cluster[w].add(v)
            self.bunch[v] = b
            self._set_region(v, set(settled))

    # -- accessors ---------------------------------------------------------

    def delta_A(self, s, v):
        return self.trees[s].level_of[v]

    def value_of(self, exponent):
        return 0.0 if exponent == EXP_ZERO else self.rounder.value(exponent)

    def rebuild_bound(self):
        """Per-node rebuild budget for a run on this instance."""
        span = max(self.g.n * self.g.W, 2)
        return math.ceil(math.log(span, 1 + self.e3)) + 1

    # -- internals ---------------------------------------------------------

    def _pivot_min(self, v):
        heap = self._pivot_heap[v]
        if not heap:
            return None, INF
        s, key = heap.peek()
        if key == INF:
            return None, INF
        return s, key

    def _search(self, source, threshold):
        """Exact distances from source, settled strictly below threshold."""
        self.searches += 1
        if threshold <= 0:
            return {}
        adj = self.g.adj
        dist = {source: 0}
        settled = {}
        heap = [(0, source)]
        cap = self._size_cap
        while heap:
            d, u = heapq.heappop(heap)
            if d >= threshold:
                break
            if d > dist[u]:
                continue
            settled[u] = d
            if cap is not None and len(settled) >= cap:
                break
            for v, w in adj[u].items():
                nd = d + w
                if nd < threshold and nd < dist.get(v, INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return settled

    def _set_region(self, x, settled_set):
        old = self._region[x]
        for w in old - settled_set:
            self._region_rev[w].discard(x)
        for w in settled_set - old:
            self._region_rev[w].add(x)
        self._region[x] = settled_set

    def _rebuild_owner(self, x, rebuild, events):
        """Re-search around x and emit membership/estimate events."""
        threshold = self.pivot_est[x]
        settled = self._search(x, threshold)
        old_b = self.bunch[x]
        new_b = {}
        rounder = self.rounder
        for w, dist in settled.items():
            if rebuild or w in old_b:
                new_b[w] = EXP_ZERO if dist == 0 else rounder.exponent(dist)
        for w in sorted(old_b.keys() | new_b.keys()):
            if w not in new_b:
                self.cluster[w].discard(x)
                events.append(BunchChangeEvent(x, w, LEAVE, None, INF))
            elif w not in old_b:
                self.cluster[w].add(x)
                events.append(BunchChangeEvent(x, w, JOIN, new_b[w], self.value_of(new_b[w])))
            elif new_b[w] != old_b[w]:
                events.append(BunchChangeEvent(x, w, INCREASE, new_b[w], self.value_of(new_b[w])))
        self.bunch[x] = new_b
        self._set_region(x, set(settled))

    def refresh(self, change):
        """Absorb one already-applied graph change; returns ordered events."""
        u, v, old = change.u, change.v, change.old_weight
        removed = change.new_weight == INF

        touched = set()
        for s, tree in self.trees.items():
            if removed:
                moved = tree.delete_edge(u, v, old)
            else:
                moved = tree.increase_weight(u, v, change.new_weight, old)
            if moved:
                level_of = tree.level_of
                for w in moved:
                    self._pivot_heap[w].update(s, level_of[w])
                touched.update(moved)

        grown = set()
        for w in touched:
            s_min, est = self._pivot_min(w)
            if est != self.pivot_est[w]:
                self.pivot_est[w] = est
                self.pivot_of[w] = s_min
                grown.add(w)
            else:
                self.pivot_of[w] = s_min

        nearby = self._region_rev[u] & self._region_rev[v]
        events = []
        for x in sorted(nearby | grown):
            rebuild = x in grown and self.pivot_est[x] > (1 + self.e3) * self.radius[x]
            if rebuild:
                self.radius[x] = self.pivot_est[x]
                self.rebuilds[x] += 1
            elif x not in nearby:
                continue  # pivot estimate moved but the bunch ball is untouched
            self._rebuild_owner(x, rebuild, events)
        return events
