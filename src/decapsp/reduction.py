"""Edge subdivision: trade an additive error term for a multiplicative one.

Replacing every unit edge by a path of k+1 unit edges scales all original
distances by exactly k+1.  An estimate on the expanded graph that is within
alpha*d' plus a constant number of edge weights therefore floors back to a
purely multiplicative approximation on the original graph.

Only unweighted graphs and deletions are supported: one original deletion
becomes k+1 chain deletions, applied atomically before the next query.
"""

from __future__ import annotations

import math

from .apsp_mixed import MixedAPSP
from .graph import (
    DELETE,
    DomainError,
    DynamicGraph,
    EdgeNotFound,
    UpdateEvent,
)

INF = math.inf


class SubdividedGraph:
    """Expansion of an unweighted graph with k fresh nodes per edge.

    Fresh ids are allocated deterministically as n + k*i + j where i is the
    ordinal of the edge in sorted order and j < k, so replaying the same
    update stream always addresses the same chain nodes.
    """

    __slots__ = ("n", "m", "k", "expanded", "chains")

    def __init__(self, graph, k):
        if k < 1:
            raise DomainError("subdivision count k must be >= 1")
        for u, v, w in graph.edges():
            if w != 1:
                raise DomainError(f"edge {{{u}, {v}}} has weight {w}; expected unweighted input")
        self.n = graph.n
        self.m = graph.m
        self.k = k
        self.chains = {}
        chain_edges = []
        for i, (u, v, _) in enumerate(sorted(graph.edges())):
            path = [u] + [graph.n + k * i + j for j in range(k)] + [v]
            links = list(zip(path, path[1:]))
            self.chains[(u, v)] = links
            chain_edges.extend((a, b, 1) for a, b in links)
        self.expanded = DynamicGraph(graph.n + k * self.m, chain_edges)

    def translate_update(self, event):
        if event.kind != DELETE:
            raise DomainError("subdivided graphs only support deletions")
        u, v = (event.u, event.v) if event.u < event.v else (event.v, event.u)
        chain = self.chains.get((u, v))
        if chain is None:
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in the original graph")
        if not self.expanded.has_edge(*chain[0]):
            raise EdgeNotFound(f"edge {{{u}, {v}}} already deleted")
        return [UpdateEvent(DELETE, a, b) for a, b in chain]


def translate_query(estimate, k):
    if estimate == INF:
        return INF
    return int(math.floor(estimate)) // (k + 1)


class UnweightedAPSP:
    """Multiplicative-only approximation for unweighted decremental graphs.

    Runs the weighted scheme on the (k=1)-subdivided graph, where the
    additive per-pair edge term is worth exactly one unit, and floors
    estimates back down.  With inner stretch 2+eps this yields 2+3*eps.
    """

    def __init__(self, graph, p, eps, tau, seed, k=1):
        """Reads graph once, to build the subdivision; deletions go to the
        expanded graph only, so graph itself is left as given."""
        self.sub = SubdividedGraph(graph, k)
        self.k = k
        self.inner = MixedAPSP(self.sub.expanded, p, eps, tau, seed)
        self.updates_applied = 0

    def delete(self, u, v):
        events = self.sub.translate_update(UpdateEvent(DELETE, u, v))
        for ev in events:
            self.inner.delete(ev.u, ev.v)
        self.updates_applied += 1

    def increase(self, u, v, delta):
        raise DomainError("subdivided graphs only support deletions")

    def query(self, u, v):
        if not (0 <= u < self.sub.n and 0 <= v < self.sub.n):
            raise DomainError("query endpoints must be original nodes")
        return translate_query(self.inner.query(u, v), self.k)

    def counters(self):
        out = dict(self.inner.counters())
        out["updates"] = self.updates_applied
        out["chain_updates"] = self.inner.updates_applied
        return out
