"""Edge subdivision: trade an additive error term for a multiplicative one.

subdivide() splits every unit edge into two unit edges through one fresh
midpoint, which doubles every original distance exactly.  An estimate on
the expanded graph that is within alpha*d' plus one edge weight therefore
floors back, halved, to a purely multiplicative approximation on the
original graph.

Only unweighted graphs and deletions are supported: one original deletion
becomes its two half-edge deletions, applied before the next query.
"""

from __future__ import annotations

import math

from .apsp_mixed import MixedAPSP
from .graph import (DELETE, Decremental, DomainError, DynamicGraph, EdgeNotFound, check_query,
                    check_unweighted, is_node)

INF = math.inf


def subdivide(graph):
    """The expanded graph and mid, which maps each edge (u, v) with u < v
    to its midpoint; edge i in sorted order gets midpoint n + i, so
    replaying the same update stream always addresses the same nodes."""
    check_unweighted(graph)
    mid = {}
    halves = []
    for c, (u, v, _) in enumerate(sorted(graph.edges()), start=graph.n):
        mid[(u, v)] = c
        halves += [(u, c, 1), (c, v, 1)]
    return DynamicGraph(graph.n + len(mid), halves), mid


class UnweightedAPSP(Decremental):
    """Multiplicative-only approximation for unweighted decremental graphs.

    Runs the mixed scheme on the subdivided graph, where the additive
    per-pair edge term is worth exactly one unit, and halves estimates
    back down.  With inner stretch 2+eps this yields 2+3*eps.

    p and tau go to the inner MixedAPSP as given, so None lets it derive
    both from the expanded graph: n' = n + m nodes and m' = 2m edges give
    p = (2m)^{-1/4}, tau = floor(sqrt(2m)) and total update time
    O~(n' m'^{3/4}), which is O~(m^{7/4}) once n <= m.
    """

    def __init__(self, graph, p, eps, tau, seed):
        """Reads graph once, to subdivide it; deletions go to the expanded
        graph only, so graph itself is left as given."""
        self.n = graph.n
        expanded, self.mid = subdivide(graph)
        self.inner = MixedAPSP(expanded, p, eps, tau, seed)

    def apply(self, ev):
        if ev.kind != DELETE:
            raise DomainError("subdivided graphs only support deletions")
        u, v = ev.u, ev.v
        # 2.0 and True hash like 2 and 1, so mid would find them
        if not (is_node(u, self.n) and is_node(v, self.n)):
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in the original graph")
        a, b = (u, v) if u < v else (v, u)
        c = self.mid.get((a, b))
        if c is None:
            raise EdgeNotFound(f"edge {{{a}, {b}}} not in the original graph")
        if not self.inner.g.has_edge(a, c):
            raise EdgeNotFound(f"edge {{{a}, {b}}} already deleted")
        self.inner.delete(a, c)
        self.inner.delete(c, b)

    def query(self, u, v):
        check_query(u, v, self.n)
        est = self.inner.query(u, v)
        return INF if est == INF else int(math.floor(est)) // 2

    def counters(self):
        out = dict(self.inner.counters())
        # each deletion is two half-edge deletions of the expanded graph
        out["updates"] = self.inner.g.version // 2
        out["chain_updates"] = self.inner.g.version
        return out
