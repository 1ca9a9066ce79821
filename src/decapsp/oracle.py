"""Exact recomputation oracles and the stretch verification harness.

Everything here is deliberately independent from the incremental machinery:
distances are recomputed from scratch so that the dynamic structures can be
judged against ground truth.  The sweep driver replays an update log into an
algorithm instance and a private graph copy in lockstep and checks every
pair at checkpoints.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import asdict, dataclass, field

from .graph import DomainError, QueryCheckpoint, apply_update

INF = math.inf

ORACLE_CAP_ENV = "DECAPSP_ORACLE_CAP"
_DEFAULT_CAP = 512

# guard against float noise in sums of rounded values; real violations are
# at least one rounding step, many orders of magnitude larger.  Compare a
# difference with it: d - FLOAT_GUARD rounds back to d once d passes 2**53.
FLOAT_GUARD = 1e-9


def _oracle_cap():
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return _DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}") from None


def _check_cap(n):
    cap = _oracle_cap()
    if n > cap:
        raise DomainError(
            f"exact recomputation capped at {cap} nodes (set {ORACLE_CAP_ENV} to raise); got n={n}"
        )


def dijkstra(adj, source):
    """List of the distances from source to nodes 0..n-1 over adj, a list
    of n dicts (adj[u] maps each neighbor of u to the edge's weight)."""
    dist = [INF] * len(adj)
    dist[source] = 0
    # one heap entry per distinct distance, bucket[d] listing the nodes
    # filed at d; weights are >= 1, so draining d never files a node at d
    bucket = {0: [source]}
    keys = [0]
    heappop, heappush = heapq.heappop, heapq.heappush
    while keys:
        d = heappop(keys)
        for u in bucket.pop(d):
            if d > dist[u]:  # stale: u was filed again, lower
                continue
            for v, w in adj[u].items():
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    filed = bucket.get(nd)
                    if filed is None:
                        bucket[nd] = [v]
                        heappush(keys, nd)
                    else:
                        filed.append(v)
    return dist


def exact_apsp(graph):
    """n x n matrix of exact distances (math.inf where disconnected)."""
    _check_cap(graph.n)
    return [dijkstra(graph.adj, s) for s in range(graph.n)]


def bottleneck_weights(graph, dist=None):
    """n x n matrix of the largest edge weight over ALL shortest paths.

    Entry (u, v) is the maximum, over every shortest u-v path, of the heaviest
    edge on that path; 0 on the diagonal and for disconnected pairs.
    """
    n = graph.n
    _check_cap(n)
    adj = graph.adj
    if dist is None:
        dist = exact_apsp(graph)
    out = []
    for s in range(n):
        ds = dist[s]
        wmax = [0] * n
        # only reached nodes; the sort is stable, so ties keep node order
        for v in sorted([x for x in range(n) if ds[x] < INF], key=ds.__getitem__):
            if v == s:
                continue
            best = 0
            dv = ds[v]
            for x, w in adj[v].items():
                if ds[x] + w == dv:
                    cand = wmax[x] if wmax[x] > w else w
                    if cand > best:
                        best = cand
            wmax[v] = best
        out.append(wmax)
    return out


@dataclass(frozen=True)
class BoundSpec:
    """Target guarantee d <= d_hat <= alpha * d + beta (+ W_uv if asked).

    radius restricts the upper-bound check to pairs with d <= radius; the
    lower bound and the unreachable-pair check always apply.
    """

    alpha: float
    beta: float = 0.0
    per_pair_bottleneck: bool = False
    radius: float | None = None

    def upper(self, d, w_uv):
        bound = self.alpha * d + self.beta
        if self.per_pair_bottleneck:
            bound += w_uv
        return bound

    def to_dict(self):
        return asdict(self)


@dataclass
class CheckpointResult:
    """One checkpoint's check.  far_pairs counts the connected pairs beyond
    the bound's radius, whose upper bound is not checked, and far_inf those
    of them answered inf: how far the structure reaches past its radius."""

    version: int
    pairs_checked: int
    violations: list = field(default_factory=list)
    max_ratio: float = 0.0
    max_slack: float = -INF
    far_pairs: int = 0
    far_inf: int = 0

    def to_dict(self):
        d = asdict(self)
        d["violations"] = [list(v) for v in self.violations]
        if self.max_slack == -INF:
            d["max_slack"] = None
        return d


@dataclass
class StretchReport:
    bound: BoundSpec
    checkpoints: list = field(default_factory=list)

    @property
    def ok(self):
        return all(not c.violations for c in self.checkpoints)

    @property
    def pairs_checked(self):
        return sum(c.pairs_checked for c in self.checkpoints)

    @property
    def violations(self):
        return [v for c in self.checkpoints for v in c.violations]

    def to_dict(self):
        """The report as JSON; max_ratio and max_slack are the worst seen
        over the checkpoints (max_slack None when no pair had one), and
        far_pairs and far_inf sum theirs."""
        slack = max((c.max_slack for c in self.checkpoints), default=-INF)
        return {
            "schema": 1,
            "bound": self.bound.to_dict(),
            "ok": self.ok,
            "pairs_checked": self.pairs_checked,
            "far_pairs": sum(c.far_pairs for c in self.checkpoints),
            "far_inf": sum(c.far_inf for c in self.checkpoints),
            "max_ratio": max((c.max_ratio for c in self.checkpoints), default=0.0),
            "max_slack": None if slack == -INF else slack,
            "checkpoints": [c.to_dict() for c in self.checkpoints],
        }


def _run_checkpoint(algo, graph, bound):
    n = graph.n
    dist = exact_apsp(graph)
    wmat = bottleneck_weights(graph, dist) if bound.per_pair_bottleneck else None
    res = CheckpointResult(version=graph.version, pairs_checked=0)
    for u in range(n):
        du = dist[u]
        for v in range(u + 1, n):
            d = du[v]
            dhat = algo.query(u, v)
            res.pairs_checked += 1
            if d == INF:
                if dhat != INF:
                    res.violations.append((graph.version, u, v, d, dhat, "finite estimate for disconnected pair"))
                continue
            if d - dhat > FLOAT_GUARD:
                res.violations.append((graph.version, u, v, d, dhat, "estimate below true distance"))
                continue
            if bound.radius is not None and d > bound.radius:
                res.far_pairs += 1
                if dhat == INF:
                    res.far_inf += 1
                continue
            w_uv = wmat[u][v] if wmat is not None else 0
            upper = bound.upper(d, w_uv)
            if dhat - upper > FLOAT_GUARD:
                res.violations.append((graph.version, u, v, d, dhat, f"estimate above bound {upper}"))
                continue
            if d > 0 and dhat != INF:
                ratio = dhat / d
                if ratio > res.max_ratio:
                    res.max_ratio = ratio
                slack = dhat - d
                if slack > res.max_slack:
                    res.max_slack = slack
    return res


def sweep(algo, graph, updates, bound, *, dense=False):
    """Replay updates into algo and a private exact copy, checking stretch.

    algo must expose apply(ev) and query(u, v) and must have been built
    on an identical copy of `graph`; `graph` itself is mutated here and
    serves as the ground-truth twin.  Checks run at every QueryCheckpoint
    in the log, or after every update when dense=True.
    """
    report = StretchReport(bound=bound)
    report.checkpoints.append(_run_checkpoint(algo, graph, bound))
    pending = False
    for ev in updates:
        if isinstance(ev, QueryCheckpoint):
            if not dense and pending:
                report.checkpoints.append(_run_checkpoint(algo, graph, bound))
                pending = False
            continue
        algo.apply(ev)
        apply_update(graph, ev)
        pending = True
        if dense:
            report.checkpoints.append(_run_checkpoint(algo, graph, bound))
            pending = False
    return report
