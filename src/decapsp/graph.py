"""Decremental graph core: the update log model and file formats.

A graph instance only ever shrinks: edges are deleted or their weights are
increased, never the reverse.  Every mutation goes through apply_update so
that a single version counter orders all changes and downstream structures
can reason about "the graph at time t".
"""

from __future__ import annotations

import math
from dataclasses import dataclass

INF = math.inf

DELETE = "delete"
INCREASE = "increase"


class ParseError(ValueError):
    """Malformed graph or update file; carries the 1-based line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class DuplicateEdge(ValueError):
    pass


class EdgeNotFound(KeyError):
    pass


class MonotonicityViolation(ValueError):
    """A weight change that does not strictly increase the weight."""


class DomainError(ValueError):
    """Argument outside the documented domain (e.g. rounding a value below 1)."""


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class UpdateEvent:
    """One decremental operation.  Delete is Increase with delta = inf."""

    kind: str  # DELETE or INCREASE
    u: int
    v: int
    delta: float = INF  # new weight for INCREASE; inf for DELETE


@dataclass(frozen=True)
class QueryCheckpoint:
    u: int
    v: int


@dataclass(frozen=True)
class ChangeRecord:
    u: int
    v: int
    old_weight: float
    new_weight: float  # inf when the edge was removed
    version: int


class DynamicGraph:
    """Undirected graph with positive integer weights, deletions only.

    adj maps node -> {neighbor: weight}; both directions are stored.  W is
    the maximum weight seen at construction and is treated as the weight
    bound of the instance for the lifetime of the run.
    """

    __slots__ = ("n", "adj", "W", "version")

    def __init__(self, n, edges=()):
        # edges: iterable of (u, v, w)
        if n < 0:
            raise DomainError("node count must be nonnegative")
        self.n = n
        self.adj = {u: {} for u in range(n)}
        self.W = 1
        self.version = 0
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u, v, w):
        # construction-time only; the decremental log never adds edges
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise DomainError(f"self-loop at node {u}")
        if not isinstance(w, int) or w < 1:
            raise DomainError(f"edge weight must be a positive integer, got {w!r}")
        if v in self.adj[u]:
            raise DuplicateEdge(f"edge {{{u}, {v}}} already present")
        self.adj[u][v] = w
        self.adj[v][u] = w
        if w > self.W:
            self.W = w

    def _check_node(self, u):
        if not isinstance(u, int) or not (0 <= u < self.n):
            raise DomainError(f"node {u!r} out of range [0, {self.n})")

    def has_edge(self, u, v):
        return u in self.adj and v in self.adj[u]

    def weight(self, u, v):
        try:
            return self.adj[u][v]
        except KeyError:
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in graph") from None

    @property
    def m(self):
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def edges(self):
        for u, nbrs in self.adj.items():
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def copy(self):
        g = DynamicGraph(self.n)
        g.adj = {u: dict(nbrs) for u, nbrs in self.adj.items()}
        g.W = self.W
        g.version = self.version
        return g


def apply_update(graph, event):
    """Apply one UpdateEvent, bump the version, return a ChangeRecord."""
    if event.kind not in (DELETE, INCREASE):
        raise DomainError(f"unknown update kind {event.kind!r}")
    u, v = event.u, event.v
    if not graph.has_edge(u, v):
        raise EdgeNotFound(f"edge {{{u}, {v}}} not in graph")
    old = graph.adj[u][v]
    if event.kind == DELETE or event.delta == INF:
        del graph.adj[u][v]
        del graph.adj[v][u]
        new = INF
    else:
        new = event.delta
        if not isinstance(new, int) or new <= old:
            raise MonotonicityViolation(
                f"weight of {{{u}, {v}}} must strictly increase: {old} -> {new!r}"
            )
        graph.adj[u][v] = new
        graph.adj[v][u] = new
    graph.version += 1
    return ChangeRecord(u, v, old, new, graph.version)


# ---------------------------------------------------------------------------
# file formats
#
# graph file:   first line "n m", then m lines "u v w" with 0-indexed
#               endpoints and integer weight w >= 1.
# update file:  one operation per line: "d u v", "i u v DELTA" (DELTA is the
#               new, strictly larger weight), or "q u v" marking a query
#               checkpoint.  Blank lines and lines starting with '#' are
#               ignored in both formats.


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def load_graph(text):
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header line 'n m'") from None
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, f"expected header 'n m', got {header!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(lineno, f"non-integer header fields in {header!r}") from None
    if n < 0 or m < 0:
        raise ParseError(lineno, "n and m must be nonnegative")
    g = DynamicGraph(n)
    count = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'u v w', got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(lineno, f"non-integer fields in {line!r}") from None
        try:
            g.add_edge(u, v, w)
        except (DomainError, DuplicateEdge) as exc:
            raise ParseError(lineno, str(exc)) from None
        count += 1
    if count != m:
        raise ParseError(lineno, f"header promised {m} edges, found {count}")
    return g


def dump_graph(graph):
    out = [f"{graph.n} {graph.m}"]
    for u, v, w in sorted(graph.edges()):
        out.append(f"{u} {v} {w}")
    return "\n".join(out) + "\n"


def parse_updates(text):
    """Parse an update file into a list of UpdateEvent / QueryCheckpoint."""
    events = []
    for lineno, line in _content_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "d" and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, f"non-integer endpoints in {line!r}") from None
            events.append(UpdateEvent(DELETE, u, v))
        elif tag == "i" and len(parts) == 4:
            try:
                u, v, delta = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(lineno, f"non-integer fields in {line!r}") from None
            events.append(UpdateEvent(INCREASE, u, v, delta))
        elif tag == "q" and len(parts) == 3:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, f"non-integer endpoints in {line!r}") from None
            events.append(QueryCheckpoint(u, v))
        else:
            raise ParseError(lineno, f"unrecognized update line {line!r}")
    return events


def dump_updates(events):
    out = []
    for ev in events:
        if isinstance(ev, QueryCheckpoint):
            out.append(f"q {ev.u} {ev.v}")
        elif ev.kind == DELETE or ev.delta == INF:
            out.append(f"d {ev.u} {ev.v}")
        else:
            out.append(f"i {ev.u} {ev.v} {ev.delta}")
    return "\n".join(out) + ("\n" if out else "")


def gnp_graph(n, density, max_weight, rng):
    """Erdos-Renyi style instance: each pair kept with probability density,
    weights uniform on [1, max_weight].  Deterministic given the rng state.
    A density outside (0, 1] or a max_weight below 1 is a DomainError."""
    if not (0 < density <= 1):
        raise DomainError(f"density must be in (0, 1], got {density}")
    if max_weight < 1:
        raise DomainError(f"max weight must be at least 1, got {max_weight}")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return DynamicGraph(n, edges)


def gnp_workload(n, density, max_weight, rng):
    """gnp_graph plus all of its edges as (u, v) pairs in a deletion order
    shuffled by the same rng, which the caller may go on drawing from."""
    g = gnp_graph(n, density, max_weight, rng)
    order = [(u, v) for u, v, _ in g.edges()]
    rng.shuffle(order)
    return g, order
