"""Decremental graph core: the update log model, file formats and workloads.

A graph instance only ever shrinks: edges are deleted or their weights are
increased, never the reverse.  Every mutation goes through apply_update so
that a single version counter orders all changes and downstream structures
can reason about "the graph at time t".

Every structure holds outside input to the rules kept here: is_node,
check_query, check_unweighted and the parsers' integer fields.

UpdateEvent, QueryCheckpoint and ChangeRecord are NamedTuples: immutable
records with the repr of a dataclass, built once per update at a fraction
of a frozen dataclass's cost.  Like any tuple they compare equal to a plain
tuple of the same fields.

The generator section at the end owns every workload: graph families and
update streams, each a function of (parameters, rng) returning a plain
list.  A stream is drawn whole before any structure samples, as the
paper's oblivious adversary requires.  The draws are a contract: generate,
bench, the golden reports and the pinned counts replay them, so a change
to any draw re-records those and says so.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

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


def describe(x):
    """repr(x), except that an integer outside the float range is named by
    its bit length: its decimal form may pass Python's 4300-digit limit on
    integer to string conversion, which raises ValueError."""
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        return f"an integer of {x.bit_length()} bits"
    return repr(x)


def is_node(x, n):
    """Whether x names a node of a graph on n nodes: a plain int in 0..n-1.
    Every structure refuses any other node; True == 1 and 2.0 hashes as 2,
    so a bool or a float would pass a range test or a lookup as a node."""
    return type(x) is int and 0 <= x < n


def check_query(u, v, n):
    """Refuse a pair that is not two nodes of an n-node graph: DomainError."""
    if not (is_node(u, n) and is_node(v, n)):
        raise DomainError(f"query ({u!r}, {v!r}) outside the nodes [0, {n})")


def check_unweighted(graph):
    """Refuse a graph with an edge of weight other than 1 with DomainError."""
    for u, v, w in graph.edges():
        if w != 1:
            raise DomainError(f"edge {{{u}, {v}}} has weight {w}; expected unweighted input")


class UpdateEvent(NamedTuple):
    """One decremental operation: a DELETE, or an INCREASE to the new,
    strictly larger integer weight delta.  A DELETE ignores delta."""

    kind: str  # DELETE or INCREASE
    u: int
    v: int
    delta: float = INF  # new weight for INCREASE


class Decremental:
    """Base of every structure: apply(ev) is its one update entry, and
    delete and increase only build the UpdateEvent and pass it on."""

    def delete(self, u, v):
        self.apply(UpdateEvent(DELETE, u, v))

    def increase(self, u, v, delta):
        self.apply(UpdateEvent(INCREASE, u, v, delta))


class QueryCheckpoint(NamedTuple):
    """A point in an update stream where the pair (u, v) is queried."""

    u: int
    v: int


class ChangeRecord(NamedTuple):
    """What apply_update did to edge {u, v}, the graph's version-th change."""

    u: int
    v: int
    old_weight: float
    new_weight: float  # inf when the edge was removed
    version: int


class DynamicGraph:
    """Undirected graph with integer weights in [1, max_weight], deletions
    and weight rises only.

    Nodes are 0..n-1, and adj is a list of n dicts: adj[u] maps each
    neighbor of u to the edge's weight, and both directions are stored.
    add_edge, has_edge, weight and apply_update refuse what is_node refuses.
    W is the maximum weight seen at construction; it bounds only the bunch
    rebuild budget (BunchEngine.rebuild_bound), not later rises.

    max_weight is the largest float / 16n: add_edge and apply_update's
    rise refuse a heavier weight before any change, so no sum a structure
    forms leaves the float range.  With weights at most M, a path of at
    most n - 1 edges is at most (n - 1)M, and a route through a pivot or
    heavy root at most 2(n - 1)M.  Rounders step by b = 1 + min(eps,
    4.85)/3 < 2.62, and round(x) <= b(1 + 2^-53)x, so the largest ladder
    sum, mult's adjacency key round(d1) + round(round(w) + round(d2)) with
    d1, d2 <= (n - 1)M, is below (b + b^2)nM < 9.5nM < 16nM.
    """

    __slots__ = ("n", "adj", "W", "version", "max_weight")

    def __init__(self, n, edges=()):
        # edges: iterable of (u, v, w)
        if n < 0:
            raise DomainError("node count must be nonnegative")
        self.n = n
        self.adj = [{} for _ in range(n)]
        self.W = 1
        self.version = 0
        self.max_weight = sys.float_info.max / (16 * max(n, 1))
        for u, v, w in edges:
            self.add_edge(u, v, w)

    def add_edge(self, u, v, w):
        # construction-time only; the decremental log never adds edges
        if not (is_node(u, self.n) and is_node(v, self.n)):
            raise DomainError(f"edge {{{u!r}, {v!r}}}: endpoints must be nodes in [0, {self.n})")
        if u == v:
            raise DomainError(f"self-loop at node {u}")
        if type(w) is not int or not 1 <= w <= self.max_weight:  # bool is an int subclass
            raise DomainError(
                f"edge weight must be an integer in [1, largest float / 16n], got {describe(w)}")
        if v in self.adj[u]:
            raise DuplicateEdge(f"edge {{{u}, {v}}} already present")
        self.adj[u][v] = w
        self.adj[v][u] = w
        if w > self.W:
            self.W = w

    def has_edge(self, u, v):
        return is_node(u, self.n) and is_node(v, self.n) and v in self.adj[u]

    def weight(self, u, v):
        if not self.has_edge(u, v):
            raise EdgeNotFound(f"edge {{{u}, {v}}} not in graph")
        return self.adj[u][v]

    @property
    def m(self):
        return sum(map(len, self.adj)) // 2

    def edges(self):
        for u, nbrs in enumerate(self.adj):
            for v, w in nbrs.items():
                if u < v:
                    yield u, v, w

    def copy(self):
        g = DynamicGraph(self.n)
        g.adj = [dict(nbrs) for nbrs in self.adj]
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
    if event.kind == DELETE:
        del graph.adj[u][v]
        del graph.adj[v][u]
        new = INF
    else:
        new = event.delta
        if not isinstance(new, int):
            raise MonotonicityViolation(
                f"weight of {{{u}, {v}}} must rise to a finite integer above {old}, got {new!r}"
            )
        if new <= old:
            raise MonotonicityViolation(
                f"weight of {{{u}, {v}}} must strictly increase: {old} -> {describe(new)}"
            )
        if new > graph.max_weight:
            raise DomainError(
                f"weight of {{{u}, {v}}} must rise to at most the largest float / 16n, "
                f"got {describe(new)}"
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


def _ints(lineno, line, fields):
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(lineno, f"non-integer fields in {line!r}") from None


def load_graph(text):
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(1, "missing header line 'n m'") from None
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(lineno, f"expected header 'n m', got {header!r}")
    n, m = _ints(lineno, header, parts)
    if n < 0 or m < 0:
        raise ParseError(lineno, "n and m must be nonnegative")
    g = DynamicGraph(n)
    count = 0
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(lineno, f"expected 'u v w', got {line!r}")
        try:
            g.add_edge(*_ints(lineno, line, parts))
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
            events.append(UpdateEvent(DELETE, *_ints(lineno, line, parts[1:])))
        elif tag == "i" and len(parts) == 4:
            events.append(UpdateEvent(INCREASE, *_ints(lineno, line, parts[1:])))
        elif tag == "q" and len(parts) == 3:
            events.append(QueryCheckpoint(*_ints(lineno, line, parts[1:])))
        else:
            raise ParseError(lineno, f"unrecognized update line {line!r}")
    return events


def dump_updates(events):
    out = []
    for ev in events:
        if isinstance(ev, QueryCheckpoint):
            out.append(f"q {ev.u} {ev.v}")
        elif ev.kind == DELETE:
            out.append(f"d {ev.u} {ev.v}")
        else:
            out.append(f"i {ev.u} {ev.v} {ev.delta}")
    return "\n".join(out) + ("\n" if out else "")


def _check_family(density, max_weight):
    if not (0 < density <= 1):
        raise DomainError(f"density must be in (0, 1], got {density}")
    if max_weight < 1:
        raise DomainError(f"max weight must be at least 1, got {max_weight}")


def gnp_graph(n, density, max_weight, rng):
    """Erdos-Renyi style instance: each pair kept with probability density,
    weights uniform on [1, max_weight].  Deterministic given the rng state.
    A density outside (0, 1] or a max_weight below 1 is a DomainError."""
    _check_family(density, max_weight)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return DynamicGraph(n, edges)


def connected_graph(n, density, max_weight, rng):
    """A random spanning tree, each node of a shuffled order joined to an
    earlier one, plus gnp_graph's draw of every other pair: connected."""
    _check_family(density, max_weight)
    order = list(range(n))
    rng.shuffle(order)
    edges = []
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.append((min(u, v), max(u, v), rng.randint(1, max_weight)))
    present = {(u, v) for u, v, _ in edges}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in present and rng.random() < density:
                edges.append((u, v, rng.randint(1, max_weight)))
    return DynamicGraph(n, edges)


def drain(graph, rng):
    """Every edge of graph deleted once, in an order shuffled by rng."""
    stream = [UpdateEvent(DELETE, u, v) for u, v, _ in graph.edges()]
    rng.shuffle(stream)
    return stream


def churn(graph, rng, max_weight):
    """Rises and deletions about 1:1 until m - m//2 edges are live: a live
    edge below max_weight rises with probability 1/2 to a weight uniform on
    (old, max_weight], and is deleted otherwise.  max_weight = graph.W keeps
    weights within the bound the structures were built for."""
    weight = {(u, v): w for u, v, w in graph.edges()}
    live = sorted(weight)
    target = len(live) - len(live) // 2
    stream = []
    while len(live) > target:
        i = rng.randrange(len(live))
        u, v = live[i]
        if weight[(u, v)] < max_weight and rng.random() < 0.5:
            weight[(u, v)] = rng.randint(weight[(u, v)] + 1, max_weight)
            stream.append(UpdateEvent(INCREASE, u, v, weight[(u, v)]))
        else:
            live[i] = live[-1]
            live.pop()
            stream.append(UpdateEvent(DELETE, u, v))
    return stream


def with_checkpoints(updates, n, rng, every, queries):
    """updates with `queries` QueryCheckpoints after every every-th update
    and the last, each pair drawn uniformly from 0..n-1 by rng."""
    stream = []
    for i, ev in enumerate(updates, start=1):
        stream.append(ev)
        if i % every == 0 or i == len(updates):
            stream.extend(QueryCheckpoint(rng.randrange(n), rng.randrange(n))
                          for _ in range(queries))
    return stream
