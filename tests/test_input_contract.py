"""One input contract: graph.is_node decides what a node is, and every
structure obeys it.  A query naming anything else is refused with
DomainError before any state is read, a deletion naming it is refused
before the graph changes, and each place that spells the rule inline for
speed accepts and refuses exactly the values is_node does."""

import pytest

from decapsp import cli
from decapsp.estree import TreeFamily
from decapsp.graph import ChangeRecord, DomainError, DynamicGraph, EdgeNotFound, is_node
from decapsp.reduction import UnweightedAPSP

N = 8


class IntSub(int):
    pass


# True, False and 2.0 would stand for nodes 1, 0 and 2 in a range test or a
# dict lookup, -1 would index node N - 1's row, and N is one past the end
HOSTILE = (True, False, 2.0, -1, N, None, "1")
CANDIDATES = HOSTILE + (0, 3, N - 1, 1.5, IntSub(2), 2**70, -(2**70))


def contract_graph():
    """Unit weights on N nodes, node 3 adjacent to every other one, so a
    deletion of {bad, 3} finds an edge wherever bad passes for a node."""
    return DynamicGraph(N, [(u, v, 1) for u in range(N) for v in range(u + 1, N)
                            if 3 in (u, v) or (u + v) % 3 == 1])


def build(tag, graph):
    cfg = cli.RunConfig(algorithm=tag, eps=0.5, tau=3, k=2, d=3, c=0.5, seed=3)
    return cli.make_algorithm(cfg, graph)


def state(algo):
    own = algo.inner.g if isinstance(algo, UnweightedAPSP) else algo.g
    answers = [[algo.query(u, v) for v in range(N)] for u in range(N)]
    return answers, algo.counters(), [dict(row) for row in own.adj], own.version


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_every_structure_refuses_a_hostile_node(tag):
    """query(bad, 3) and query(3, bad) raise DomainError, and delete(bad, 3)
    and delete(3, bad) EdgeNotFound, for a bool, a float, -1, n, None and a
    str; afterwards every answer, counter, adjacency row and the graph's
    version are as they were."""
    algo = build(tag, contract_graph())
    algo.delete(4, 6)
    before = state(algo)
    for bad in HOSTILE:
        for u, v in ((bad, 3), (3, bad)):
            with pytest.raises(DomainError):
                algo.query(u, v)
            with pytest.raises(EdgeNotFound):
                algo.delete(u, v)
    assert state(algo) == before


def refused(call, error):
    """True when call() raises error, False when it returns; anything else
    it raises propagates and fails the test."""
    try:
        call()
    except error:
        return True
    return False


def alias(x):
    """The node whose row x would index in a list (True as 1, -1 as N - 1),
    or None."""
    return x % N if isinstance(x, int) and -N <= x < N else None


def written_rise(x, y):
    """A tree family built on contract_graph, whose adjacency then shows
    the edge between the aliases of x and y at weight 2."""
    g = contract_graph()
    trees = TreeFamily(g.adj, range(N))
    a, b = alias(x), alias(y)
    if a is not None and b is not None:
        g.adj[a][b] = g.adj[b][a] = 2
    return trees


def other_end(x):
    """Node 3, adjacent to every other node, unless x would index as 3."""
    return 0 if alias(x) == 3 else 3


SPELLINGS = {
    "mult.query": lambda x, y: refused(lambda: build("mult", contract_graph()).query(x, y),
                                       DomainError),
    "mixed.query": lambda x, y: refused(lambda: build("mixed", contract_graph()).query(x, y),
                                        DomainError),
    "additive.query": lambda x, y: refused(
        lambda: build("additive", contract_graph()).query(x, y), DomainError),
    "absorb": lambda x, y: refused(
        lambda: written_rise(x, y)[5].absorb((), (x, y, 2, 1)), KeyError),
    "TreeFamily.apply": lambda x, y: refused(
        lambda: written_rise(x, y).apply(ChangeRecord(x, y, 1, 2, 1)), KeyError),
    "has_edge": lambda x, y: not contract_graph().has_edge(x, y),
}


@pytest.mark.parametrize("spelling", sorted(SPELLINGS))
def test_inline_node_tests_agree_with_is_node(spelling):
    """Each place that spells is_node inline refuses a value, as either
    endpoint, exactly when is_node does; the call is otherwise valid, so a
    value wrongly taken for a node would be answered, not refused."""
    check = SPELLINGS[spelling]
    for x in CANDIDATES:
        y = other_end(x)
        want = not is_node(x, N)
        assert (check(x, y), check(y, x)) == (want, want), x


def test_is_node_is_a_plain_int_in_range():
    assert [x for x in CANDIDATES if is_node(x, N)] == [0, 3, N - 1]
    assert not is_node(0, 0)
