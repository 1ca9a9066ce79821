"""One update entry per structure: apply(ev) takes one UpdateEvent, and the
delete/increase pair that graph.Decremental writes once only builds that
event.  Replaying a stream through either gives the same answers and
counters, a structure that takes deletions only refuses a rise before any
change, and perfbench's tracer still bills each update to its layer."""

import random
import sys
from pathlib import Path

import pytest

from decapsp import cli
from decapsp.graph import (DELETE, INCREASE, Decremental, DomainError, UpdateEvent, churn,
                           drain, gnp_graph)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402  (perfbench's, only read)
import workloads  # noqa: E402  (perfbench's, only read)

DELETIONS_ONLY = ("additive", "unweighted-mult")


def build(tag, graph):
    cfg = cli.RunConfig(algorithm=tag, eps=0.5, tau=4, k=2, d=3, c=0.5, seed=3)
    return cli.make_algorithm(cfg, graph.copy())


def graph_and_stream(tag, seed=8):
    """A G(14, .4) graph and the first 24 updates of a stream on it: a
    drain on unit weights for the deletions-only tags, a churn within W 10
    for the others."""
    rng = random.Random(seed)
    g = gnp_graph(14, 0.4, 1 if tag in DELETIONS_ONLY else 10, rng)
    return g, (drain(g, rng) if tag in DELETIONS_ONLY else churn(g, rng, g.W))[:24]


def answers(algo, n):
    return [[algo.query(u, v) for v in range(n)] for u in range(n)]


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_apply_and_delete_increase_give_the_same_run(tag):
    g, stream = graph_and_stream(tag)
    assert any(ev.kind == INCREASE for ev in stream) == (tag not in DELETIONS_ONLY)
    through_apply, through_pair = build(tag, g), build(tag, g)
    for ev in stream:
        through_apply.apply(ev)
        if ev.kind == DELETE:
            through_pair.delete(ev.u, ev.v)
        else:
            through_pair.increase(ev.u, ev.v, ev.delta)
        assert answers(through_apply, g.n) == answers(through_pair, g.n)
    assert through_apply.counters() == through_pair.counters()
    assert through_apply.counters()["updates"] == len(stream)


@pytest.mark.parametrize("tag", DELETIONS_ONLY)
def test_deletions_only_structures_refuse_a_rise_before_any_change(tag):
    g, _ = graph_and_stream(tag)
    algo = build(tag, g)
    own = algo.inner.g if tag == "unweighted-mult" else algo.g
    u, v, w = next(g.edges())
    before = (own.version, own.m, algo.counters())
    with pytest.raises(DomainError, match="deletions"):
        algo.apply(UpdateEvent(INCREASE, u, v, w + 1))
    assert (own.version, own.m, algo.counters()) == before


# workload -> (the structure's layer in the tracer, its tree families)
LAYERS = {"mult-drain": ("apsp_mult", ("pivot",)),
          "mixed-churn": ("apsp_mixed", ("pivot", "heavy")),
          "additive-drain": ("additive", ("additive",))}


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_tracer_bills_updates_through_the_inherited_pair(name):
    """The tracer patches delete/increase on each structure class and
    apply_update in each structure's module; with both inherited from or
    reached through apply, every update is still one top-level span of its
    layer, with self time of its own and of the graph write, and the traced
    run answers as the untraced one.  Uninstalling leaves each class's
    delete and increase the base functions again."""
    inst = workloads.build_instance(workloads.WORKLOADS[name], 1, 0)
    untraced = workloads.replay(inst, workloads.make_structure(inst))
    layer, families = LAYERS[name]
    spans = tracer.Tracer()
    with spans:
        algo = workloads.make_structure(inst)
        spans.set_structure(algo)
        traced = workloads.replay(inst, algo, spans)
        spans.finish_structure()
    assert (traced.failed, untraced.failed) == (0, 0)
    assert traced.digest() == untraced.digest()
    updates = [sp for sp in spans.spans if sp[0] == layer + ".update"]
    assert len(updates) == len(inst.updates)
    assert all(sp[3] is None for sp in updates)
    metrics = spans.layer_metrics()
    assert metrics[layer + ".self_s"] > 0
    assert metrics["graph.apply_update.self_s"] > 0
    for fam in families:
        assert metrics[f"estree.{fam}.calls"] > 0
    for cls, _ in tracer.STRUCTURES:
        assert (cls.delete, cls.increase) == (Decremental.delete, Decremental.increase)
