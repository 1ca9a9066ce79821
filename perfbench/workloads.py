"""Workload generation, replay loop and correctness gate of the benchmark.

A workload is a fixed recipe (structure, its parameters, graph family and
stream shape) over a fixed panel of instances.  Everything is derived from
the workload name, the instance index and the run's seed, so the same seed
always yields the same graphs, update streams and query batches, and the
structure only ever sees the generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
import traceback
from dataclasses import dataclass, field

from decapsp import oracle
from decapsp.bunches import sample_pivots
from decapsp.cli import RunConfig, bound_for, make_algorithm
from decapsp.graph import DELETE, INCREASE, UpdateEvent, apply_update, gnp_graph
from decapsp.oracle import FLOAT_GUARD

INF = math.inf


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str    # tag understood by decapsp.cli.make_algorithm
    n: int
    density: float
    W: int
    stream: str       # "drain": every edge deleted; "churn": deletes and increases
    instances: int    # size of the fixed panel; figures pool all of it
    pass_s: float     # one timed pass over the panel (builds, replays, checks)
    mem_s: float      # the tracemalloc pass over the first instance
    options: dict = field(default_factory=dict)  # extra RunConfig fields


BATCHES = 8  # query batches spread over the stream, plus one before it
SOURCES = 6  # rows per batch; each row queries one source against all n
             # (rows are drawn by the seed: more rows, less spread between seeds)
ROUNDS = 10  # each batch is asked this often in a row; a query keeps its fastest
             # time (timing ten calls of one query together read more spread
             # in query_p99_us between runs)


# Sizes give each panel over 1000 update calls, so that its p99 has ten
# calls beyond it.  pass_s and mem_s are what one timed pass over the panel
# and the tracemalloc pass cost on a shared 2-core x86 machine at its usual
# speed; run.py turns --seconds into a fixed number of passes with them, so
# every run does the same work however fast the host happens to be.  At 40 s
# a run holds 9 to 14 passes.  mult-churn is defined and runnable by name
# but is not in BENCHMARK.json: four workloads left each run too little
# time to be steady within the benchmark's time limit.
WORKLOADS = {
    w.name: w
    for w in (
        # pivot trees cut off whole components, so the ES-tree level walk
        # up to the depth cap dominates update time and the p99
        Workload("mult-drain", "mult", 36, 0.25, 10, "drain", 7, 4.3, 1.0, {"eps": 0.9}),
        # few pivots give large bunches: the nbr/adj certificate heaps and
        # the rounding of increases dominate; the graph stays connected
        Workload("mult-churn", "mult", 64, 0.25, 10, "churn", 3, 3.8, 5.0,
                 {"eps": 0.9, "p": 0.04}),
        # ~27 heavy nodes are promoted mid-stream and join ~17 pivots, so an
        # update visits up to ~45 trees: the fixed cost per tree call
        # dominates, not the walk
        Workload("mixed-churn", "mixed", 96, 0.25, 10, "churn", 2, 2.8, 3.4,
                 {"eps": 0.9, "tau": 8}),
        # the only user of insert_edge/relax_edge, escape edges and
        # shortcut exports; c = 0.3 keeps all three levels populated
        Workload("additive-drain", "additive", 96, 0.12, 1, "drain", 2, 2.5, 3.1,
                 {"k": 3, "d": 4, "c": 0.3}),
    )
}


@dataclass
class Instance:
    graph: object      # DynamicGraph before any update; never mutated
    updates: list      # UpdateEvent stream
    batches: dict      # update position -> query sources, checked before that update
    config: RunConfig


def drain_stream(graph, rng):
    """Every edge deleted once, in shuffled order."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    rng.shuffle(edges)
    return [UpdateEvent(DELETE, u, v) for u, v in edges]


def churn_stream(graph, rng, W):
    """Deletes and strict increases about 1:1 until half the edges are gone.

    A new weight is uniform in (old, W], so no edge ever exceeds the W the
    structures derived their depth caps from; edges already at W are
    deleted instead.
    """
    weight = {(u, v): w for u, v, w in graph.edges()}
    live = sorted(weight)
    out = []
    for _ in range(len(live) // 2):
        while True:
            i = rng.randrange(len(live))
            u, v = live[i]
            if weight[(u, v)] >= W or rng.random() < 0.5:
                break
            weight[(u, v)] = rng.randint(weight[(u, v)] + 1, W)
            out.append(UpdateEvent(INCREASE, u, v, weight[(u, v)]))
        live[i] = live[-1]
        live.pop()
        out.append(UpdateEvent(DELETE, u, v))
    return out


def build_instance(wl, seed, index):
    """Instance `index` of the workload's fixed panel, queried by `seed`.

    The graph, the structure's own seed and the update stream depend on
    the index only; the seed draws the query rows.  Over five seeds, other
    streams moved mult-churn's update rate by 37% and mixed-churn's peak
    memory by 35% (quartile spread over median), and the pivot placement
    moved one replay's time 1.6x, so a seed-drawn panel could not hold any
    regression bound; a fixed panel leaves only the machine's own noise.
    """
    fixed = random.Random(f"{wl.name}/panel/{index}")
    graph = gnp_graph(wl.n, wl.density, wl.W, fixed)
    algo_seed = fixed.randrange(2**31)
    if "p" in wl.options:
        # few pivots: hold the sampled count at its mean so the panel is typical
        want = round(wl.n * wl.options["p"])
        while len(sample_pivots(wl.n, wl.options["p"], algo_seed)) != want:
            algo_seed = fixed.randrange(2**31)
    config = RunConfig(algorithm=wl.algorithm, graph_path="-", updates_path="-",
                       seed=algo_seed, **wl.options)
    if wl.stream == "drain":
        updates = drain_stream(graph, fixed)
    else:
        updates = churn_stream(graph, fixed, wl.W)

    rng = random.Random(f"{wl.name}/{seed}/{index}")
    every = max(1, len(updates) // BATCHES)
    batches = {
        pos: sorted(rng.sample(range(wl.n), SOURCES))
        for pos in range(0, len(updates) + 1, every)
    }
    batches[len(updates)] = sorted(rng.sample(range(wl.n), SOURCES))
    return Instance(graph, updates, batches, config)


def build_instances(wl, seed):
    return [build_instance(wl, seed, i) for i in range(wl.instances)]


def make_structure(inst):
    """Build the configured structure on a private copy of the graph."""
    return make_algorithm(inst.config, inst.graph.copy())


@dataclass
class Replay:
    """What one pass of a stream through a structure produced."""

    update_s: list = field(default_factory=list)  # seconds per update call
    query_s: list = field(default_factory=list)   # seconds per query call
    answers: list = field(default_factory=list)   # (position, source, [row])
    raised: int = 0    # updates that raised
    unstable: int = 0  # queries whose answer changed when asked again
    counters: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return len(self.update_s) + len(self.query_s)

    @property
    def failed(self):
        return self.raised + self.unstable

    def digest(self):
        """Hash of every answer and the final counters; equal runs of equal
        code must agree on it exactly."""
        blob = json.dumps([repr(self.answers), self.counters], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def replay(inst, algo, tracer=None):
    """Drive the stream through algo's public calls, timing each call."""
    out = Replay()
    perf = time.perf_counter
    n = inst.graph.n
    updates = inst.updates
    for pos in range(len(updates) + 1):
        sources = inst.batches.get(pos)
        if sources:
            if tracer is not None:
                tracer.update_id = -1
            rows = [[None] * n for _ in sources]
            best = [[INF] * n for _ in sources]
            for _ in range(ROUNDS):
                for s, row, fastest in zip(sources, rows, best):
                    for v in range(n):
                        t0 = perf()
                        d = algo.query(s, v)
                        t = perf() - t0
                        if t < fastest[v]:
                            fastest[v] = t
                        if row[v] is None:
                            row[v] = d
                        elif d != row[v]:
                            out.unstable += 1
            for s, row, fastest in zip(sources, rows, best):
                out.query_s += fastest
                out.answers.append((pos, s, row))
        if pos == len(updates):
            break
        ev = updates[pos]
        if tracer is not None:
            tracer.update_id = pos
        t0 = perf()
        try:
            if ev.kind == DELETE:
                algo.delete(ev.u, ev.v)
            else:
                algo.increase(ev.u, ev.v, ev.delta)
        except Exception:  # a failed update is counted, reported, and the stream goes on
            out.update_s.append(perf() - t0)
            if not out.raised:
                traceback.print_exc()
            out.raised += 1
            continue
        out.update_s.append(perf() - t0)
    out.counters = algo.counters()
    return out


@dataclass
class Verdict:
    pairs_checked: int = 0
    violations: int = 0
    problems: list = field(default_factory=list)  # one line per failed check


def check_answers(inst, rep, verdict):
    """Judge every recorded answer against exact distances on a twin graph.

    One Dijkstra per source row; for `mixed` the per-pair bottleneck term
    comes from oracle.bottleneck_weights over those rows.
    """
    bound = bound_for(inst.config)
    twin = inst.graph.copy()
    n = twin.n
    rows = iter(rep.answers)
    applied = 0
    for pos in sorted(inst.batches):
        while applied < pos:
            apply_update(twin, inst.updates[applied])
            applied += 1
        sources = inst.batches[pos]
        dist = {s: oracle.dijkstra(twin.adj, s) for s in sources}
        wmat = None
        if bound.per_pair_bottleneck:
            full = [[INF] * n for _ in range(n)]
            for s in sources:
                full[s] = [dist[s][v] for v in range(n)]
            wmat = oracle.bottleneck_weights(twin, full)
        for s in sources:
            at, src, row = next(rows)
            if (at, src) != (pos, s):
                raise RuntimeError("answer rows out of step with query batches")
            for v in range(n):
                verdict.pairs_checked += 1
                d, dhat = dist[s][v], row[v]
                if d == INF:
                    bad = dhat != INF
                elif dhat < d - FLOAT_GUARD:
                    bad = True
                elif bound.radius is not None and d > bound.radius:
                    bad = False
                else:
                    w_uv = wmat[s][v] if wmat is not None else 0
                    bad = dhat > bound.upper(d, w_uv) + FLOAT_GUARD
                if bad:
                    verdict.violations += 1
                    if verdict.violations <= 5:
                        verdict.problems.append(
                            f"after {pos} updates: query({s}, {v}) = {dhat}, exact {d}")


def check_budgets(wl, counters, verdict):
    """The laziness budgets `decapsp bench` enforces, with its formulas."""
    if wl.algorithm != "mult":
        return
    eps = wl.options["eps"]
    log_bound = math.ceil(math.log(max(wl.n * max(wl.W, 1), 2)) / math.log(1 + eps / 3))
    if counters["bunch_rebuilds_max"] > log_bound + 1:
        verdict.problems.append(
            f"rebuild budget: {counters['bunch_rebuilds_max']} > {log_bound + 1}")
    if counters["nbr_min_changes_max"] > log_bound * log_bound:
        verdict.problems.append(
            f"nbr-min change budget: {counters['nbr_min_changes_max']} > {log_bound ** 2}")
