"""Golden `decapsp run` reports on fixed `decapsp generate` workloads, and
the determinism digests of the benchmark's instances.

golden_runs.json holds, for each case below, the run report without its
one timing field, wall_ms.  The churn cases replace the generated deletion
stream with a fixed-seed mix of weight increases and deletions, the only
cases that reach increase re-rounding and INCREASE bunch events.  A change that must keep every answer and
counter reproduces these reports exactly; a change that alters a counter
on purpose updates its entry and says which values moved.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from decapsp import cli
from decapsp.graph import DELETE, INCREASE, QueryCheckpoint, UpdateEvent, dump_updates, load_graph

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402  (perfbench's, only read)
import workloads  # noqa: E402  (perfbench's, only read)

GOLDEN = Path(__file__).with_name("golden_runs.json")

# name -> (generate arguments, run arguments)
CASES = {
    "mult": (["--n", "24", "--density", "0.3", "--W", "10", "--seed", "5"],
             ["--algorithm", "mult", "--eps", "0.9", "--seed", "1"]),
    "mixed": (["--n", "24", "--density", "0.5", "--W", "10", "--seed", "6"],
              ["--algorithm", "mixed", "--tau", "6", "--seed", "2"]),
    "static-2": (["--n", "24", "--density", "0.3", "--W", "10", "--seed", "7"],
                 ["--algorithm", "static-2"]),
    "additive": (["--n", "24", "--density", "0.25", "--W", "1", "--seed", "8"],
                 ["--algorithm", "additive", "--k", "3", "--d", "4", "--c", "0.3",
                  "--seed", "3"]),
    "unweighted-mult": (["--n", "24", "--density", "0.2", "--W", "1", "--seed", "9"],
                        ["--algorithm", "unweighted-mult", "--eps", "0.5", "--seed", "4"]),
    "mult-churn": (["--n", "24", "--density", "0.3", "--W", "10", "--seed", "10"],
                   ["--algorithm", "mult", "--eps", "0.6", "--seed", "5"]),
    "mixed-churn": (["--n", "24", "--density", "0.5", "--W", "10", "--seed", "11"],
                    ["--algorithm", "mixed", "--tau", "6", "--eps", "0.6", "--seed", "6"]),
}

# name -> seed of the churn stream that replaces the generated updates
CHURN = {"mult-churn": 12, "mixed-churn": 13}


def churn_updates(graph, seed):
    """Increases and deletions about 1:1 until half the edges are gone.

    A new weight is uniform in (old, W], and an edge already at W is deleted
    instead, so weights stay within the bound the structures were built for.
    Three random queries follow every fifth update and the last one.
    """
    rng = random.Random(seed)
    weight = {(u, v): w for u, v, w in graph.edges()}
    live = sorted(weight)
    updates = []
    target = len(live) - len(live) // 2
    while len(live) > target:
        i = rng.randrange(len(live))
        u, v = live[i]
        if weight[(u, v)] < graph.W and rng.random() < 0.5:
            weight[(u, v)] = rng.randint(weight[(u, v)] + 1, graph.W)
            updates.append(UpdateEvent(INCREASE, u, v, weight[(u, v)]))
        else:
            live[i] = live[-1]
            live.pop()
            updates.append(UpdateEvent(DELETE, u, v))
    stream = []
    for i, ev in enumerate(updates, start=1):
        stream.append(ev)
        if i % 5 == 0 or i == len(updates):
            stream.extend(QueryCheckpoint(rng.randrange(graph.n), rng.randrange(graph.n))
                          for _ in range(3))
    return stream


def run_case(name, tmp_path):
    """The report of `decapsp run` for CASES[name], without wall_ms."""
    gen, run = CASES[name]
    gp, up, rp = (str(tmp_path / f"{name}.{ext}") for ext in ("graph", "updates", "json"))
    assert cli.main(["generate", *gen, "--graph", gp, "--updates", up]) == 0
    if name in CHURN:
        stream = churn_updates(load_graph(Path(gp).read_text()), CHURN[name])
        Path(up).write_text(dump_updates(stream))
    assert cli.main(["run", "--graph", gp, "--updates", up, "--report", rp, *run]) == 0
    report = json.loads(Path(rp).read_text())
    del report["wall_ms"]
    return report


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_golden_report(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == want


# workload -> the first 12 hex digits of Replay.digest() for each instance of
# its panel, replayed at seed 1 as `perfbench/run.py --seed 1` prints them
DIGESTS = {
    "mult-drain": ["8eccc4ad359c", "1c6f12fc5b32", "402049fa943b", "4a51751cbb54",
                   "df7fa113ef8c", "2f51096f1e44", "4511e7c7cd89"],
    "mixed-churn": ["d5d6cae65390", "748d166ff5bf"],
    "additive-drain": ["3c548d489ab2", "9137d057a670"],
}

# workload -> IndexedHeap insert/update/delete/pop calls over the build and
# replay of every instance of its panel at seed 1, the heaps.ops that
# `perfbench/run.py --seed 1 --trace 1` prints
HEAP_OPS = {"mult-drain": 20881, "mixed-churn": 4863, "additive-drain": 0}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_benchmark_instances_reproduce_recorded_digests(name):
    """Each benchmark instance's answers and final counters hash to the
    recorded digest, and the panel makes the recorded number of heap
    operations.  Re-record an entry only with a change that alters a
    counter, an answer or the heap traffic on purpose and says so in
    CHANGES.md."""
    insts = workloads.build_instances(workloads.WORKLOADS[name], 1)
    heaps = tracer.HeapCounter()
    with heaps:
        got = [workloads.replay(inst, workloads.make_structure(inst)).digest()[:12]
               for inst in insts]
    assert got == DIGESTS[name]
    assert heaps.ops == HEAP_OPS[name]
