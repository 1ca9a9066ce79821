"""Golden `decapsp run` reports on fixed `decapsp generate` workloads, and
the determinism digests of the benchmark's instances.

golden_runs.json holds, for each case below, the run report without its
one timing field, wall_ms.  The churn cases replace the generated deletion
stream with a fixed-seed mix of weight increases and deletions, drawn by
graph.churn and checkpointed by graph.with_checkpoints, the only cases
that reach increase re-rounding and INCREASE bunch events.  A change that
must keep every answer and counter reproduces these reports exactly; a
change that alters a counter on purpose updates its entry and says which
values moved.
"""

import contextlib
import gc
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from decapsp import cli
from decapsp.graph import churn, dump_updates, load_graph, with_checkpoints
from decapsp.rounding import GeometricRounder

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
    # no --tau or --p: the structure derives both from the graph
    "mixed-default": (["--n", "24", "--density", "0.5", "--W", "10", "--seed", "6"],
                      ["--algorithm", "mixed", "--seed", "2"]),
    "exact": (["--n", "24", "--density", "0.3", "--W", "10", "--seed", "7"],
              ["--algorithm", "exact"]),
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


def run_case(name, tmp_path):
    """The report of `decapsp run` for CASES[name], without wall_ms."""
    gen, run = CASES[name]
    gp, up, rp = (str(tmp_path / f"{name}.{ext}") for ext in ("graph", "updates", "json"))
    assert cli.main(["generate", *gen, "--graph", gp, "--updates", up]) == 0
    if name in CHURN:
        g, rng = load_graph(Path(gp).read_text()), random.Random(CHURN[name])
        Path(up).write_text(dump_updates(with_checkpoints(churn(g, rng, g.W), g.n, rng, 5, 3)))
    assert cli.main(["run", "--graph", gp, "--updates", up, "--report", rp, *run]) == 0
    report = json.loads(Path(rp).read_text())
    del report["wall_ms"]
    return report


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_golden_report(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == want


def test_exact_case_verifies_against_the_oracle(tmp_path):
    """The exact entry's answers are checked, not only recorded: verify
    --dense passes at alpha 1 on its workload, and on a churn stream of
    rises and deletions over the same graph."""
    gen, run = CASES["exact"]
    gp, up, churned = (str(tmp_path / name) for name in ("e.graph", "e.updates", "c.updates"))
    assert cli.main(["generate", *gen, "--graph", gp, "--updates", up]) == 0
    g = load_graph(Path(gp).read_text())
    Path(churned).write_text(dump_updates(churn(g, random.Random(14), g.W)))
    for updates in (up, churned):
        assert cli.main(["verify", "--graph", gp, "--updates", updates, "--dense", *run,
                         "--report", str(tmp_path / "verify.json")]) == 0


# workload -> its pinned seed-1 work counts: digests, heaps.ops,
# rounding.exponent.calls and counters summed by name.  BENCH_work.json
# is their one owner.  Level i's additive trees run to depth d + k + i - 2;
# at depth d + 3k for every level additive-drain's counters read 77490 tree
# level increases and 23202 exports, so a return to deeper trees fails here.
WORK = json.loads((Path(__file__).resolve().parent.parent / "BENCH_work.json").read_text())
PINNED = WORK["workloads"]


@contextlib.contextmanager
def counted_exponent_calls():
    """Count GeometricRounder.exponent calls while the block runs, through a
    wrapper put on the class for the block only; yields a one-item list."""
    calls = [0]
    exponent = GeometricRounder.exponent

    def counted(self, delta):
        calls[0] += 1
        return exponent(self, delta)

    GeometricRounder.exponent = counted
    try:
        yield calls
    finally:
        GeometricRounder.exponent = exponent


@pytest.mark.parametrize("name", sorted(PINNED))
def test_benchmark_instances_reproduce_recorded_digests(name):
    """Each benchmark instance's answers and final counters hash to the
    recorded digest, and the panel makes the recorded number of heap
    operations and of rounding calls, and each named counter its recorded
    sum.  Re-record an entry only with a
    change that alters a counter, an answer, the heap traffic or the
    rounding traffic on purpose and says so in CHANGES.md."""
    pinned = PINNED[name]
    insts = workloads.build_instances(workloads.WORKLOADS[name], WORK["seed"])
    heaps = tracer.HeapCounter()
    with heaps, counted_exponent_calls() as rounded:
        runs = [workloads.replay(inst, workloads.make_structure(inst)) for inst in insts]
    # one comparison, so a failure shows every pinned fact that moved
    assert {"digests": [run.digest()[:12] for run in runs], "heaps.ops": heaps.ops,
            "rounding.exponent.calls": rounded[0],
            "counters": {key: sum(run.counters[key] for run in runs)
                         for key in pinned["counters"]}} == pinned


def peak_mb(name):
    """The peak that tracemalloc traces over the build and replay of
    instance 0 of a benchmark workload, the same pass that gives
    `perfbench/run.py` its peak_mem_mb."""
    inst = workloads.build_instances(workloads.WORKLOADS[name], 1)[0]
    gc.collect()
    tracemalloc.start()
    try:
        workloads.replay(inst, workloads.make_structure(inst))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# List-backed levels with offers read live from the lower trees' rows read
# 0.470 MB.  A private offer dict per tree read 0.5426 MB, and one dict per
# tree's levels on top of that 0.909 MB.
ADDITIVE_PEAK_MB = 0.50

# One adjacency heap per pair u < v reads 0.387 MB; a heap for each ordered
# pair, self-pairs included, read 0.467 MB.
MULT_DRAIN_PEAK_MB = 0.42


def test_additive_drain_peak_memory_stays_list_backed():
    """Every additive root owns a tree whose levels span all n nodes and
    reads its offers from the lower trees' rows, so a return to per-tree
    level dicts or to a private copy of the offers fails here, not only in
    the benchmark."""
    assert peak_mb("additive-drain") < ADDITIVE_PEAK_MB


def test_mult_drain_peak_memory_keeps_one_heap_per_pair():
    """Certificate heaps are most of mult-drain's memory, so a return to a
    heap for each ordered pair fails here, not only in the benchmark."""
    assert peak_mb("mult-drain") < MULT_DRAIN_PEAK_MB
