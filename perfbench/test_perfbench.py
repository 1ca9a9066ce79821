"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracer import HeapCounter, Tracer  # noqa: E402

from decapsp.estree import MonotoneESTree  # noqa: E402
from decapsp.graph import DELETE, apply_update  # noqa: E402
from decapsp.heaps import IndexedHeap  # noqa: E402


def small(name, n=20, instances=2):
    return dataclasses.replace(W.WORKLOADS[name], n=n, instances=instances)


def test_same_seed_same_inputs_other_seed_other_queries():
    wl = small("mult-churn", n=40)
    a, b, c = (W.build_instance(wl, s, 1) for s in (7, 7, 8))
    assert a.updates == b.updates and a.batches == b.batches and a.config == b.config
    assert sorted(a.graph.edges()) == sorted(c.graph.edges()) and a.updates == c.updates
    assert a.batches.keys() == c.batches.keys() and a.batches != c.batches
    assert W.build_instance(wl, 7, 0).updates != a.updates


def test_churn_stream_raises_strictly_within_W_and_deletes_half():
    wl = small("mult-churn", n=40)
    inst = W.build_instance(wl, 3, 0)
    twin = inst.graph.copy()
    m0 = twin.m
    kinds = set()
    for ev in inst.updates:
        kinds.add(ev.kind)
        if ev.kind != DELETE:
            assert twin.adj[ev.u][ev.v] < ev.delta <= wl.W
        apply_update(twin, ev)
    assert len(kinds) == 2
    assert twin.m == m0 - m0 // 2


def test_query_batches_are_whole_rows_at_fixed_intervals():
    wl = small("mult-drain", n=24)
    inst = W.build_instance(wl, 1, 0)
    positions = sorted(inst.batches)
    assert positions[0] == 0 and positions[-1] == len(inst.updates)
    rep = W.replay(inst, W.make_structure(inst))
    assert len(rep.answers) == sum(len(s) for s in inst.batches.values())
    assert all(len(row) == wl.n for _, _, row in rep.answers)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_replays_are_deterministic_and_within_bounds(name):
    wl = small(name, n=24 if name != "additive-drain" else 40)
    inst = W.build_instance(wl, 5, 0)
    first = W.replay(inst, W.make_structure(inst))
    second = W.replay(inst, W.make_structure(inst))
    assert first.digest() == second.digest()
    assert first.counters == second.counters
    assert first.failed == 0
    verdict = W.Verdict()
    W.check_answers(inst, first, verdict)
    W.check_budgets(wl, first.counters, verdict)
    assert verdict.pairs_checked == len(first.query_s)
    assert verdict.violations == 0 and not verdict.problems


def test_gate_counts_answers_outside_the_bound():
    wl = small("mult-drain", n=24)
    inst = W.build_instance(wl, 2, 0)
    rep = W.replay(inst, W.make_structure(inst))
    pos, s, row = rep.answers[0]
    v = next(v for v in range(wl.n) if v != s and row[v] < math.inf)
    row[v] = row[v] * 10
    verdict = W.Verdict()
    W.check_answers(inst, rep, verdict)
    assert verdict.violations == 1 and verdict.problems


def test_a_query_that_changes_its_answer_counts_as_failed():
    wl = small("mult-drain", n=16, instances=1)
    inst = W.build_instance(wl, 1, 0)
    algo = W.make_structure(inst)
    real, calls = algo.query, itertools.count()
    algo.query = lambda u, v: real(u, v) + next(calls)
    rep = W.replay(inst, algo)
    assert rep.unstable > 0 and rep.failed == rep.unstable


def test_gate_enforces_the_bench_budgets():
    verdict = W.Verdict()
    W.check_budgets(W.WORKLOADS["mult-drain"],
                    {"bunch_rebuilds_max": 10**6, "nbr_min_changes_max": 0}, verdict)
    assert len(verdict.problems) == 1


def test_tracer_keeps_answers_and_restores_the_code():
    wl = small("mixed-churn", n=32, instances=1)
    inst = W.build_instance(wl, 1, 0)
    base = W.replay(inst, W.make_structure(inst))
    originals = (MonotoneESTree.delete_edge, IndexedHeap.update)
    tracer = Tracer()
    with tracer:
        algo = W.make_structure(inst)
        tracer.set_structure(algo)
        traced = W.replay(inst, algo, tracer)
        tracer.finish_structure()
    with HeapCounter() as heaps:
        counted = W.replay(inst, W.make_structure(inst))
    assert (MonotoneESTree.delete_edge, IndexedHeap.update) == originals
    assert traced.digest() == base.digest() == counted.digest()
    layers = tracer.layer_metrics()
    assert layers["estree.pivot.calls"] > 0 and layers["bunches.refresh.self_s"] > 0
    assert layers["estree.additive.calls"] == 0 and heaps.ops > 0
    assert (layers["estree.pivot.level_increases"] + layers["estree.heavy.level_increases"]
            == traced.counters["tree_level_increases"])
    assert layers["bunches.rebuilds"] == traced.counters["bunch_rebuilds_total"]
    (instance, uid), wall, parts = tracer.slowest_update()
    assert instance == 0 and uid >= 0 and sum(parts.values()) == pytest.approx(wall, rel=1e-6)


def test_repeated_passes_agree_and_keep_one_time_per_call():
    wl = small("mult-churn", n=24)
    insts = W.build_instances(wl, 4)
    cpus = os.sched_getaffinity(0)
    metrics, facts = run.measure(wl, insts, 2)
    assert os.sched_getaffinity(0) == cpus
    assert facts["failed"] == 0 and not facts["problems"]
    info = facts["info"]
    assert info["passes"] == 2
    assert info["update_calls"] == sum(len(inst.updates) for inst in insts)
    assert facts["attempted"] == 2 * (info["update_calls"] + info["query_calls"])
    assert all(v > 0 for v in metrics.values())
    # past the cap no further pass starts, but the first always runs
    assert run.measure(wl, insts, 3, cap_s=0)[1]["info"]["passes"] == 1


def test_passes_follow_seconds_only():
    wl = W.WORKLOADS["mult-churn"]
    assert run.passes_for(wl, 0.1) == 1
    assert run.passes_for(wl, wl.mem_s + 3.5 * wl.pass_s) == 3


@pytest.mark.parametrize("trace", ["0", "1"])
def test_output_names_every_metric(monkeypatch, capsys, trace):
    monkeypatch.setitem(W.WORKLOADS, "mult-drain", small("mult-drain"))
    code = run.main(["--workload", "mult-drain", "--seed", "3", "--seconds", "0.1",
                     "--trace", trace])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in wanted]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mult-drain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
