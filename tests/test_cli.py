import importlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import decapsp
from decapsp import cli
from decapsp.bunches import sample_pivots
from decapsp.graph import (
    DELETE, INCREASE, ConfigError, DomainError, DynamicGraph, QueryCheckpoint, UpdateEvent,
    dump_updates, gnp_graph, load_graph, parse_updates)
from decapsp.oracle import sweep


def generate(tmp_path, prefix="w", n=12, density=0.5, W=10, seed=3, extra=()):
    gp = str(tmp_path / f"{prefix}.graph")
    up = str(tmp_path / f"{prefix}.updates")
    rc = cli.main([
        "generate", "--n", str(n), "--density", str(density), "--W", str(W),
        "--seed", str(seed), "--graph", gp, "--updates", up, *extra,
    ])
    assert rc == 0
    return gp, up


def test_generate_complete_unit_graph(tmp_path):
    gp, up = generate(tmp_path, n=8, density=1.0, W=1)
    g = load_graph(open(gp).read())
    assert g.n == 8 and g.m == 28
    assert all(w == 1 for _, _, w in g.edges())
    events = parse_updates(open(up).read())
    deletions = [e for e in events if isinstance(e, UpdateEvent)]
    checkpoints = [e for e in events if isinstance(e, QueryCheckpoint)]
    assert len(deletions) == 28
    assert all(e.kind == DELETE for e in deletions)
    assert checkpoints
    # stream ends on a checkpoint block so the final state is always queried
    assert isinstance(events[-1], QueryCheckpoint)


def test_generate_deterministic(tmp_path):
    gp1, up1 = generate(tmp_path, prefix="a", seed=7)
    gp2, up2 = generate(tmp_path, prefix="b", seed=7)
    gp3, up3 = generate(tmp_path, prefix="c", seed=8)
    assert open(gp1).read() == open(gp2).read()
    assert open(up1).read() == open(up2).read()
    assert open(gp1).read() != open(gp3).read()


@pytest.mark.parametrize("flag, value", [
    ("--checkpoint-every", "0"), ("--checkpoint-every", "-3"), ("--checkpoint-queries", "-1")])
def test_generate_refuses_bad_checkpoint_flags_before_writing(tmp_path, capsys, flag, value):
    gp, up = tmp_path / "g.graph", tmp_path / "g.updates"
    rc = cli.main(["generate", "--n", "8", "--density", "0.5", "--graph", str(gp),
                   "--updates", str(up), flag, value])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not gp.exists() and not up.exists()


def test_generate_fraction_takes_a_prefix_of_the_full_drain(tmp_path, capsys):
    """--fraction 0.5 deletes the first ceil(m/2) edges of the --fraction 1
    stream and ends on a checkpoint batch; a fraction outside (0, 1] is
    refused before any file is written."""
    deletions = {}
    for fraction in ("1", "0.5"):
        gp, up = generate(tmp_path, prefix=fraction, extra=("--fraction", fraction))
        stream = parse_updates(open(up).read())
        assert isinstance(stream[-1], QueryCheckpoint)
        deletions[fraction] = [ev for ev in stream if isinstance(ev, UpdateEvent)]
    m = load_graph(open(gp).read()).m
    assert len(deletions["1"]) == m and deletions["0.5"] == deletions["1"][:math.ceil(m / 2)]
    for fraction in ("0", "1.5"):
        gp, up = tmp_path / "x.graph", tmp_path / "x.updates"
        rc = cli.main(["generate", "--n", "8", "--density", "0.5", "--fraction", fraction,
                       "--graph", str(gp), "--updates", str(up)])
        assert rc == 2 and "fraction" in capsys.readouterr().err
        assert not gp.exists() and not up.exists()


def test_generate_without_checkpoint_queries(tmp_path):
    _, up = generate(tmp_path, extra=("--checkpoint-queries", "0"))
    events = parse_updates(open(up).read())
    assert events and not any(isinstance(e, QueryCheckpoint) for e in events)


def assert_one_error_line(capsys, rc, message):
    """A refused input ends the command with exit status 2 and one line on
    stderr, "error: " and the refusal's message, with nothing on stdout."""
    out, err = capsys.readouterr()
    assert rc == 2
    assert err == f"error: {message}\n" and not out


def test_run_refuses_a_nan_tau(tmp_path, capsys):
    gp, up = generate(tmp_path)
    capsys.readouterr()
    rc = cli.main(["run", "--graph", gp, "--updates", up, "--algorithm", "mixed", "--tau", "nan"])
    assert_one_error_line(capsys, rc, "tau must be a threshold of at least 1, got nan")


PATH_GRAPH = "4 3\n0 1 1\n1 2 1\n2 3 1\n"


@pytest.mark.parametrize("graph, updates, flags, message", [
    (PATH_GRAPH, "d 0 1\n", ["--eps", "0"], "eps must be positive, got 0.0"),
    ("4 1\n0 1 x\n", "d 0 1\n", [], "line 2: non-integer fields in '0 1 x'"),
    (PATH_GRAPH, "d 0 1\nd 0 2\n", [], "edge {0, 2} not in graph"),
    (PATH_GRAPH, "i 0 1 1\n", [],
     "weight of {0, 1} must strictly increase: 1 -> 1"),
    (None, "d 0 1\n", [], "[Errno 2] No such file or directory: 'GRAPH'"),
    (PATH_GRAPH, "q 9 9\n", [], "query (9, 9) outside the nodes [0, 4)"),
    (PATH_GRAPH, "d 0 x\n", [], "line 1: non-integer fields in 'd 0 x'"),
    (PATH_GRAPH, "i 0 1 x\n", [], "line 1: non-integer fields in 'i 0 1 x'"),
    (PATH_GRAPH, "q x 1\n", [], "line 1: non-integer fields in 'q x 1'"),
    (PATH_GRAPH, "d 0 1\n", ["--p", "1.5"], "sampling probability must be in [0, 1], got 1.5"),
    (f"2 1\n0 1 {10**309}\n", "d 0 1\n", [],
     "line 2: edge weight must be an integer in [1, largest float / 16n], "
     "got an integer of 1027 bits"),
], ids=["zero-eps", "bad-graph-line", "missing-edge", "weight-not-rising", "missing-file",
        "query-node-out-of-range", "bad-delete-line", "bad-rise-line", "bad-query-line",
        "p-above-1", "weight-above-largest-float"])
def test_run_refuses_bad_input_with_one_error_line(tmp_path, capsys, graph, updates, flags,
                                                   message):
    gp, up = tmp_path / "w.graph", tmp_path / "w.updates"
    if graph is not None:
        gp.write_text(graph)
    up.write_text(updates)
    rc = cli.main(["run", "--graph", str(gp), "--updates", str(up), "--algorithm", "mult",
                   *flags])
    assert_one_error_line(capsys, rc, message.replace("GRAPH", str(gp)))


def test_run_refuses_additive_on_an_empty_graph(tmp_path, capsys):
    gp, up = tmp_path / "w.graph", tmp_path / "w.updates"
    gp.write_text("0 0\n")
    up.write_text("")
    rc = cli.main(["run", "--graph", str(gp), "--updates", str(up), "--algorithm", "additive",
                   "--k", "2", "--d", "3"])
    assert_one_error_line(capsys, rc, "need at least two nodes")


def run_report(tmp_path, gp, up, name, argv):
    rp = str(tmp_path / name)
    rc = cli.main(["run", "--graph", gp, "--updates", up, "--report", rp, *argv])
    assert rc == 0
    return json.load(open(rp))


def test_run_report_shape_and_determinism(tmp_path):
    gp, up = generate(tmp_path, n=12, density=0.5, W=10, seed=3)
    argv = ["--algorithm", "mult", "--eps", "0.9", "--seed", "1"]
    rep1 = run_report(tmp_path, gp, up, "r1.json", argv)
    rep2 = run_report(tmp_path, gp, up, "r2.json", argv)
    assert rep1["schema"] == 2
    assert rep1["algorithm"] == "mult"
    assert rep1["n"] == 12
    assert rep1["checkpoints"] == len(rep1["answers"])
    assert rep1["counters"]["updates"] == rep1["m0"]
    for u, v, est in rep1["answers"]:
        assert est == "inf" or est >= 0
    rep1.pop("wall_ms")
    rep2.pop("wall_ms")
    assert rep1 == rep2


def test_run_every_algorithm(tmp_path):
    weighted = generate(tmp_path, prefix="wt", n=10, density=0.5, W=5, seed=2)
    unit = generate(tmp_path, prefix="un", n=12, density=0.4, W=1, seed=2)
    cases = [
        (weighted, ["--algorithm", "mult"]),
        (weighted, ["--algorithm", "mixed", "--tau", "3"]),
        (weighted, ["--algorithm", "exact"]),
        (unit, ["--algorithm", "unweighted-mult", "--eps", "0.5"]),
        (unit, ["--algorithm", "additive", "--k", "2", "--d", "4"]),
    ]
    for i, ((gp, up), argv) in enumerate(cases):
        rep = run_report(tmp_path, gp, up, f"algo{i}.json", argv)
        assert rep["checkpoints"] > 0


def test_structures_derive_p_and_tau_that_no_flag_gives():
    """make_algorithm passes an absent --p and --tau on as None.  mult then
    samples its pivots at min(1, sqrt(n / m)), mixed at m^(-1/4) with tau
    floor(sqrt(m)), and unweighted-mult's inner MixedAPSP does the same on
    the subdivided graph: p = (2m)^(-1/4) over its n + m nodes."""
    weighted = gnp_graph(40, 0.2, 10, random.Random(5))
    unit = gnp_graph(40, 0.2, 1, random.Random(5))
    m = weighted.m
    algo = cli.make_algorithm(cli.RunConfig("mult", seed=7), weighted.copy())
    assert list(algo.engine.trees) == sample_pivots(40, min(1.0, math.sqrt(40 / m)), 7)
    algo = cli.make_algorithm(cli.RunConfig("mixed", seed=7), weighted.copy())
    assert algo.tau == max(1, int(math.sqrt(m)))
    assert list(algo.engine.trees) == sample_pivots(40, m ** -0.25, 7)
    m = unit.m
    inner = cli.make_algorithm(cli.RunConfig("unweighted-mult", seed=7), unit).inner
    assert (inner.g.n, inner.g.m) == (40 + m, 2 * m)
    assert inner.tau == max(1, int(math.sqrt(2 * m)))
    assert list(inner.engine.trees) == sample_pivots(40 + m, (2 * m) ** -0.25, 7)


def test_missing_required_flags(tmp_path):
    gp = tmp_path / "t.graph"
    up = tmp_path / "t.updates"
    gp.write_text("2 1\n0 1 1\n")
    up.write_text("d 0 1\nq 0 1\n")
    base = ["run", "--graph", str(gp), "--updates", str(up)]
    assert cli.main(base + ["--algorithm", "additive", "--k", "2"]) == 2
    assert cli.main(base + ["--algorithm", "additive", "--d", "4"]) == 2


def test_verify_passes_within_guarantee(tmp_path):
    gp, up = generate(tmp_path, n=10, density=0.5, W=6, seed=5)
    rp = str(tmp_path / "verify.json")
    rc = cli.main(["verify", "--graph", gp, "--updates", up,
                   "--algorithm", "mult", "--eps", "0.9", "--report", rp])
    assert rc == 0
    rep = json.load(open(rp))
    assert rep["ok"] is True
    assert rep["pairs_checked"] > 0
    assert rep["bound"]["alpha"] == 2.9


@pytest.mark.parametrize("algorithm, W, flags", [
    ("mult", 10, []), ("mixed", 10, ["--tau", "4"]), ("additive", 1, ["--k", "2", "--d", "4"]),
    ("mixed", 10, []), ("unweighted-mult", 1, []),
], ids=["mult", "mixed", "additive", "mixed-default", "unweighted-mult"])
def test_verify_seed_loop_reports_worst_stretch(tmp_path, algorithm, W, flags):
    """The README's seed loop: generate, then verify --dense.  Each report
    checks the start and every deletion, and its max_ratio and max_slack are
    the worst over its checkpoints."""
    for seed in range(2):
        gp, up = generate(tmp_path, prefix=f"s{seed}", n=12, W=W, seed=seed)
        rp = str(tmp_path / f"s{seed}.json")
        rc = cli.main(["verify", "--graph", gp, "--updates", up, "--dense",
                       "--algorithm", algorithm, *flags, "--seed", str(seed + 1000),
                       "--report", rp])
        rep = json.load(open(rp))
        assert rc == 0 and rep["ok"] is True
        checkpoints = rep["checkpoints"]
        assert len(checkpoints) == 1 + sum(1 for line in open(up) if line[0] == "d")
        assert rep["max_ratio"] == max(c["max_ratio"] for c in checkpoints) >= 1
        slacks = [c["max_slack"] for c in checkpoints if c["max_slack"] is not None]
        assert rep["max_slack"] == max(slacks) >= 0


@pytest.mark.parametrize("algorithm, flags", [("mult", []), ("mixed", ["--tau", "3"])],
                         ids=["mult", "mixed"])
def test_verify_passes_after_weights_rise_far_above_W(tmp_path, algorithm, flags):
    """W bounds the weights at construction only: with 8 edges of a W = 5
    instance raised to 940 before its deletions, every connected pair still
    gets a finite answer within the bound.  Pivot and heavy trees capped at
    (2 + eps)(n - 1)W answered inf for pairs whose distance rose past it."""
    gp, up = generate(tmp_path, n=12, density=0.4, W=5, seed=1)
    rises = [UpdateEvent(INCREASE, u, v, 940)
             for u, v, _ in sorted(load_graph(open(gp).read()).edges())[:8]]
    stream = rises + [QueryCheckpoint(0, 1)] + parse_updates(open(up).read())
    Path(up).write_text(dump_updates(stream))
    rp = str(tmp_path / "above.json")
    rc = cli.main(["verify", "--graph", gp, "--updates", up, "--algorithm", algorithm,
                   *flags, "--report", rp])
    rep = json.load(open(rp))
    assert rc == 0 and rep["ok"] is True
    assert rep["pairs_checked"] > 0


@pytest.mark.parametrize("algorithm, flags", [("mult", []), ("mixed", ["--tau", "3"])],
                         ids=["mult", "mixed"])
def test_verify_passes_with_an_eps_near_the_float_limit(tmp_path, algorithm, flags):
    """No tree depth is derived from eps, so eps = 1e308 builds, replays and
    verifies instead of overflowing in a cap formula."""
    gp, up = generate(tmp_path, n=12, density=0.4, W=5, seed=1)
    rc = cli.main(["verify", "--graph", gp, "--updates", up, "--algorithm", algorithm,
                   *flags, "--eps", "1e308", "--report", str(tmp_path / "eps.json")])
    assert rc == 0


def test_verify_flags_probe_violation(tmp_path):
    # alpha 0.5 is below 1, so any finite answer on a connected pair trips it
    gp, up = generate(tmp_path, n=6, density=1.0, W=4, seed=1)
    rp = str(tmp_path / "bad.json")
    rc = cli.main(["verify", "--graph", gp, "--updates", up,
                   "--algorithm", "exact", "--alpha", "0.5", "--report", rp])
    assert rc == 1
    rep = json.load(open(rp))
    assert rep["ok"] is False
    assert any(c["violations"] for c in rep["checkpoints"])


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "nan"], "--alpha must be finite, got nan"),
    (["--alpha", "0.5", "--beta", "nan"], "--beta must be finite, got nan"),
    (["--alpha", "inf"], "--alpha must be finite, got inf"),
    (["--alpha", "0.5", "--beta", "inf"], "--beta must be finite, got inf"),
], ids=["nan-alpha", "nan-beta", "inf-alpha", "inf-beta"])
def test_verify_refuses_a_probe_that_is_not_finite(tmp_path, capsys, flags, message):
    """Every `dhat > alpha * d + beta` test is false for a nan or inf target,
    so such a probe would pass any answer; with alpha 0.5 this workload
    has violations."""
    gp, up = generate(tmp_path, n=6, density=1.0, W=4, seed=1)
    capsys.readouterr()
    rc = cli.main(["verify", "--graph", gp, "--updates", up, "--algorithm", "exact",
                   *flags])
    assert_one_error_line(capsys, rc, message)


def test_bench_csv_and_counter_assertions(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = cli.main(["bench", "--sizes", "12,16", "--density", "0.4",
                   "--W", "6", "--seed", "4", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("n,m,wall_ms,build_ms,updates")
    assert len(lines) == 3
    header = lines[0].split(",")
    for line, n in zip(lines[1:], (12, 16)):
        fields = line.split(",")
        assert len(fields) == len(header)
        row = dict(zip(header, fields))
        assert int(row["n"]) == n
        assert int(row["m"]) == int(row["updates"])
        # the budgets are the engine's own, for the instance the row ran
        g = gnp_graph(n, 0.4, 6, random.Random(4))
        bound = decapsp.BunchEngine(g, 0.5, 0.9, 5).rebuild_bound()
        assert int(row["rebuild_bound"]) == bound
        assert int(row["nbr_change_bound"]) == (bound - 1) ** 2


# algorithm -> (extra flags, counter columns of its bench rows)
BENCH_COLUMNS = {
    "mult": ([], ["updates", "searches", "bunch_rebuilds_max", "bunch_rebuilds_total",
                  "nbr_min_changes_max", "nbr_min_changes_total", "nbr_pairs_live",
                  "adj_pairs_live", "tree_level_increases",
                  "rebuild_bound", "nbr_change_bound"]),
    "mixed": (["--tau", "4"], ["updates", "searches", "bunch_rebuilds_max",
                               "bunch_rebuilds_total", "promotions", "overlap_touches",
                               "overlap_pairs_live", "tree_level_increases"]),
    "additive": (["--k", "2", "--d", "4", "--W", "1"],
                 ["updates", "estar_added", "neighbor_scans", "exports_applied",
                  "tree_level_increases"]),
    "exact": ([], ["updates", "tree_level_increases"]),
}


@pytest.mark.parametrize("algorithm", sorted(BENCH_COLUMNS))
def test_bench_header(capsys, algorithm):
    flags, columns = BENCH_COLUMNS[algorithm]
    rc = cli.main(["bench", "--algorithm", algorithm, "--sizes", "12,16", *flags])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(["n", "m", "wall_ms", "build_ms", *columns])
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [row["n"] for row in rows] == ["12", "16"]
    # every structure, the exact baseline included, applies all m deletions
    assert all(row["updates"] == row["m"] for row in rows)


@pytest.mark.parametrize("algorithm, flags, missing", [
    ("additive", ["--W", "1"], "--k and --d"),
    ("additive", ["--W", "1", "--k", "2"], "--d"),
    ("additive", ["--W", "1", "--d", "4"], "--k"),
], ids=["k-and-d", "d", "k"])
def test_bench_refuses_a_missing_required_flag(tmp_path, capsys, algorithm, flags, missing):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--algorithm", algorithm, "--sizes", "12", "--out", str(out),
                   *flags])
    assert_one_error_line(capsys, rc, f"algorithm {algorithm!r} requires {missing}")
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["additive", "unweighted-mult"])
def test_bench_refuses_weighted_input_for_a_unit_weight_algorithm(tmp_path, capsys, algorithm):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--algorithm", algorithm, "--k", "2", "--d", "4",
                   "--W", "10", "--sizes", "12", "--out", str(out)])
    # the first edge of the seed-0 instance whose weight is not 1
    assert_one_error_line(capsys, rc, "edge {2, 7} has weight 7; expected unweighted input")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--sizes", "12", "--W", "0"], "max weight must be at least 1, got 0"),
    (["--sizes", "x"], "--sizes takes comma separated positive node counts, got 'x'"),
    (["--sizes", "12", "--density", "1.5"], "density must be in (0, 1], got 1.5"),
    (["--algorithm", "additive", "--W", "1", "--k", "2", "--d", "4", "--c", "-1",
      "--sizes", "12"], "sampling constant c must be a positive finite number, got -1.0"),
    (["--algorithm", "additive", "--W", "1", "--k", "2", "--d", "4", "--c", "nan",
      "--sizes", "12"], "sampling constant c must be a positive finite number, got nan"),
], ids=["zero-W", "sizes-not-integers", "density-above-1", "negative-c", "nan-c"])
def test_bench_refuses_a_bad_workload_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "bench.csv"
    rc = cli.main(["bench", "--out", str(out), *flags])
    assert_one_error_line(capsys, rc, message)
    assert not out.exists()


def test_generate_refuses_a_zero_max_weight(tmp_path, capsys):
    gp, up = tmp_path / "g.graph", tmp_path / "g.updates"
    rc = cli.main(["generate", "--n", "8", "--density", "0.5", "--W", "0",
                   "--graph", str(gp), "--updates", str(up)])
    assert_one_error_line(capsys, rc, "max weight must be at least 1, got 0")
    assert not gp.exists() and not up.exists()


def _declared_entry_point():
    """The `decapsp` target from pyproject.toml's [project.scripts]."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["decapsp"]
    module, _, func = target.partition(":")
    assert module and func.isidentifier(), target
    assert callable(getattr(importlib.import_module(module), func))
    return module, func


def _child_env():
    """The environment for a child process that must import the decapsp
    under test, not another copy."""
    src = str(Path(decapsp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_console_script(tmp_path):
    # Launch the declared entry point in a fresh process the way the wrapper
    # pip generates for [project.scripts] does, so no install is needed.
    module, func = _declared_entry_point()
    exe = [sys.executable, "-c",
           f"import sys; from {module} import {func}; sys.exit({func}())"]
    env = _child_env()
    gp = str(tmp_path / "s.graph")
    up = str(tmp_path / "s.updates")
    subprocess.run([*exe, "generate", "--n", "6", "--density", "1.0",
                    "--graph", gp, "--updates", up], check=True, env=env)
    proc = subprocess.run([*exe, "run", "--graph", gp, "--updates", up,
                           "--algorithm", "exact"],
                          check=True, capture_output=True, env=env)
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 2
    # the README's fallback form must run without runpy's double-import warning
    proc = subprocess.run(
        [sys.executable, "-m", "decapsp.cli", "generate", "--n", "6",
         "--density", "1.0", "--graph", str(tmp_path / "m.graph"),
         "--updates", str(tmp_path / "m.updates")],
        check=True, capture_output=True, text=True, env=env)
    assert "RuntimeWarning" not in proc.stderr


def test_run_refuses_an_eps_too_small_to_round_with(tmp_path):
    """eps = 3e-16 gives the bunches eps / 3, and 1.0 + 1e-16 == 1.0, so no
    rounding ladder could climb: the run ends with exit status 2 and one
    error line, which names the eps given on the command line.  The child runs under a time and an address-space limit, so
    a ladder that grew without end fails the test instead of hanging it."""
    resource = pytest.importorskip("resource")
    gp, up = generate(tmp_path)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "decapsp.cli", "run", "--graph", gp, "--updates", up,
         "--algorithm", "mult", "--eps", "3e-16"],
        capture_output=True, text=True, env=_child_env(), timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr == "error: eps must be finite with 1 + eps / 3 > 1, got 3e-16\n"


def test_run_refuses_a_rise_above_the_largest_float(tmp_path):
    """No rung of the rounding ladder reaches a weight of 10^309, so the
    graph refuses the rise before any change: the run ends with exit status
    2 and one error line, which names the weight by its bit length.  The
    child runs under a time and an address-space limit, so a ladder that
    grew without end fails the test instead of hanging it."""
    resource = pytest.importorskip("resource")
    gp, up = tmp_path / "big.graph", tmp_path / "big.updates"
    gp.write_text("3 2\n0 1 1\n1 2 1\n")
    up.write_text(f"i 0 1 {10**309}\nq 0 2\n")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "decapsp.cli", "run", "--graph", str(gp), "--updates", str(up),
         "--algorithm", "mult"],
        capture_output=True, text=True, env=_child_env(), timeout=60, preexec_fn=limit_memory)
    assert proc.returncode == 2 and not proc.stdout
    assert proc.stderr.startswith(
        "error: weight of {0, 1} must rise to at most the largest float / 16n, "
        "got an integer of 1027 bits")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(shutil.which("decapsp") is None,
                    reason="decapsp console script not installed (pip install -e .)")
def test_installed_console_script(tmp_path):
    exe = shutil.which("decapsp")
    assert exe is not None
    gp = str(tmp_path / "s.graph")
    up = str(tmp_path / "s.updates")
    subprocess.run([exe, "generate", "--n", "6", "--density", "1.0",
                    "--graph", gp, "--updates", up], check=True)
    proc = subprocess.run([exe, "run", "--graph", gp, "--updates", up,
                           "--algorithm", "exact"], check=True, capture_output=True)
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 2


def test_an_unknown_or_incomplete_structure_is_refused_by_build_and_bound():
    """make_algorithm and bound_for read one table, so both refuse an unknown
    tag, and additive missing --k or --d, with the same ConfigError;
    bound_for returned the exact bound for an unknown tag."""
    for cfg, message in ((cli.RunConfig("nope"), "unknown algorithm 'nope'; choose from "
                          "mult, mixed, unweighted-mult, additive, exact"),
                         (cli.RunConfig("additive", k=3), "algorithm 'additive' requires --d")):
        with pytest.raises(ConfigError) as built:
            cli.make_algorithm(cfg, DynamicGraph(4))
        with pytest.raises(ConfigError) as bounded:
            cli.bound_for(cfg)
        assert str(built.value) == str(bounded.value) == message


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_out_of_range_queries_raise_domain_error(tag):
    """Every structure refuses a node outside [0, n) with DomainError, a
    negative one and a pair of equal ones included, instead of reading
    another node's entry or answering 0."""
    n = 24
    graph = gnp_graph(n, 0.3, 1 if tag in ("additive", "unweighted-mult") else 10,
                      random.Random(5))
    cfg = cli.RunConfig(tag, "", "", tau=6, k=3, d=4, c=0.3, seed=1)
    algo = cli.make_algorithm(cfg, graph)
    for u, v in ((-1, 3), (3, -1), (-n, 3), (n, 3), (-1, -1), (n, n), (99, 99)):
        with pytest.raises(DomainError):
            algo.query(u, v)
    assert algo.query(3, 3) == 0


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_a_weight_whose_sums_could_leave_the_float_range_is_refused(tag):
    """On weights 10^308, 10^308 and 1, mult's build raised KeyError (two
    ladder values summed to inf) and mixed's delete(0, 2) raised DomainError
    after the graph changed (the distance 2 * 10^308).  The graph refuses
    such a weight, at construction and on a rise, before any change.  At
    max_weight, the largest weight it takes, each structure that takes
    weights builds, refuses a rise past it with the graph as it was, then
    rises to it and deletes {0, 2}, answering within its bound after every
    update; a unit-weight one refuses the graph."""
    with pytest.raises(DomainError):
        DynamicGraph(3, [(0, 1, 10**308), (1, 2, 10**308), (0, 2, 1)])
    top = int(DynamicGraph(3).max_weight)
    g = DynamicGraph(3, [(0, 1, top), (1, 2, 1), (0, 2, 1)])
    cfg = cli.RunConfig(tag, "", "", p=0.0, tau=1, k=2, d=2, seed=1)
    if tag in ("additive", "unweighted-mult"):
        with pytest.raises(DomainError):
            cli.make_algorithm(cfg, g)
        return
    algo = cli.make_algorithm(cfg, g.copy())
    with pytest.raises(DomainError):
        algo.increase(1, 2, top + 1)
    assert algo.g.adj == g.adj and algo.g.version == 0
    updates = [UpdateEvent(INCREASE, 1, 2, top), UpdateEvent(DELETE, 0, 2)]
    report = sweep(algo, g, updates, cli.bound_for(cfg), dense=True)
    assert report.ok and 2 * top <= algo.query(0, 2) < math.inf


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_an_invalid_update_is_refused_before_any_change(tag):
    """Every structure refuses a non-edge, a node outside [0, n), and a
    rise to the same, a lower, a non-integer, a nan or an inf weight (a rise
    to inf is not a deletion) or to one above the largest float; additive
    and unweighted-mult refuse any rise.
    Each refusal raises and leaves the counters, every answer and the graph
    as they were."""
    n = 24
    unit = tag in ("additive", "unweighted-mult")
    graph = gnp_graph(n, 0.3, 1 if unit else 10, random.Random(5))
    cfg = cli.RunConfig(tag, "", "", tau=6, k=3, d=4, c=0.3, seed=1)
    algo = cli.make_algorithm(cfg, graph)
    owned = algo.inner.g if tag == "unweighted-mult" else graph  # the graph it updates
    u, v, w = next(graph.edges())
    a = next(x for x in range(1, n) if not graph.has_edge(0, x))
    bad = [("delete", (0, a)), ("increase", (0, a, 5)),
           ("delete", (-1, u)), ("delete", (u, n)), ("increase", (-1, u, 5)),
           ("increase", (u, n, 5)),
           ("increase", (u, v, w)), ("increase", (u, v, w - 1)),
           ("increase", (u, v, w + 0.5)), ("increase", (u, v, math.nan)),
           ("increase", (u, v, math.inf)), ("increase", (u, v, 10**309))]
    if unit:
        bad.append(("increase", (u, v, w + 1)))

    def state():
        return ([dict(nb) for nb in graph.adj], [dict(nb) for nb in owned.adj], owned.version,
                algo.counters(), [[algo.query(x, y) for y in range(n)] for x in range(n)])

    before = state()
    for op, args in bad:
        with pytest.raises((KeyError, ValueError)):
            getattr(algo, op)(*args)
        assert state() == before, (op, args)
