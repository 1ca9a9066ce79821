import importlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import decapsp
from decapsp import cli
from decapsp.graph import (
    DELETE, DomainError, QueryCheckpoint, UpdateEvent, gnp_workload, load_graph, parse_updates)


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


def test_generate_without_checkpoint_queries(tmp_path):
    _, up = generate(tmp_path, extra=("--checkpoint-queries", "0"))
    events = parse_updates(open(up).read())
    assert events and not any(isinstance(e, QueryCheckpoint) for e in events)


def test_run_refuses_a_nan_tau(tmp_path):
    gp, up = generate(tmp_path)
    with pytest.raises(DomainError):
        cli.main(["run", "--graph", gp, "--updates", up, "--algorithm", "mixed", "--tau", "nan"])


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
    assert rep1["schema"] == 1
    assert rep1["algorithm"] == "mult"
    assert rep1["n"] == 12
    assert rep1["updates_applied"] == rep1["m0"]
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
        (weighted, ["--algorithm", "static-2"]),
        (unit, ["--algorithm", "unweighted-mult", "--eps", "0.5"]),
        (unit, ["--algorithm", "additive", "--k", "2", "--d", "4"]),
    ]
    for i, ((gp, up), argv) in enumerate(cases):
        rep = run_report(tmp_path, gp, up, f"algo{i}.json", argv)
        assert rep["checkpoints"] > 0


def test_missing_required_flags(tmp_path):
    gp = tmp_path / "t.graph"
    up = tmp_path / "t.updates"
    gp.write_text("2 1\n0 1 1\n")
    up.write_text("d 0 1\nq 0 1\n")
    base = ["run", "--graph", str(gp), "--updates", str(up)]
    assert cli.main(base + ["--algorithm", "mixed"]) == 2
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


def test_verify_flags_probe_violation(tmp_path):
    # alpha 0.5 is below 1, so any finite answer on a connected pair trips it
    gp, up = generate(tmp_path, n=6, density=1.0, W=4, seed=1)
    rp = str(tmp_path / "bad.json")
    rc = cli.main(["verify", "--graph", gp, "--updates", up,
                   "--algorithm", "static-2", "--alpha", "0.5", "--report", rp])
    assert rc == 1
    rep = json.load(open(rp))
    assert rep["ok"] is False
    assert any(c["violations"] for c in rep["checkpoints"])


def test_bench_csv_and_counter_assertions(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = cli.main(["bench", "--sizes", "12,16", "--density", "0.4",
                   "--W", "6", "--seed", "4", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("n,m,updates,wall_ms")
    assert len(lines) == 3
    header = lines[0].split(",")
    for line, n in zip(lines[1:], (12, 16)):
        fields = line.split(",")
        assert len(fields) == len(header)
        assert int(fields[0]) == n
        assert int(fields[1]) == int(fields[2])
        # the budgets are the engine's own, for the instance the row ran
        g, _ = gnp_workload(n, 0.4, 6, random.Random(4))
        bound = decapsp.BunchEngine(g, 0.5, 0.9, 5).rebuild_bound()
        row = dict(zip(header, fields))
        assert int(row["rebuild_bound"]) == bound
        assert int(row["nbr_change_bound"]) == (bound - 1) ** 2


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


def test_console_script(tmp_path):
    # Launch the declared entry point in a fresh process the way the wrapper
    # pip generates for [project.scripts] does, so no install is needed.
    module, func = _declared_entry_point()
    exe = [sys.executable, "-c",
           f"import sys; from {module} import {func}; sys.exit({func}())"]
    # the child process must import the decapsp under test, not another copy
    src = str(Path(decapsp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    gp = str(tmp_path / "s.graph")
    up = str(tmp_path / "s.updates")
    subprocess.run([*exe, "generate", "--n", "6", "--density", "1.0",
                    "--graph", gp, "--updates", up], check=True, env=env)
    proc = subprocess.run([*exe, "run", "--graph", gp, "--updates", up,
                           "--algorithm", "static-2"],
                          check=True, capture_output=True, env=env)
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 1
    # the README's fallback form must run without runpy's double-import warning
    proc = subprocess.run(
        [sys.executable, "-m", "decapsp.cli", "generate", "--n", "6",
         "--density", "1.0", "--graph", str(tmp_path / "m.graph"),
         "--updates", str(tmp_path / "m.updates")],
        check=True, capture_output=True, text=True, env=env)
    assert "RuntimeWarning" not in proc.stderr


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
                           "--algorithm", "static-2"], check=True, capture_output=True)
    rep = json.loads(proc.stdout)
    assert rep["schema"] == 1


@pytest.mark.parametrize("tag", cli.ALGORITHMS)
def test_out_of_range_queries_raise_domain_error(tag):
    """Every structure refuses a node outside [0, n) with DomainError, a
    negative one included, instead of reading another node's entry."""
    n = 24
    graph, _ = gnp_workload(n, 0.3, 1 if tag in ("additive", "unweighted-mult") else 10,
                            random.Random(5))
    cfg = cli.RunConfig(tag, "", "", tau=6, k=3, d=4, c=0.3, seed=1)
    algo = cli.make_algorithm(cfg, graph)
    for u, v in ((-1, 3), (3, -1), (-n, 3), (n, 3)):
        with pytest.raises(DomainError):
            algo.query(u, v)
    assert algo.query(3, 3) == 0
