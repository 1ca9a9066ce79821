"""Smoke runs of scripts/bench_ladder.py on tiny instances.

The script is launched in a fresh process with the package under test on
PYTHONPATH, as the README shows; it must exit 0 and print its CSV header.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import decapsp

ROOT = Path(__file__).resolve().parents[1]

# algorithm -> (extra flags, counter columns of bench_ladder.py)
ALGORITHMS = {
    "mult": ([], ["updates", "searches", "bunch_rebuilds_max", "bunch_rebuilds_total",
                  "nbr_min_changes_max", "nbr_min_changes_total", "nbr_pairs_live",
                  "adj_pairs_live", "tree_level_increases"]),
    "mixed": (["--tau", "4"], ["updates", "searches", "bunch_rebuilds_max",
                               "bunch_rebuilds_total", "promotions", "heavy_count",
                               "overlap_touches", "overlap_pairs_live",
                               "tree_level_increases"]),
    "additive": (["--k", "2", "--d", "4", "--W", "1"],
                 ["updates", "estar_added", "neighbor_scans", "exports_applied",
                  "tree_level_increases"]),
}


def launch(name, *args):
    env = dict(os.environ)
    src = str(Path(decapsp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env)


def run_script(name, *args):
    proc = launch(name, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_bench_ladder(algorithm):
    flags, columns = ALGORITHMS[algorithm]
    lines = run_script("bench_ladder.py", "--algorithm", algorithm,
                       "--sizes", "12,16", *flags)
    assert lines[0] == ",".join(["n", "m", "wall_ms", *columns])
    assert [row.split(",")[0] for row in lines[1:]] == ["12", "16"]


@pytest.mark.parametrize("script", ["bench_ladder.py"])
@pytest.mark.parametrize("algorithm", ["additive", "unweighted-mult"])
def test_unit_weight_algorithm_without_w1_is_a_usage_error(script, algorithm):
    # the script defaults to --W 10, which these algorithms refuse
    proc = launch(script, "--algorithm", algorithm, "--k", "2", "--d", "4")
    assert proc.returncode == 2
    assert "--W 1" in proc.stderr.splitlines()[-1]
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script", ["bench_ladder.py"])
@pytest.mark.parametrize("flags, missing", [
    (["--algorithm", "mixed"], "--tau"),
    (["--algorithm", "additive", "--W", "1"], "--k and --d"),
    (["--algorithm", "additive", "--W", "1", "--k", "2"], "--d"),
    (["--algorithm", "additive", "--W", "1", "--d", "4"], "--k"),
])
def test_a_missing_required_flag_is_a_usage_error(script, flags, missing):
    proc = launch(script, *flags)
    assert proc.returncode == 2
    assert proc.stderr.splitlines()[-1].endswith(f"requires {missing}")
    assert "Traceback" not in proc.stderr and not proc.stdout
