"""Golden `decapsp run` reports on fixed `decapsp generate` workloads.

golden_runs.json holds, for each case below, the run report without its
one timing field, wall_ms.  A change that must keep every answer and
counter reproduces these reports exactly; a change that alters a counter
on purpose updates its entry and says which values moved.
"""

import json
from pathlib import Path

import pytest

from decapsp import cli

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
}


def run_case(name, tmp_path):
    """The report of `decapsp run` for CASES[name], without wall_ms."""
    gen, run = CASES[name]
    gp, up, rp = (str(tmp_path / f"{name}.{ext}") for ext in ("graph", "updates", "json"))
    assert cli.main(["generate", *gen, "--graph", gp, "--updates", up]) == 0
    assert cli.main(["run", "--graph", gp, "--updates", up, "--report", rp, *run]) == 0
    report = json.loads(Path(rp).read_text())
    del report["wall_ms"]
    return report


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_reproduces_golden_report(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    assert run_case(name, tmp_path) == want
