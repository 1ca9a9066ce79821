"""Command line front end: workload generation, runs, verification, bench.

Subcommands:

  generate   write a gnp_graph instance and its drain stream, or a prefix
             of it, with query checkpoints from with_checkpoints, all drawn
             from --seed before any algorithm samples
  run        execute one algorithm over a workload, print a JSON report
             with wall time, operation counters and checkpoint answers
  verify     replay the workload against the exact oracle and report any
             stretch violations; exit status 1 if one is found
  bench      run a full drain of a gnp_graph per size for any algorithm and
             print a CSV row per size with wall time, build time and the
             structure's counters; for mult, hard-assert the laziness
             counter bounds

All non-timing output is a pure function of the flags and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, fields, replace

from .additive import AdditiveAPSP
from .apsp_mixed import MixedAPSP
from .apsp_mult import MultiplicativeAPSP
from .estree import ExactAPSP
from .graph import (
    ConfigError,
    DomainError,
    EdgeNotFound,
    MonotonicityViolation,
    ParseError,
    QueryCheckpoint,
    drain,
    dump_graph,
    dump_updates,
    gnp_graph,
    load_graph,
    parse_updates,
    with_checkpoints,
)
from .oracle import BoundSpec, sweep
from .reduction import UnweightedAPSP

INF = math.inf
# tag -> (the flags it cannot run without, build(cfg, graph), bound(cfg)).
# No bound fixes additive's query radius d or its stretch/time trade k.
STRUCTURES = {
    "mult": ((), lambda cfg, g: MultiplicativeAPSP(g, cfg.p, cfg.eps, cfg.seed),
             lambda cfg: BoundSpec(alpha=2 + cfg.eps)),
    "mixed": ((), lambda cfg, g: MixedAPSP(g, cfg.p, cfg.eps, cfg.tau, cfg.seed),
              lambda cfg: BoundSpec(alpha=2 + cfg.eps, per_pair_bottleneck=True)),
    "unweighted-mult": ((), lambda cfg, g: UnweightedAPSP(g, cfg.p, cfg.eps, cfg.tau, cfg.seed),
                        lambda cfg: BoundSpec(alpha=2 + 3 * cfg.eps)),
    "additive": (("k", "d"), lambda cfg, g: AdditiveAPSP(g, cfg.k, cfg.d, cfg.c, cfg.seed),
                 lambda cfg: BoundSpec(alpha=1.0, beta=2 * (cfg.k - 1), radius=cfg.d)),
    "exact": ((), lambda cfg, g: ExactAPSP(g), lambda cfg: BoundSpec(alpha=1.0)),
}
ALGORITHMS = tuple(STRUCTURES)


@dataclass
class RunConfig:
    algorithm: str
    graph_path: str = None
    updates_path: str = None
    p: float = None
    tau: float = None
    eps: float = 0.9
    k: int = None
    d: int = None
    c: float = None
    seed: int = 0
    dense: bool = False
    report_path: str = None


def _structure(cfg):
    """cfg's build and bound, once its tag is known and its flags complete."""
    tag = cfg.algorithm
    if tag not in STRUCTURES:
        raise ConfigError(f"unknown algorithm {tag!r}; choose from {', '.join(ALGORITHMS)}")
    required, build, bound = STRUCTURES[tag]
    missing = [f"--{flag}" for flag in required if getattr(cfg, flag) is None]
    if missing:
        raise ConfigError(f"algorithm {tag!r} requires {' and '.join(missing)}")
    return build, bound


def make_algorithm(cfg, graph):
    """Instantiate the configured algorithm on graph.  cfg.p, cfg.tau and
    cfg.c pass through untouched: None (the flag absent) lets the structure
    derive the value from its own bound, as its class docstring says, and an
    explicit value outside its domain is refused there."""
    return _structure(cfg)[0](cfg, graph)


def bound_for(cfg):
    return _structure(cfg)[1](cfg)


def _emit(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommands -------------------------------------------------------------


def cmd_generate(args):
    if not (0 < args.fraction <= 1):
        raise ConfigError("deletion fraction must be in (0, 1]")
    if args.checkpoint_every < 1:
        raise ConfigError("--checkpoint-every must be at least 1")
    if args.checkpoint_queries < 0:
        raise ConfigError("--checkpoint-queries must be non-negative")
    rng = random.Random(args.seed)
    g = gnp_graph(args.n, args.density, args.W, rng)
    deletions = drain(g, rng)
    take = max(1, math.ceil(args.fraction * len(deletions))) if deletions else 0
    stream = with_checkpoints(deletions[:take], args.n, rng, args.checkpoint_every,
                              args.checkpoint_queries)
    with open(args.graph, "w") as fh:
        fh.write(dump_graph(g))
    with open(args.updates, "w") as fh:
        fh.write(dump_updates(stream))
    print(f"wrote {args.graph} (n={g.n} m={g.m}) and {args.updates} "
          f"({take} deletions, {sum(isinstance(s, QueryCheckpoint) for s in stream)} checkpoints)")
    return 0


def _load(cfg):
    with open(cfg.graph_path) as fh:
        graph = load_graph(fh.read())
    with open(cfg.updates_path) as fh:
        updates = parse_updates(fh.read())
    return graph, updates


def cmd_run(cfg):
    graph, updates = _load(cfg)
    n, m0 = graph.n, graph.m
    algo = make_algorithm(cfg, graph)
    answers = []
    t0 = time.perf_counter()
    for ev in updates:
        if isinstance(ev, QueryCheckpoint):
            d = algo.query(ev.u, ev.v)
            answers.append([ev.u, ev.v, "inf" if d == INF else d])
        else:
            algo.apply(ev)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    report = {
        "schema": 2,
        "algorithm": cfg.algorithm,
        "n": n,
        "m0": m0,
        "eps": cfg.eps,
        "seed": cfg.seed,
        "checkpoints": len(answers),
        "wall_ms": round(wall_ms, 3),
        "counters": algo.counters(),
        "answers": answers,
    }
    _emit(report, cfg.report_path)
    return 0


def cmd_verify(cfg, alpha=None, beta=None):
    # --alpha/--beta probe a custom target instead of the guaranteed one; a
    # non-finite one would make every bound test false and pass anything
    probe = {name: x for name, x in (("alpha", alpha), ("beta", beta)) if x is not None}
    for name, x in probe.items():
        if not math.isfinite(x):
            raise ConfigError(f"--{name} must be finite, got {x}")
    graph, updates = _load(cfg)
    algo = make_algorithm(cfg, graph.copy())
    bound = replace(bound_for(cfg), **probe)
    report = sweep(algo, graph, updates, bound, dense=cfg.dense)
    _emit(report.to_dict(), cfg.report_path)
    return 0 if report.ok else 1


def _ladder(cfg, sizes, density, max_weight):
    """Per size, a full deletion run of cfg's structure on a G(n, density)
    instance drawn from seed cfg.seed, the structure sampled with seed
    cfg.seed + 1; yields the CSV row as a dict of column -> value, where
    wall_ms times the deletions and build_ms the structure's build."""
    structure = replace(cfg, seed=cfg.seed + 1)
    for n in sizes:
        rng = random.Random(cfg.seed)
        g = gnp_graph(n, density, max_weight, rng)
        stream = drain(g, rng)
        m0 = g.m
        t0 = time.perf_counter()
        algo = make_algorithm(structure, g)
        t1 = time.perf_counter()
        for ev in stream:
            algo.apply(ev)
        wall_ms = (time.perf_counter() - t1) * 1000.0
        build_ms = (t1 - t0) * 1000.0
        row = {"n": n, "m": m0, "wall_ms": round(wall_ms, 3), "build_ms": round(build_ms, 3)}
        row.update((k, x) for k, x in algo.counters().items() if isinstance(x, (int, float)))
        if cfg.algorithm == "mult":
            rebuild_bound = algo.engine.rebuild_bound()
            change_bound = (rebuild_bound - 1) ** 2
            if row["bunch_rebuilds_max"] > rebuild_bound:
                raise SystemExit(
                    f"rebuild bound violated at n={n}: "
                    f"{row['bunch_rebuilds_max']} > {rebuild_bound}")
            if row["nbr_min_changes_max"] > change_bound:
                raise SystemExit(
                    f"neighborhood-minimum change bound violated at n={n}: "
                    f"{row['nbr_min_changes_max']} > {change_bound}")
            row.update(rebuild_bound=rebuild_bound, nbr_change_bound=change_bound)
        yield row


def cmd_bench(cfg, sizes, density, max_weight, out):
    try:
        ladder = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        ladder = []
    if not ladder or min(ladder) < 1:
        raise ConfigError(f"--sizes takes comma separated positive node counts, got {sizes!r}")
    rows = _ladder(cfg, ladder, density, max_weight)
    # a refused configuration or workload surfaces here, before any output
    first = next(rows)
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as writer:
        print(",".join(first), file=writer)
        for row in itertools.chain([first], rows):
            print(",".join(str(x) for x in row.values()), file=writer)
    return 0


# -- argument parsing ----------------------------------------------------------


def _add_algorithm_flags(sp, algorithm=None):
    """The flags a RunConfig takes from every subcommand that builds a
    structure; --algorithm is required unless a default is given.  RunConfig
    owns the other defaults: an absent flag leaves no attribute, so
    _config_from keeps the field's default."""
    sp.add_argument("--algorithm", required=algorithm is None, default=algorithm,
                    choices=ALGORITHMS)
    for flag, kind in (("p", float), ("tau", float), ("eps", float), ("k", int),
                       ("d", int), ("c", float), ("seed", int)):
        sp.add_argument(f"--{flag}", type=kind, default=argparse.SUPPRESS)


def _add_workload_flags(sp):
    _add_algorithm_flags(sp)
    sp.add_argument("--graph", required=True, dest="graph_path")
    sp.add_argument("--updates", required=True, dest="updates_path")
    sp.add_argument("--report", dest="report_path", default=None)


def _config_from(args):
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: x for k, x in vars(args).items() if k in names})


def build_parser():
    ap = argparse.ArgumentParser(
        prog="decapsp",
        description="Decremental approximate all-pairs shortest paths toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a random workload")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--density", type=float, required=True)
    gen.add_argument("--W", type=int, default=1)
    gen.add_argument("--fraction", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--checkpoint-every", type=int, default=5)
    gen.add_argument("--checkpoint-queries", type=int, default=3)
    gen.add_argument("--graph", required=True)
    gen.add_argument("--updates", required=True)

    run = sub.add_parser("run", help="execute one algorithm over a workload")
    _add_workload_flags(run)

    ver = sub.add_parser("verify", help="check stretch against the exact oracle")
    _add_workload_flags(ver)
    ver.add_argument("--dense", action="store_true",
                     help="check every update, not only checkpoints")
    ver.add_argument("--alpha", type=float, default=None,
                     help="probe a custom multiplicative factor")
    ver.add_argument("--beta", type=float, default=None,
                     help="probe a custom additive term")

    ben = sub.add_parser("bench", help="size ladder of full deletion runs")
    _add_algorithm_flags(ben, algorithm="mult")
    ben.add_argument("--sizes", required=True, help="comma separated node counts")
    ben.add_argument("--density", type=float, default=0.25)
    ben.add_argument("--W", type=int, default=10)
    ben.add_argument("--out", default=None)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "run":
            return cmd_run(_config_from(args))
        if args.command == "verify":
            return cmd_verify(_config_from(args), args.alpha, args.beta)
        return cmd_bench(_config_from(args), args.sizes, args.density, args.W, args.out)
    except (ConfigError, DomainError, EdgeNotFound, ParseError, MonotonicityViolation,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
