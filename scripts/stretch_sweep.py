#!/usr/bin/env python3
"""Measure observed stretch of one algorithm across random workloads.

For each seed: build a full-deletion workload, replay it against the exact
oracle checking after every update, and print the worst ratio / additive
slack actually seen next to the guaranteed bound.  Useful for judging how
much slack a parameter choice leaves in practice.
"""

import argparse
import math
import random
import sys

from decapsp import cli
from decapsp.graph import DELETE, UpdateEvent, gnp_workload
from decapsp.oracle import sweep

# algorithms that refuse any edge weight other than 1
UNIT_WEIGHT = ("unweighted-mult", "additive")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algorithm", default="mult", choices=cli.ALGORITHMS)
    ap.add_argument("--n", type=int, default=48)
    ap.add_argument("--density", type=float, default=0.25)
    ap.add_argument("--W", type=int, default=10)
    ap.add_argument("--eps", type=float, default=0.9)
    ap.add_argument("--tau", type=float, default=None)
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--d", type=int, default=None)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--p", type=float, default=None)
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()
    if args.algorithm in UNIT_WEIGHT and args.W != 1:
        ap.error(f"--algorithm {args.algorithm} takes unit weights only: pass --W 1")
    missing = cli.missing_flags(args.algorithm, args)
    if missing:
        ap.error(f"--algorithm {args.algorithm} requires {' and '.join(missing)}")

    print("seed,pairs,ok,max_ratio,max_slack,bound_alpha,bound_beta")
    worst = 0.0
    for seed in range(args.seeds):
        g, edges = gnp_workload(args.n, args.density, args.W, random.Random(seed))
        updates = [UpdateEvent(DELETE, u, v) for u, v in edges]
        cfg = cli.RunConfig(
            algorithm=args.algorithm, graph_path="", updates_path="",
            p=args.p, tau=args.tau, eps=args.eps, k=args.k, d=args.d,
            c=args.c, seed=seed + 1000,
        )
        algo = cli.make_algorithm(cfg, g.copy())
        bound = cli.bound_for(cfg)
        rep = sweep(algo, g, updates, bound, dense=True)
        ratio = max((c.max_ratio for c in rep.checkpoints), default=0.0)
        slack = max((c.max_slack for c in rep.checkpoints), default=-math.inf)
        worst = max(worst, ratio)
        print(f"{seed},{rep.pairs_checked},{rep.ok},{ratio:.4f},"
              f"{slack if slack != -math.inf else ''},{bound.alpha},{bound.beta}")
    print(f"# worst observed ratio {worst:.4f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
