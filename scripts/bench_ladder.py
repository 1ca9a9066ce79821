#!/usr/bin/env python3
"""Total-update-time ladder for any of the maintained structures.

Runs a full deletion sequence per size and prints one CSV row with wall
time and the structure's own operation counters.  Unlike `decapsp bench`
(which pins the multiplicative scheme and asserts its counter bounds)
this script just measures, for whichever algorithm you point it at.
"""

import argparse
import random
import sys
import time

from decapsp import cli
from decapsp.graph import gnp_workload

# algorithms that refuse any edge weight other than 1
UNIT_WEIGHT = ("unweighted-mult", "additive")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--algorithm", default="mult", choices=cli.ALGORITHMS)
    ap.add_argument("--sizes", default="16,32,64")
    ap.add_argument("--density", type=float, default=0.25)
    ap.add_argument("--W", type=int, default=10)
    ap.add_argument("--eps", type=float, default=0.9)
    ap.add_argument("--tau", type=float, default=None)
    ap.add_argument("--k", type=int, default=None)
    ap.add_argument("--d", type=int, default=None)
    ap.add_argument("--c", type=float, default=2.0)
    ap.add_argument("--p", type=float, default=None)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.algorithm in UNIT_WEIGHT and args.W != 1:
        ap.error(f"--algorithm {args.algorithm} takes unit weights only: pass --W 1")
    missing = cli.missing_flags(args.algorithm, args)
    if missing:
        ap.error(f"--algorithm {args.algorithm} requires {' and '.join(missing)}")

    header_done = False
    for n in (int(s) for s in args.sizes.split(",") if s):
        g, edges = gnp_workload(n, args.density, args.W, random.Random(args.seed))
        m0 = g.m
        cfg = cli.RunConfig(
            algorithm=args.algorithm, graph_path="", updates_path="",
            p=args.p, tau=args.tau, eps=args.eps, k=args.k, d=args.d,
            c=args.c, seed=args.seed + 1,
        )
        algo = cli.make_algorithm(cfg, g)
        t0 = time.perf_counter()
        for u, v in edges:
            algo.delete(u, v)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        counters = algo.counters() if hasattr(algo, "counters") else {}
        flat = {k: v for k, v in counters.items() if isinstance(v, (int, float))}
        if not header_done:
            print(",".join(["n", "m", "wall_ms", *flat]))
            header_done = True
        print(",".join(str(x) for x in [n, m0, round(wall_ms, 3), *flat.values()]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
