"""End-to-end checks of every advertised guarantee, one test per claim.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist (run with -s or -rA to see the lines for passing tests).  These
are the slow, full-scale runs; the per-module suites cover the same code
at higher event granularity on smaller instances.
"""

import math
import random
import statistics
import time

from decapsp import cli
from decapsp.additive import AdditiveAPSP, level_thresholds
from decapsp.apsp_mixed import MixedAPSP
from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.bunches import BunchEngine
from decapsp.estree import ExactAPSP, MonotoneESTree
from decapsp.graph import UpdateEvent, apply_update, churn, drain, gnp_graph, with_checkpoints
from decapsp.oracle import BoundSpec, exact_apsp, sweep
from decapsp.reduction import UnweightedAPSP, subdivide

from helpers import ref_dijkstra

INF = math.inf


def report(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


GRID = [(seed, n, W) for seed in range(5) for n in (32, 64) for W in (1, 10)]


def test_criterion_1_multiplicative_stretch():
    t0 = time.perf_counter()
    pairs = violations = 0
    for seed, n, W in GRID:
        rng = random.Random(seed)
        g = gnp_graph(n, 0.25, W, rng)
        updates = drain(g, rng)
        algo = MultiplicativeAPSP(g.copy(), None, 0.9, seed + 17)
        rep = sweep(algo, g, updates, BoundSpec(alpha=2.9), dense=True)
        pairs += rep.pairs_checked
        violations += len(rep.violations)
    dt = time.perf_counter() - t0
    report(
        "1 multiplicative stretch <= 2.9d on 20 full-deletion workloads",
        violations == 0 and dt < 300,
        f"{pairs} pair checks, {violations} violations, {dt:.0f}s",
    )


def test_criterion_2_mixed_stretch():
    pairs = violations = 0
    for seed, n, W in GRID:
        rng = random.Random(seed)
        g = gnp_graph(n, 0.25, W, rng)
        updates = drain(g, rng)
        # tau None is the structure's own floor(sqrt(m))
        algo = MixedAPSP(g.copy(), None, 0.9, 4 if seed % 2 == 0 else None, seed + 23)
        bound = BoundSpec(alpha=2.9, per_pair_bottleneck=True)
        rep = sweep(algo, g, updates, bound, dense=True)
        pairs += rep.pairs_checked
        violations += len(rep.violations)
    report(
        "2 mixed stretch <= 2.9d + W_uv with tau in {4, sqrt(m)}",
        violations == 0,
        f"{pairs} pair checks, {violations} violations",
    )


def _identity_pairs(g, rng, count=100):
    """d in the subdivided graph must be exactly twice d in g."""
    expanded, _ = subdivide(g)
    bad = 0
    for _ in range(count):
        u = rng.randrange(g.n)
        v = rng.randrange(g.n)
        du = ref_dijkstra(g.adj, u)[v]
        dsub = ref_dijkstra(expanded.adj, u)[v]
        want = INF if du == INF else 2 * du
        if dsub != want:
            bad += 1
    return bad


def test_criterion_3_unweighted_reduction():
    pairs = violations = identity_bad = 0
    for n, seed in ((24, 0), (36, 1), (48, 2)):
        rng = random.Random(seed)
        g = gnp_graph(n, 0.25, 1, rng)
        updates = with_checkpoints(drain(g, rng), g.n, rng, 5, 1)
        half = g.copy()
        rng = random.Random(seed + 41)
        identity_bad += _identity_pairs(g, rng)
        n2, m2 = g.n + g.m, 2 * g.m
        p = 1.0 / math.sqrt(n2)
        tau = max(1, int(math.sqrt(m2)))
        algo = UnweightedAPSP(g.copy(), p, 0.1, tau, seed + 29)
        rep = sweep(algo, g, updates, BoundSpec(alpha=2.3), dense=False)
        pairs += rep.pairs_checked
        violations += len(rep.violations)
        # identity also holds mid-sequence, on the partially deleted graph
        for ev in updates[: len(updates) // 2]:
            if isinstance(ev, UpdateEvent):
                apply_update(half, ev)
        identity_bad += _identity_pairs(half, rng)
    report(
        "3 subdivision composition <= 2.3d and exact doubling",
        violations == 0 and identity_bad == 0,
        f"{pairs} pair checks, {violations} violations, "
        f"{identity_bad} identity mismatches on 600 sampled pairs",
    )


def test_criterion_4_additive_stretch():
    pairs = violations = 0
    for k in (2, 3):
        for d in (4, 8):
            for seed in (0, 1):
                rng = random.Random(seed)
                g = gnp_graph(64, 0.15, 1, rng)
                updates = drain(g, rng)
                algo = AdditiveAPSP(g.copy(), k, d, 2.0, seed + 11)
                bound = BoundSpec(alpha=1.0, beta=2 * (k - 1), radius=d)
                rep = sweep(algo, g, updates, bound, dense=True)
                pairs += rep.pairs_checked
                violations += len(rep.violations)
    report(
        "4 additive estimates <= d_G + 2(k-1) inside radius d",
        violations == 0,
        f"{pairs} pair checks, {violations} violations",
    )


def _estree_trial(rng, allow_growth):
    n = rng.randint(4, 64)
    W = rng.randint(1, 4)
    g = gnp_graph(n, rng.choice((0.15, 0.3, 0.6)), W, rng)
    cap = rng.choice((n // 2, 2 * n * W))
    root = rng.randrange(n)
    tree = MonotoneESTree(g.adj, root, cap)
    bad = 0
    for _ in range(10):
        prev = list(tree.level_of)
        edges = [(u, v, w) for u, v, w in g.edges()]
        op = rng.random()
        if allow_growth and op < 0.3:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and v not in g.adj[u]:
                w = rng.randint(1, W)
                g.adj[u][v] = w
                g.adj[v][u] = w
                tree.insert_edge(u, v, w)
        elif edges and op < 0.6:
            u, v, w = edges[rng.randrange(len(edges))]
            nw = w + rng.randint(1, 3)
            g.adj[u][v] = nw
            g.adj[v][u] = nw
            tree.increase_weight(u, v, nw, w)
        elif edges:
            u, v, w = edges[rng.randrange(len(edges))]
            del g.adj[u][v]
            del g.adj[v][u]
            tree.delete_edge(u, v, w)
        exact = ref_dijkstra(g.adj, root)
        for x in range(n):
            lv = tree.level_of[x]
            d = exact[x]
            if lv < prev[x]:
                bad += 1
            if lv != INF and lv < d - 1e-9:
                bad += 1
            if not allow_growth:
                want = d if d <= cap else INF
                if lv != want:
                    bad += 1
    return bad


def test_criterion_5_monotone_estree_invariants():
    rng = random.Random(97)
    bad = 0
    for trial in range(1000):
        bad += _estree_trial(rng, allow_growth=trial % 2 == 0)
    report(
        "5 tree levels nondecreasing, never below distance, exact when decremental",
        bad == 0,
        f"1000 trials, {bad} violations",
    )


def test_criterion_6_laziness_counters():
    worst_rebuild = worst_changes = 0
    ok = True
    for seed, n, W in GRID:
        rng = random.Random(seed)
        g = gnp_graph(n, 0.25, W, rng)
        updates = drain(g, rng)
        algo = MultiplicativeAPSP(g, None, 0.9, seed + 17)
        for ev in updates:
            algo.apply(ev)
        c = algo.counters()
        logb = math.ceil(math.log(max(n * W, 2), 1 + 0.9 / 3))
        ok &= c["bunch_rebuilds_max"] <= algo.engine.rebuild_bound()
        ok &= c["nbr_min_changes_max"] <= logb * logb
        worst_rebuild = max(worst_rebuild, c["bunch_rebuilds_max"])
        worst_changes = max(worst_changes, c["nbr_min_changes_max"])
    bench_rc = cli.main(["bench", "--sizes", "24,32", "--density", "0.25",
                         "--W", "10", "--seed", "3", "--out", "/dev/null"])
    report(
        "6 rebuilds <= ceil(log) + 1 per node, minima churn <= ceil(log)^2 per pair",
        ok and bench_rc == 0,
        f"worst rebuilds {worst_rebuild}, worst per-pair churn {worst_changes}, "
        f"bench exit {bench_rc}",
    )


def _fraction_passing(results, need=48):
    passing = sum(results)
    return passing >= need, passing


def test_criterion_7_size_bounds():
    eps = 0.9
    seeds = range(50)

    bunch_ok = []
    for seed in seeds:
        rng = random.Random(seed)
        g = gnp_graph(128, 0.25, 1, rng)
        eng = BunchEngine(g, 0.25, eps, seed + 100)
        med = statistics.median(len(b) for b in eng.bunch)
        bunch_ok.append(med <= 8 * math.log(128) / 0.25)
    ok_b, n_b = _fraction_passing(bunch_ok)

    heavy_ok = []
    for seed in seeds:
        rng = random.Random(seed)
        g = gnp_graph(64, 0.2, 1, rng)
        updates = drain(g, rng)
        algo = MixedAPSP(g, 0.25, eps, 8, seed + 100)
        for ev in updates:
            algo.apply(ev)
        limit = 8 * (64 / (0.25 * 8)) * math.log(max(64 * g.W, 2), 1 + eps / 3)
        heavy_ok.append(len(algo.heavy_trees) <= limit)
    ok_h, n_h = _fraction_passing(heavy_ok)

    ei_ok, estar_ok = [], []
    k = 3
    for seed in seeds:
        rng = random.Random(seed)
        g = gnp_graph(64, 0.4, 1, rng)
        updates = drain(g, rng)
        n, m0 = g.n, g.m
        algo = AdditiveAPSP(g, k, 4, 0.5, seed + 100)
        for ev in updates:
            algo.apply(ev)
        c = algo.counters()
        s = level_thresholds(n, m0, k)
        ei_ok.append(all(c["ei_added"][i] <= 4 * n * s[i - 2] for i in range(2, k + 1)))
        estar_limit = (4 * k * n ** (1 - 1 / k) * m0 ** (1 / k)
                       * math.log(n) ** (1 - 1 / k))
        estar_ok.append(c["estar_added"] <= estar_limit)
    ok_ei, n_ei = _fraction_passing(ei_ok)
    ok_es, n_es = _fraction_passing(estar_ok)

    report(
        "7 bunch/heavy/load sizes within 8x and 4x formula bounds on >=48/50 seeds",
        ok_b and ok_h and ok_ei and ok_es,
        f"median-bunch {n_b}/50, heavy-set {n_h}/50, "
        f"level-edge load {n_ei}/50, escape load {n_es}/50",
    )


def test_criterion_8_exact_dynamic_baseline():
    pairs = violations = 0
    for seed in range(20):
        n = (24, 32, 48, 64)[seed % 4]
        W = 1 if seed % 2 == 0 else 10
        rng = random.Random(seed)
        g = gnp_graph(n, 0.25, W, rng)
        # rises up to 3W: the exact baseline has no weight bound to keep
        updates = with_checkpoints(churn(g, rng, 3 * g.W), g.n, rng, 5, 1)
        rep = sweep(ExactAPSP(g.copy()), g, updates, BoundSpec(alpha=1.0))
        pairs += rep.pairs_checked
        violations += len(rep.violations)
    report(
        "8 exact dynamic baseline matches exact recomputation",
        violations == 0,
        f"{pairs} pairs, {violations} violations",
    )
