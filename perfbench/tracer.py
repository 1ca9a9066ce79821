"""Span tracer wrapped around the public entry points of each layer.

Nothing under src/ knows about it: install() swaps class attributes and
module-level names for timing wrappers and uninstall() puts the originals
back.  Each wrapped call records a span (name, start, end, parent span,
instance, update id) in memory; self time is a span's duration minus the
time its child spans cover.  GeometricRounder.exponent, a very hot leaf,
only adds to its layer's self time and count, without a span.  IndexedHeap mutators
are hotter still: HeapCounter counts them in a separate untimed pass, and
the traced pass leaves them unwrapped.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

from decapsp import additive, apsp_mixed, apsp_mult, oracle
from decapsp.additive import AdditiveAPSP
from decapsp.apsp_mixed import MixedAPSP
from decapsp.apsp_mult import MultiplicativeAPSP
from decapsp.bunches import BunchEngine
from decapsp.estree import MonotoneESTree
from decapsp.heaps import IndexedHeap
from decapsp.rounding import GeometricRounder

FAMILIES = ("pivot", "heavy", "additive")
STRUCTURES = ((MultiplicativeAPSP, "apsp_mult"), (MixedAPSP, "apsp_mixed"),
              (AdditiveAPSP, "additive"))


class _Patcher:
    """Swaps attributes for wrappers and puts the originals back on exit."""

    def __init__(self):
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        raise NotImplementedError

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()


class HeapCounter(_Patcher):
    """Counts IndexedHeap insert/update/delete/pop calls.  It runs in a pass
    of its own, so that its cost is not billed to the traced layers."""

    def __init__(self):
        super().__init__()
        self.ops = 0

    def install(self):
        for method in ("insert", "update", "delete", "pop"):
            self._patch(IndexedHeap, method, self._counted(getattr(IndexedHeap, method)))

    def _counted(self, fn):
        def wrapper(*args):
            self.ops += 1
            return fn(*args)
        return wrapper


class Tracer(_Patcher):
    def __init__(self):
        super().__init__()
        self.spans = []          # (name, start, end, parent index, instance, update id)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.instance = 0        # index in the workload's panel, set by the caller
        self.update_id = -1      # stream position, set by the replay loop
        self.structure = None    # owner of the trees, for family lookup
        self._stack = []         # [child seconds, first argument, span index] per open call
        self._family = {}
        self._build_searches = 0

    def _span(self, fn, name, on_exit=None, record=True):
        """Wrap fn; name is a string or a function of the call's arguments."""
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        self_s = self.self_s

        def wrapper(*args):
            label = name(args) if callable(name) else name
            parent = stack[-1] if stack else None
            frame = [0.0, args[0] if args else None, len(spans) if record else None]
            if record:
                spans.append(None)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                self_s[label] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[frame[2]] = (label, start, end,
                                       parent[2] if parent is not None else None,
                                       self.instance, self.update_id)
            if on_exit is not None:
                on_exit(label, args, result, parent)
            return result

        return wrapper

    def install(self):
        counts = self.counts

        def tree_label(args):
            return "estree." + self.family(args[0])

        def tree_exit(method):
            def on_exit(label, args, result, parent):
                if method == "insert_edge":
                    counts[label + ".inserts"] += 1
                if parent is not None and parent[1] is args[0]:
                    return  # nested call of the same tree: the outer call counts
                counts[label + ".calls"] += 1
                if method in ("increase_weight", "delete_edge"):
                    counts[label + ".nodes_raised"] += len(result)
            return on_exit

        def build_exit(label, args, result, parent):
            counts[label + ".calls"] += 1

        self._patch(MonotoneESTree, "__init__",
                    self._span(MonotoneESTree.__init__, "estree.build", build_exit))
        for method in ("increase_weight", "delete_edge", "insert_edge", "relax_edge"):
            self._patch(MonotoneESTree, method,
                        self._span(getattr(MonotoneESTree, method), tree_label,
                                   tree_exit(method)))

        def refresh_exit(label, args, events, parent):
            for ev in events:
                counts["bunches.events." + ev.case] += 1

        self._patch(BunchEngine, "__init__", self._span(BunchEngine.__init__, "bunches.build"))
        self._patch(BunchEngine, "refresh",
                    self._span(BunchEngine.refresh, "bunches.refresh", refresh_exit))

        for cls, layer in STRUCTURES:
            self._patch(cls, "__init__", self._span(cls.__init__, layer + ".build"))
            for method in ("delete", "increase"):
                self._patch(cls, method, self._span(getattr(cls, method), layer + ".update"))
            self._patch(cls, "query", self._span(cls.query, "queries"))
        for module in (apsp_mult, apsp_mixed, additive):
            self._patch(module, "apply_update",
                        self._span(module.apply_update, "graph.apply_update"))

        def exponent_exit(label, args, result, parent):
            counts["rounding.exponent.calls"] += 1

        self._patch(GeometricRounder, "exponent",
                    self._span(GeometricRounder.exponent, "rounding.exponent",
                               exponent_exit, record=False))
        for fn in ("dijkstra", "bottleneck_weights", "exact_apsp"):
            self._patch(oracle, fn, self._span(getattr(oracle, fn), "oracle." + fn))

    # -- attribution -------------------------------------------------------

    def family(self, tree):
        """pivot, heavy or additive, from the owning structure's public maps."""
        fam = self._family.get(id(tree))
        if fam is None:
            s = self.structure
            engine = getattr(s, "engine", None)
            if engine is not None and engine.trees.get(tree.root) is tree:
                fam = "pivot"
            elif getattr(s, "heavy_trees", {}).get(tree.root) is tree:
                fam = "heavy"
            elif getattr(s, "tree", {}).get(tree.root) is tree:
                fam = "additive"
            else:
                return "other"
            self._family[id(tree)] = fam
        return fam

    def set_structure(self, structure):
        """Call right after the structure is built, before its updates."""
        self.structure = structure
        self._family.clear()
        engine = getattr(structure, "engine", None)
        self._build_searches = engine.searches if engine is not None else 0

    def finish_structure(self):
        """Call after the structure's last update: adds the counts it keeps
        itself (its trees start at 0 level increases and are never
        replaced, its bunch rebuilds start at 0)."""
        s = self.structure
        engine = getattr(s, "engine", None)
        trees = {
            "pivot": engine.trees.values() if engine is not None else (),
            "heavy": getattr(s, "heavy_trees", {}).values(),
            "additive": getattr(s, "tree", {}).values(),
        }
        for fam in FAMILIES:
            self.counts[f"estree.{fam}.level_increases"] += sum(
                t.level_increases for t in trees[fam])
        if engine is not None:
            self.counts["bunches.searches"] += engine.searches - self._build_searches
            self.counts["bunches.rebuilds"] += sum(engine.rebuilds)
        self.structure = None
        self._family.clear()

    # -- results -----------------------------------------------------------

    def layer_metrics(self):
        s, c = self.self_s, self.counts
        out = {}
        for fam in FAMILIES:
            key = "estree." + fam
            calls = c[key + ".calls"]
            raised = c[key + ".nodes_raised"]
            lifts = c[key + ".level_increases"]
            out[key + ".self_s"] = s[key]
            out[key + ".calls"] = calls
            out[key + ".level_increases"] = lifts
            out[key + ".nodes_raised"] = raised
            out[key + ".raises_per_node"] = lifts / raised if raised else 0.0
            out[key + ".self_us_per_call"] = s[key] / calls * 1e6 if calls else 0.0
        out["estree.additive.inserts"] = c["estree.additive.inserts"]
        out["estree.build_s"] = s["estree.build"]
        out["estree.build.calls"] = c["estree.build.calls"]
        searches = c["bunches.searches"]
        events = sum(c["bunches.events." + k] for k in ("join", "leave", "increase"))
        out["bunches.refresh.self_s"] = s["bunches.refresh"]
        out["bunches.searches"] = searches
        out["bunches.rebuilds"] = c["bunches.rebuilds"]
        for k in ("join", "leave", "increase"):
            out["bunches.events." + k] = c["bunches.events." + k]
        out["bunches.events_per_search"] = events / searches if searches else 0.0
        out["bunches.build_s"] = s["bunches.build"]
        for _, layer in STRUCTURES:
            out[layer + ".self_s"] = s[layer + ".update"]
            out[layer + ".build_s"] = s[layer + ".build"]
        out["queries.self_s"] = s["queries"]
        out["rounding.exponent.calls"] = c["rounding.exponent.calls"]
        out["rounding.exponent.self_s"] = s["rounding.exponent"]
        out["graph.apply_update.self_s"] = s["graph.apply_update"]
        out["oracle.exact_s"] = sum(v for k, v in s.items() if k.startswith("oracle."))
        return out

    def slowest_update(self):
        """((instance, update id), wall seconds, {layer: self seconds}) of the
        slowest update."""
        top = [sp for sp in self.spans if sp[3] is None and sp[0].endswith(".update")]
        if not top:
            return None
        worst = max(top, key=lambda sp: sp[2] - sp[1])
        mine = [i for i, sp in enumerate(self.spans) if sp[4:] == worst[4:]]
        child = defaultdict(float)
        for i in mine:
            sp = self.spans[i]
            if sp[3] is not None:
                child[sp[3]] += sp[2] - sp[1]
        by_layer = defaultdict(float)
        for i in mine:
            sp = self.spans[i]
            by_layer[sp[0]] += sp[2] - sp[1] - child[i]
        return worst[4:], worst[2] - worst[1], dict(by_layer)

    def write(self, path):
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps([i, *sp]) + "\n")
