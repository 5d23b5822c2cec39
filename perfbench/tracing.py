"""Span tracing of crossfree's public functions, installed from outside.

The tracer rebinds each traced function at every public ``crossfree.*``
module attribute that holds it, because a name imported with ``from ...
import`` is a separate binding in each importing module. Private modules
(``crossfree._cliquepy``) are skipped, so the kernel is caught at
``crossfree.kernel`` alone and its internal calls are not counted twice.

A span is a dict with ``id``, ``name``, ``cmd`` (command id), ``parent``,
``start``, ``end``, ``s`` (busy seconds) and the layer's counters. Kernel
calls are too many to keep one span each (hundreds of thousands per pass),
so they are summed into one ``kernel`` span per parent span, whose ``s`` is
the summed call time and whose counters are calls, cliques found and
candidate popcounts.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter


def _tree_nodes(node) -> int:
    count = 0
    stack = [node]
    while stack:
        n = stack.pop()
        count += 1
        stack.extend(n.children)
    return count


def _graph_counts(args, graph):
    n = len(graph.adj)
    return {"pairs": n * (n - 1) // 2, "edges": sum(m.bit_count() for m in graph.adj) // 2}


def _select_counts(args, result):
    stages = result[2].stage_sets
    return {"i0": len(stages["I0"]), "i": len(stages["I"])}


# (span name, defining module, function, counters from (args, result))
TRACED = (
    ("cli.main", "crossfree.cli", "main", None),
    ("families.parse_family", "crossfree.families", "parse_family", lambda a, r: {"sets": len(r)}),
    ("crossing.crossing_graph", "crossfree.crossing", "crossing_graph", _graph_counts),
    ("crossing.find_pairwise_crossing_witness", "crossfree.crossing", "find_pairwise_crossing_witness", None),
    ("crossing.dilworth_partition", "crossfree.crossing", "dilworth_partition", None),
    ("search.max_cross_free", "crossfree.search", "max_cross_free", lambda a, r: {"nodes": r.nodes_explored}),
    ("constructions.gen_random_cross_free", "crossfree.constructions", "gen_random_cross_free", lambda a, r: {"sets": len(r)}),
    ("chains.weak_reduce", "crossfree.chains", "weak_reduce", None),
    ("chains.extract_disjoint_chains", "crossfree.chains", "extract_disjoint_chains", None),
    ("chains.select_conditioned_chains", "crossfree.chains", "select_conditioned_chains", _select_counts),
    ("chains.check_conditions", "crossfree.chains", "check_conditions", None),
    ("tree.validate_tree", "crossfree.tree", "validate_tree", lambda a, r: {"nodes": _tree_nodes(a[0].root)}),
    ("tree.extract_k_crossing_from_tree", "crossfree.tree", "extract_k_crossing_from_tree", None),
    ("tree.build_tree", "crossfree.tree", "build_tree", lambda a, r: {"ok": int(r.tree is not None)}),
)

# kernel entry point -> candidate popcount of one call
KERNEL = (
    ("find_k_clique", lambda adj, rest: len(adj)),
    ("find_k_clique_in", lambda adj, rest: rest[0].bit_count()),
)


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list[dict] = []
        self.cmd: int | None = None
        self._stack: list[dict] = []
        self._kernel: dict[int, dict] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "name": name,
            "cmd": self.cmd,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter(),
        }
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        rec["s"] = rec["end"] - rec["start"]
        self._stack.pop()

    def _wrap(self, name: str, fn, counts):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counts is not None:
                rec.update(counts(args, result))
            return result

        return traced

    def _wrap_kernel(self, fn, bits_of):
        def traced(adj, *rest):
            start = perf_counter()
            try:
                result = fn(adj, *rest)
            finally:
                end = perf_counter()
            parent = self._stack[-1]["id"] if self._stack else None
            agg = self._kernel.get(parent)
            if agg is None:
                agg = {
                    "id": len(self.spans), "name": "kernel", "cmd": self.cmd,
                    "parent": parent, "start": start, "s": 0.0,
                    "calls": 0, "found": 0, "bits_sum": 0, "bits_max": 0,
                }
                self.spans.append(agg)
                self._kernel[parent] = agg
            bits = bits_of(adj, rest)
            agg["end"] = end
            agg["s"] += end - start
            agg["calls"] += 1
            agg["found"] += result is not None
            agg["bits_sum"] += bits
            agg["bits_max"] = max(agg["bits_max"], bits)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        for name, module, attr, counts in TRACED:
            fn = getattr(importlib.import_module(module), attr)
            self._rebind(fn, self._wrap(name, fn, counts))
        kernel = importlib.import_module("crossfree.kernel")
        for attr, bits_of in KERNEL:
            fn = getattr(kernel, attr)
            self._rebind(fn, self._wrap_kernel(fn, bits_of))

    def _rebind(self, fn, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "crossfree" and not mod_name.startswith("crossfree."):
                continue
            if mod_name.rsplit(".", 1)[-1].startswith("_"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- per-layer metrics -----------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every span recorded so far."""
        child_s: dict[int, float] = {}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_s[rec["parent"]] = child_s.get(rec["parent"], 0.0) + rec["s"]
        by_name: dict[str, list[dict]] = {}
        for rec in self.spans:
            by_name.setdefault(rec["name"], []).append(rec)

        def spans(name):
            return by_name.get(name, [])

        def total(name, key="s"):
            return sum(rec.get(key, 0) for rec in spans(name))

        def self_s(name):
            return sum(rec["s"] - child_s.get(rec["id"], 0.0) for rec in spans(name))

        def frac(num, den):
            return num / den if den else 0.0

        kernel_calls = total("kernel", "calls")
        builds = len(spans("tree.build_tree"))
        return {
            "cli.calls": len(spans("cli.main")),
            "cli.self_s": self_s("cli.main"),
            "families.parse_calls": len(spans("families.parse_family")),
            "families.parse_s": total("families.parse_family"),
            "families.sets_parsed": total("families.parse_family", "sets"),
            "crossing.graph_calls": len(spans("crossing.crossing_graph")),
            "crossing.graph_s": total("crossing.crossing_graph"),
            "crossing.pairs": total("crossing.crossing_graph", "pairs"),
            "crossing.edges": total("crossing.crossing_graph", "edges"),
            "crossing.witness_s": total("crossing.find_pairwise_crossing_witness"),
            "crossing.dilworth_calls": len(spans("crossing.dilworth_partition")),
            "crossing.dilworth_s": total("crossing.dilworth_partition"),
            "kernel.calls": kernel_calls,
            "kernel.s": total("kernel"),
            "kernel.found_frac": frac(total("kernel", "found"), kernel_calls),
            "kernel.cand_bits_mean": frac(total("kernel", "bits_sum"), kernel_calls),
            "kernel.cand_bits_max": max((rec["bits_max"] for rec in spans("kernel")), default=0),
            "search.calls": len(spans("search.max_cross_free")),
            "search.s": total("search.max_cross_free"),
            "search.self_s": self_s("search.max_cross_free"),
            "search.nodes": total("search.max_cross_free", "nodes"),
            "constructions.gen_calls": len(spans("constructions.gen_random_cross_free")),
            "constructions.gen_s": total("constructions.gen_random_cross_free"),
            "constructions.sets_kept": total("constructions.gen_random_cross_free", "sets"),
            "chains.reduce_s": total("chains.weak_reduce"),
            "chains.extract_s": total("chains.extract_disjoint_chains"),
            "chains.select_s": total("chains.select_conditioned_chains"),
            "chains.check_s": total("chains.check_conditions"),
            "chains.selected_frac": frac(
                total("chains.select_conditioned_chains", "i"), total("chains.select_conditioned_chains", "i0")
            ),
            "tree.validate_calls": len(spans("tree.validate_tree")),
            "tree.validate_s": total("tree.validate_tree"),
            "tree.nodes_validated": total("tree.validate_tree", "nodes"),
            "tree.extract_s": total("tree.extract_k_crossing_from_tree"),
            "tree.build_calls": builds,
            "tree.build_s": total("tree.build_tree"),
            "tree.build_ok_frac": frac(total("tree.build_tree", "ok"), builds),
        }
