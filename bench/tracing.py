"""Span tracing around ncg's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every name a caller
resolves it by (``ncg.cli.is_nash``, ``ncg.equilibrium.is_nash``, ...),
so calls between modules are recorded too. A span is
``[name, start, end, parent_index, job_id]``; spans stay in memory until
the run ends. Forked pool workers stop recording (their spans would be
lost with the worker), so their time shows up as the self time of the
parent's span that waited for them, ``equilibrium.enumerate_equilibria``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

# Traced functions, as "<module>.<function>" under the ncg package.
TRACED = (
    "cli.run",
    "profiles.load_profile",
    "game.build_graph", "game.agent_cost", "game.social_cost",
    "game.eccentricity", "game.distances_from", "game.all_pairs_distances",
    "equilibrium.enumerate_equilibria", "equilibrium.isomorphism_canonical_code",
    "equilibrium.best_response_exact", "equilibrium.is_nash",
    "equilibrium.improving_move_heuristic",
    "equilibrium.search_nontree_equilibria",
    "equilibrium.best_response_dynamics",
    "optimum.price_of_anarchy", "optimum.optimum_bruteforce",
    "structure.audit_equilibrium_structure", "structure.girth",
    "structure.shortest_cycle", "structure.min_cycle_through_edge",
    "structure.is_min_cycle", "structure.biconnected_components",
    "structure.component_subgraph", "structure.closest_assignment",
    "structure.shortest_path_tree", "structure.shopping_vertices",
    "structure.two_degree_paths",
)

_MODULES = ("ncg", "ncg.cli", "ncg.profiles", "ncg.game", "ncg.equilibrium",
            "ncg.optimum", "ncg.structure")


def _count_nash(counts, result, call):
    counts["equilibrium.is_nash.nash"] += bool(result.is_nash)


def _count_hit(counts, result, call):
    counts["equilibrium.improving_move_heuristic.hits"] += result is not None


def _count_found(counts, result, call):
    counts["equilibrium.search_nontree_equilibria.found"] += len(result)
    counts["equilibrium.search_nontree_equilibria.iterations"] += call().arguments["iterations"]


# Outcome counters feeding the ratio metrics. Each sees the return value and
# a callable that binds the call's arguments to the function's parameters.
_OBSERVERS = {
    "equilibrium.is_nash": _count_nash,
    "equilibrium.improving_move_heuristic": _count_hit,
    "equilibrium.search_nontree_equilibria": _count_found,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts = dict.fromkeys(
            ("equilibrium.is_nash.nash", "equilibrium.improving_move_heuristic.hits",
             "equilibrium.search_nontree_equilibria.found",
             "equilibrium.search_nontree_equilibria.iterations"), 0)
        self.job = None
        self.recording = True
        os.register_at_fork(after_in_child=self._stop_recording)

    def _stop_recording(self):
        self.recording = False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span = [name, clock(), None, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe:
                observe(self.counts, result, lambda: signature.bind(*args, **kwargs))
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever an ncg module binds it."""
        modules = [importlib.import_module(m) for m in _MODULES]
        for name in TRACED:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"ncg.{module_name}"], func_name)
            wrapped = self._wrap(name, original)
            for module in modules:
                if getattr(module, func_name, None) is original:
                    setattr(module, func_name, wrapped)

    def summary(self) -> dict:
        """Calls and self time per traced name, top-level time per job."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = dict.fromkeys(TRACED, 0)
        self_s = dict.fromkeys(TRACED, 0.0)
        top_level = {}
        for i, (name, start, end, parent, job) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            if parent < 0:
                top_level[job] = top_level.get(job, 0.0) + (end - start)
        return {"calls": calls, "self_s": self_s, "counts": dict(self.counts),
                "top_level_s": top_level}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,job\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{job}\n")


def layer_metrics(summary: dict) -> dict:
    """Raw per-layer values of one traced run, keyed by metric name."""
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = summary["calls"][name]
        out[f"{name}.self_s"] = summary["self_s"][name]
    counts = summary["counts"]

    def ratio(num, den):
        return num / den if den else 0.0

    out["equilibrium.is_nash.nash_ratio"] = ratio(
        counts["equilibrium.is_nash.nash"], summary["calls"]["equilibrium.is_nash"])
    out["equilibrium.improving_move_heuristic.hit_ratio"] = ratio(
        counts["equilibrium.improving_move_heuristic.hits"],
        summary["calls"]["equilibrium.improving_move_heuristic"])
    out["equilibrium.search_nontree_equilibria.found_ratio"] = ratio(
        counts["equilibrium.search_nontree_equilibria.found"],
        counts["equilibrium.search_nontree_equilibria.iterations"])
    return out
