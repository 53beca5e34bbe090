"""In-memory span tracer for the benchmark's traced run.

The tracer wraps graphsack's public functions from the outside: each
wrapper replaces the name in every graphsack module that binds it (for
example ``build_nice_decomposition`` in both ``connected`` and
``paths``), records one span per call and reads counters off the
returned objects.  Nothing inside ``src/`` changes.

A span is (name, start, end, parent).  Self time is a span's duration
minus the durations of its direct children; spans of one thread nest,
so children never overlap.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array

# (defining module, function, span name).  The span name's prefix is the
# layer that a per-layer metric is reported under.
TARGETS = (
    ("decomposition", "elimination_order_minfill", "decomposition.order"),
    ("decomposition", "build_nice_decomposition", "decomposition.build"),
    ("connected", "solve_connected", "connected.solve"),
    ("paths", "solve_path_treewidth", "paths.treewidth"),
    ("paths", "solve_path_color_sweep", "paths.color"),
    ("paths", "solve_path_tree", "paths.tree"),
    ("shortest", "solve_shortest_path", "shortest.solve"),
    ("approx", "fptas_optimize", "approx.fptas"),
    ("model", "prune_pairs", "model.prune"),
    ("model", "verify_solution", "model.verify"),
    ("model", "instance_from_json", "model.json"),
    ("model", "instance_to_json", "model.json"),
    ("generators", "random_instance", "generators"),
    ("reductions", "reduce_vertex_cover_to_connected", "reductions"),
    ("reductions", "reduce_partial_vc_to_connected", "reductions"),
    ("reductions", "reduce_knapsack_to_star_connected", "reductions"),
    ("reductions", "reduce_hamiltonian_to_path", "reductions"),
    ("reductions", "reduce_knapsack_to_path_gadget", "reductions"),
    ("cli", "main", "cli.main"),
)

# counters read off solver reports, per span name
_STAT_COUNTERS = {
    "connected.solve": ("states_touched", "nodes_expanded"),
    "paths.treewidth": ("states_touched",),
    "paths.color": ("trials_run",),
    "shortest.solve": ("states_touched", "nodes_expanded"),
}


class Tracer:
    """Spans kept in flat arrays so that millions of calls stay small."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.width_max = 0

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time."""
        n = len(self.start)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0}
               for name in self.names}
        for i in range(n):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            row = out[name]
            row["calls"] += 1
            row["total"] += dur
            row["self"] += dur - child_time[i]
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name, start, end, parent index."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f},"
                         f"{self.parent[i]}\n")


def _wrapper(tracer: Tracer, name: str, fn):
    if name == "model.prune":
        @functools.wraps(fn)
        def prune(pairs, *args, **kwargs):
            if not hasattr(pairs, "__len__"):
                pairs = list(pairs)
            idx = tracer.open(name)
            try:
                kept = fn(pairs, *args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count("model.pairs_offered", len(pairs))
            tracer.count("model.pairs_kept", len(kept))
            return kept
        return prune

    counters = _STAT_COUNTERS.get(name, ())

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if name == "decomposition.build":
            tracer.width_max = max(tracer.width_max, result.width)
            tracer.count("decomposition.nodes", len(result.nodes))
        for key in counters:
            tracer.count(f"{name}.{key}", result.stats.get(key, 0))
        return result
    return traced


class Patches:
    """Installs the wrappers into every loaded graphsack module and
    restores the original bindings on exit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "graphsack"
                                         or key.startswith("graphsack."))]
        for modname, attr, name in TARGETS:
            original = getattr(sys.modules[f"graphsack.{modname}"], attr)
            wrapped = _wrapper(self.tracer, name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for mod, key, value in reversed(self._saved):
            setattr(mod, key, value)
        self._saved.clear()
        return False
