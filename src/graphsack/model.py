"""Core data model: instances, Pareto sets, reports, verification.

Everything here is immutable after construction and safe to share
between concurrent solver runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from . import errors


class Variant(str, Enum):
    CONNECTED = "connected"
    PATH = "path"
    SHORTEST_PATH = "shortest_path"


@dataclass(frozen=True)
class Instance:
    """A vertex-weighted, vertex-valued graph with a knapsack budget.

    Vertices are the integers 0..n-1.  ``edges`` is kept normalized:
    each pair (u, v) with u < v, sorted, no duplicates.  ``edge_cost``
    is parallel to ``edges`` and only present for the shortest-path
    variant.  ``d`` is the decision target; ``None`` means optimize.
    """

    variant: Variant
    n: int
    edges: tuple[tuple[int, int], ...]
    weight: tuple[int, ...]
    value: tuple[int, ...]
    s: int
    d: Optional[int] = None
    x: Optional[int] = None
    y: Optional[int] = None
    edge_cost: Optional[tuple[int, ...]] = None

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def cost_map(self) -> dict[tuple[int, int], int]:
        if self.edge_cost is None:
            return {e: 1 for e in self.edges}
        return dict(zip(self.edges, self.edge_cost))

    def total_weight(self, vertices: Iterable[int]) -> int:
        return sum(self.weight[v] for v in vertices)

    def total_value(self, vertices: Iterable[int]) -> int:
        return sum(self.value[v] for v in vertices)


def validate_instance(raw: Instance) -> Instance:
    """Check all instance invariants and return the normalized instance.

    Raises a subclass of ValidationError naming the first violation.
    """
    if raw.n < 0:
        raise errors.IdOutOfRange("vertex count must be non-negative")
    if len(raw.weight) != raw.n or len(raw.value) != raw.n:
        raise errors.IdOutOfRange(
            f"expected {raw.n} weights and values, got "
            f"{len(raw.weight)} and {len(raw.value)}")
    if any(w < 0 for w in raw.weight):
        raise errors.IdOutOfRange("negative vertex weight")
    if any(a < 0 for a in raw.value):
        raise errors.IdOutOfRange("negative vertex value")
    if raw.s < 0:
        raise errors.IdOutOfRange("knapsack size must be non-negative")
    if raw.d is not None and raw.d < 0:
        raise errors.IdOutOfRange("target value must be non-negative")

    costs = raw.edge_cost
    if raw.variant is Variant.SHORTEST_PATH:
        if costs is None:
            costs = tuple(1 for _ in raw.edges)
        if len(costs) != len(raw.edges):
            raise errors.BadInstanceJson("edge_cost length mismatch")
    elif costs is not None:
        raise errors.BadInstanceJson("edge costs only allowed for shortest_path")

    seen = set()
    normalized = []
    for idx, (u, v) in enumerate(raw.edges):
        if u == v:
            raise errors.SelfLoop(f"edge {{{u},{v}}}")
        if not (0 <= u < raw.n and 0 <= v < raw.n):
            raise errors.IdOutOfRange(f"edge {{{u},{v}}} out of range")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise errors.DuplicateEdge(f"edge {{{u},{v}}} appears twice")
        seen.add(key)
        if costs is not None:
            if costs[idx] < 1:
                raise errors.ZeroEdgeCost(
                    f"edge {{{u},{v}}} has cost {costs[idx]}")
            normalized.append((key, costs[idx]))
        else:
            normalized.append((key, None))
    normalized.sort(key=lambda item: item[0])
    edges = tuple(e for e, _ in normalized)
    edge_cost = (tuple(c for _, c in normalized)
                 if raw.variant is Variant.SHORTEST_PATH else None)

    if raw.variant in (Variant.PATH, Variant.SHORTEST_PATH):
        if raw.x is None or raw.y is None:
            raise errors.MissingTerminal("path variants need both x and y")
        for t in (raw.x, raw.y):
            if not (0 <= t < raw.n):
                raise errors.IdOutOfRange(f"terminal {t} out of range")
    elif raw.x is not None or raw.y is not None:
        raise errors.BadInstanceJson("terminals only allowed for path variants")

    return Instance(variant=raw.variant, n=raw.n, edges=edges,
                    weight=tuple(raw.weight), value=tuple(raw.value),
                    s=raw.s, d=raw.d, x=raw.x, y=raw.y, edge_cost=edge_cost)


# ---------------------------------------------------------------------
# Pareto sets

Pair = tuple[int, int]


@dataclass(frozen=True)
class ParetoSet:
    """Mutually undominated (weight, value) pairs.

    Canonical form: strictly increasing in weight AND strictly
    increasing in value.  Ties are resolved before construction
    (equal weight keeps max value, equal value keeps min weight).
    """

    pairs: tuple[Pair, ...] = ()

    def __post_init__(self):
        for (w0, a0), (w1, a1) in zip(self.pairs, self.pairs[1:]):
            if not (w0 < w1 and a0 < a1):
                raise ValueError(f"pareto set not canonical: {self.pairs}")

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __bool__(self):
        return bool(self.pairs)

    def best_value(self) -> Optional[int]:
        return self.pairs[-1][1] if self.pairs else None


def prune_pairs(pairs: Iterable[Pair], cap_s: Optional[int] = None) -> tuple[Pair, ...]:
    """Reduce arbitrary pairs to the canonical undominated frontier."""
    best: dict[int, int] = {}
    for w, a in pairs:
        if cap_s is not None and w > cap_s:
            continue
        if w not in best or a > best[w]:
            best[w] = a
    out: list[Pair] = []
    for w in sorted(best):
        a = best[w]
        if out and out[-1][1] >= a:
            continue  # a lighter pair already matches or beats this value
        out.append((w, a))
    return tuple(out)


# ---------------------------------------------------------------------
# Reports and verification

@dataclass
class SolveReport:
    feasible: bool
    best_value: Optional[int]
    witness: Optional[frozenset[int]]
    frontier: ParetoSet
    stats: dict = field(default_factory=dict)


def build_report(inst: Instance, frontier: ParetoSet,
                 witness_for, stats: Optional[dict] = None) -> SolveReport:
    """Assemble a SolveReport from a frontier and a pair->witness lookup.

    ``witness_for`` maps a frontier pair to a vertex set (or is a dict).
    Decision mode (d set) asks for any pair with value >= d; optimize
    mode is feasible whenever the frontier is non-empty.
    """
    stats = dict(stats or {})
    lookup = witness_for.get if isinstance(witness_for, dict) else witness_for
    best_value = frontier.best_value()
    if not frontier:
        return SolveReport(False, None, None, frontier, stats)
    if inst.d is not None and best_value < inst.d:
        return SolveReport(False, best_value, None, frontier, stats)
    top = frontier.pairs[-1]
    if inst.d is not None:
        # cheapest pair that already meets the target
        for pair in frontier:
            if pair[1] >= inst.d:
                top = pair
                break
    witness = lookup(top)
    return SolveReport(True, best_value,
                       frozenset(witness) if witness is not None else None,
                       frontier, stats)


@dataclass(frozen=True)
class VerifyResult:
    w: int
    alpha: int
    ok: bool
    reason: str


def _induced_connected(inst: Instance, vertices: frozenset[int]) -> bool:
    if not vertices:
        return True
    adj = inst.adjacency()
    start = next(iter(vertices))
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v in vertices and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen == vertices


def _path_orderings(inst: Instance, vertices: frozenset[int],
                    costs: Optional[dict] = None,
                    budget: Optional[int] = None):
    """Yield total edge costs of orderings of ``vertices`` forming an
    x-y path.  With costs=None each edge counts 0 and the first hit
    suffices."""
    x, y = inst.x, inst.y
    if x not in vertices or y not in vertices:
        return
    if x == y:
        if vertices == {x}:
            yield 0
        return
    adj = {u: set() for u in vertices}
    cmap = inst.cost_map()
    for u, v in inst.edges:
        if u in vertices and v in vertices:
            adj[u].add(v)
            adj[v].add(u)

    target_len = len(vertices)
    used = {x}

    def walk(u, cost):
        if len(used) == target_len:
            if u == y:
                yield cost
            return
        for v in adj[u]:
            if v in used or v == y and len(used) != target_len - 1:
                continue
            step = cmap[(min(u, v), max(u, v))] if costs is not None else 0
            if budget is not None and cost + step > budget:
                continue
            used.add(v)
            yield from walk(v, cost + step)
            used.remove(v)

    yield from walk(x, 0)


def _reference_distance(inst: Instance, x: int, y: int) -> Optional[int]:
    """Plain single-criterion Dijkstra, independent of the label solver."""
    import heapq
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    cmap = inst.cost_map()
    for u, v in inst.edges:
        c = cmap[(u, v)]
        adj[u].append((v, c))
        adj[v].append((u, c))
    dist = [None] * inst.n
    heap = [(0, x)]
    while heap:
        du, u = heapq.heappop(heap)
        if dist[u] is not None:
            continue
        dist[u] = du
        for v, c in adj[u]:
            if dist[v] is None:
                heapq.heappush(heap, (du + c, v))
    return dist[y]


def verify_solution(inst: Instance, subset: Iterable[int]) -> VerifyResult:
    """Check a witness against the variant's structural constraint,
    the budget, and (decision mode) the target value."""
    vertices = frozenset(subset)
    for v in vertices:
        if not (0 <= v < inst.n):
            raise errors.IdOutOfRange(f"witness vertex {v} out of range")
    w = inst.total_weight(vertices)
    alpha = inst.total_value(vertices)

    if inst.variant is Variant.CONNECTED:
        if not _induced_connected(inst, vertices):
            return VerifyResult(w, alpha, False, "disconnected")
    elif inst.variant is Variant.PATH:
        if not vertices:
            return VerifyResult(w, alpha, False, "missing_terminal")
        if next(_path_orderings(inst, vertices), None) is None:
            return VerifyResult(w, alpha, False, "not_a_path")
    else:
        if not vertices:
            return VerifyResult(w, alpha, False, "missing_terminal")
        dist = _reference_distance(inst, inst.x, inst.y)
        if dist is None:
            return VerifyResult(w, alpha, False, "unreachable")
        hit = any(cost == dist for cost in
                  _path_orderings(inst, vertices, costs=True, budget=dist))
        if not hit:
            return VerifyResult(w, alpha, False, "not_shortest")

    if w > inst.s:
        return VerifyResult(w, alpha, False, "overweight")
    if inst.d is not None and alpha < inst.d:
        return VerifyResult(w, alpha, False, "below_target")
    return VerifyResult(w, alpha, True, "ok")


# ---------------------------------------------------------------------
# JSON wire format

_REQUIRED_FIELDS = {"version", "variant", "n", "weights", "values", "edges", "s"}
_OPTIONAL_FIELDS = {"d", "x", "y"}


def instance_from_json(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.BadInstanceJson(str(exc)) from exc
    if not isinstance(doc, dict):
        raise errors.BadInstanceJson("instance document must be an object")
    unknown = set(doc) - _REQUIRED_FIELDS - _OPTIONAL_FIELDS
    if unknown:
        raise errors.BadInstanceJson(f"unknown fields: {sorted(unknown)}")
    missing = _REQUIRED_FIELDS - set(doc)
    if missing:
        raise errors.BadInstanceJson(f"missing fields: {sorted(missing)}")
    if doc["version"] != 1:
        raise errors.BadInstanceJson(f"unsupported version {doc['version']}")
    try:
        variant = Variant(doc["variant"])
    except ValueError as exc:
        raise errors.BadInstanceJson(str(exc)) from exc

    edges = []
    costs = []
    for e in doc["edges"]:
        if len(e) == 2:
            edges.append((e[0], e[1]))
            costs.append(1)
        elif len(e) == 3:
            edges.append((e[0], e[1]))
            costs.append(e[2])
        else:
            raise errors.BadInstanceJson(f"bad edge entry {e}")
    inst = Instance(
        variant=variant, n=doc["n"], edges=tuple(edges),
        weight=tuple(doc["weights"]), value=tuple(doc["values"]),
        s=doc["s"], d=doc.get("d"), x=doc.get("x"), y=doc.get("y"),
        edge_cost=tuple(costs) if variant is Variant.SHORTEST_PATH else None)
    return validate_instance(inst)


def instance_to_json(inst: Instance) -> str:
    doc = {
        "version": 1,
        "variant": inst.variant.value,
        "n": inst.n,
        "weights": list(inst.weight),
        "values": list(inst.value),
        "s": inst.s,
    }
    if inst.variant is Variant.SHORTEST_PATH:
        costs = inst.edge_cost or tuple(1 for _ in inst.edges)
        doc["edges"] = [[u, v, c] for (u, v), c in zip(inst.edges, costs)]
    else:
        doc["edges"] = [[u, v] for u, v in inst.edges]
    for key in ("d", "x", "y"):
        val = getattr(inst, key)
        if val is not None:
            doc[key] = val
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
