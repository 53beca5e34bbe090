"""Core data model: instances, Pareto sets, reports, verification.

``Instance``, ``ParetoSet`` and ``VerifyResult`` are frozen and safe to
share between concurrent solver runs.  ``SolveReport`` is not: its
``stats`` dict is the solver's own, so code that adds to the stats of
a report it did not make copies them first, as ``fptas_optimize`` does.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress
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

    def forest_parents(self, first: Optional[int] = None
                       ) -> dict[int, Optional[int]]:
        """``{vertex: parent}`` from one DFS over every tree, the tree of
        ``first`` first, each root's parent None; a vertex comes after
        its parent.  NotATree on any cycle: at once when m >= n >= 1,
        as a forest has at most n - 1 edges, and else at the first
        vertex reached twice."""
        if self.edges and len(self.edges) >= self.n:
            raise errors.NotATree("graph contains a cycle")
        adj = self.adjacency()
        parent: dict[int, Optional[int]] = {}
        starts = range(self.n) if first is None else (first, *range(self.n))
        for start in starts:
            if start in parent:
                continue
            parent[start] = None
            stack = [(start, None)]
            while stack:
                u, prev = stack.pop()
                for v in adj[u]:
                    if v == prev:
                        continue
                    if v in parent:
                        raise errors.NotATree("graph contains a cycle")
                    parent[v] = u
                    stack.append((v, u))
        return parent

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

    cost_of = {}  # {normalized edge: cost}, cost None off Shortest-Path
    for (u, v), cost in zip(raw.edges, costs or [None] * len(raw.edges)):
        if u == v:
            raise errors.SelfLoop(f"edge {{{u},{v}}}")
        if not (0 <= u < raw.n and 0 <= v < raw.n):
            raise errors.IdOutOfRange(f"edge {{{u},{v}}} out of range")
        key = (min(u, v), max(u, v))
        if key in cost_of:
            raise errors.DuplicateEdge(f"edge {{{u},{v}}} appears twice")
        if costs is not None and cost < 1:
            raise errors.ZeroEdgeCost(f"edge {{{u},{v}}} has cost {cost}")
        cost_of[key] = cost
    edges = tuple(sorted(cost_of))
    edge_cost = tuple(map(cost_of.get, edges)) if costs is not None else None

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


def require_variant(inst: Instance, *variants: Variant) -> None:
    """ValueError unless ``inst`` is of one of ``variants``."""
    if inst.variant not in variants:
        names = " or ".join(v.value for v in variants)
        raise ValueError(f"a {names} instance is required, "
                         f"not {inst.variant.value}")


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


def prune_pairs(pairs: Iterable[Pair]) -> tuple[Pair, ...]:
    """Reduce arbitrary pairs to the canonical undominated frontier.

    The budget is not checked here: every solver drops a pair over s
    where it makes it.
    """
    best: dict[int, int] = {}
    for w, a in pairs:
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


# maps the binary digits of a mask to set flags
_SET = bytes.maketrans(b"01", b"\x00\x01")


def _vertex_set(mask: int, n: int) -> frozenset[int]:
    """The vertices of an n-vertex graph whose bits are set in ``mask``:
    one pass in C over its binary digits, lowest first."""
    return frozenset(compress(range(n),
                              bin(mask)[:1:-1].encode().translate(_SET)))


def build_report(inst: Instance, found: dict, stats: dict) -> SolveReport:
    """Assemble a SolveReport from the solutions a solver found.

    Every solver returns through here.  ``found`` maps each (w, alpha)
    pair, all within s already, to the vertex bitmask (bit v = vertex v)
    of one solution with it; the pairs are pruned to the frontier here,
    and only the reported pair's mask is decoded, as the witness.
    Optimize mode (d unset) reports the whole frontier and its most
    valuable pair, and is feasible whenever the frontier is non-empty.
    Decision mode (d set) reports only its answer: "yes" has the
    lightest pair of value >= d among the pairs handed in as the one
    pair of its frontier and its value as ``best_value``; "no" has an
    empty frontier and no ``best_value``.
    """
    frontier = ParetoSet(prune_pairs(found))
    if inst.d is None:
        top = frontier.pairs[-1] if frontier else None
    else:
        top = next((pair for pair in frontier if pair[1] >= inst.d), None)
        frontier = ParetoSet((top,) if top else ())
    if top is None:
        return SolveReport(False, None, None, frontier, stats)
    return SolveReport(True, top[1], _vertex_set(found[top], inst.n),
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


def _is_path(inst: Instance, vertices: frozenset[int]) -> bool:
    """Whether a simple x-y path visits exactly ``vertices``.

    A depth-first search with an explicit stack of (used, end, untried)
    entries: the vertices used so far as a bitmask, the path's last one
    and its untried neighbours; y is taken only once every other vertex
    is used.  A (used, end) state whose search failed is never entered
    again (Held-Karp), so k vertices take O(2^k k^2) time and memory
    that grows with the failed states."""
    x, y = inst.x, inst.y
    if x not in vertices or y not in vertices:
        return False
    if x == y:
        return vertices == {x}
    # vertices are their bits (1 << v) throughout
    adj: dict[int, list[int]] = {1 << u: [] for u in vertices}
    for u, v in inst.edges:
        if u in vertices and v in vertices:
            adj[1 << u].append(1 << v)
            adj[1 << v].append(1 << u)
    y_bit = 1 << y
    all_but_y = sum(adj) & ~y_bit
    failed: set[tuple[int, int]] = set()
    stack = [(1 << x, 1 << x, iter(adj[1 << x]))]
    while stack:
        used, end, untried = stack[-1]
        for bit in untried:
            if bit == y_bit:
                if used == all_but_y:
                    return True
            elif not used & bit and (used | bit, bit) not in failed:
                stack.append((used | bit, bit, iter(adj[bit])))
                break
        else:
            failed.add((used, end))
            stack.pop()
    return False


def _reference_distances(inst: Instance, x: int) -> list[Optional[int]]:
    """Plain single-criterion Dijkstra from x, independent of the label
    solver; None marks an unreachable vertex."""
    import heapq
    adj: list[list[tuple[int, int]]] = [[] for _ in range(inst.n)]
    for (u, v), c in zip(inst.edges,
                         inst.edge_cost or (1,) * len(inst.edges)):
        adj[u].append((v, c))
        adj[v].append((u, c))
    # dist holds the best distance found so far, and an entry is pushed
    # only when it improves one, so an entry above dist[u] is stale
    dist: list[Optional[int]] = [None] * inst.n
    dist[x] = 0
    heap = [(0, x)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, c in adj[u]:
            if dist[v] is None or du + c < dist[v]:
                dist[v] = du + c
                heapq.heappush(heap, (du + c, v))
    return dist


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
    elif not vertices:
        return VerifyResult(w, alpha, False, "missing_terminal")
    elif inst.variant is Variant.PATH:
        if not _is_path(inst, vertices):
            return VerifyResult(w, alpha, False, "not_a_path")
    else:
        dist = _reference_distances(inst, inst.x)
        if dist[inst.y] is None:
            return VerifyResult(w, alpha, False, "unreachable")
        # costs are >= 1, so distances from x rise strictly along a
        # shortest path: sorted by distance (an unreachable vertex
        # first), the set must run from x to y, each step an edge whose
        # cost is the rise in distance
        order = sorted(vertices, key=lambda v: -1 if dist[v] is None
                       else dist[v])
        cmap = inst.cost_map()
        if order[0] != inst.x or order[-1] != inst.y or any(
                cmap.get((min(u, v), max(u, v))) != dist[v] - dist[u]
                for u, v in zip(order, order[1:])):
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


def is_int_list(seq) -> bool:
    """Whether ``seq`` is a JSON list of integers; bools are not
    integers here."""
    return type(seq) is list and all(type(v) is int for v in seq)


def json_object(text: str, required: set[str],
                optional: set[str] = frozenset()) -> dict:
    """``text`` parsed as a JSON object with every ``required`` field and
    no field outside ``required`` and ``optional``; BadInstanceJson
    otherwise, nesting too deep for the parser included."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise errors.BadInstanceJson(str(exc)) from exc
    if not isinstance(doc, dict):
        raise errors.BadInstanceJson("document must be a JSON object")
    unknown = set(doc) - required - optional
    if unknown:
        raise errors.BadInstanceJson(f"unknown fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise errors.BadInstanceJson(f"missing fields: {sorted(missing)}")
    return doc


def instance_from_json(text: str) -> Instance:
    doc = json_object(text, _REQUIRED_FIELDS, _OPTIONAL_FIELDS)
    try:
        variant = Variant(doc["variant"])
    except ValueError as exc:
        raise errors.BadInstanceJson(str(exc)) from exc
    edges = doc["edges"]
    scalars = [doc["version"], doc["n"], doc["s"]] + [
        doc[key] for key in _OPTIONAL_FIELDS if doc.get(key) is not None]
    if not (is_int_list(scalars) and is_int_list(doc["weights"])
            and is_int_list(doc["values"]) and type(edges) is list
            and all(is_int_list(e) and len(e) in (2, 3) for e in edges)):
        raise errors.BadInstanceJson(
            "version, n, s, d, x, y, weights and values must be integers, "
            "and each edge [u, v] or [u, v, cost] in integers")
    if doc["version"] != 1:
        raise errors.BadInstanceJson(f"unsupported version {doc['version']}")
    # a cost on any edge goes through, for validate_instance to refuse
    # on a variant without edge costs
    costed = variant is Variant.SHORTEST_PATH or any(
        len(e) == 3 for e in edges)
    inst = Instance(
        variant=variant, n=doc["n"], edges=tuple((e[0], e[1]) for e in edges),
        weight=tuple(doc["weights"]), value=tuple(doc["values"]),
        s=doc["s"], d=doc.get("d"), x=doc.get("x"), y=doc.get("y"),
        edge_cost=tuple(e[2] if len(e) == 3 else 1 for e in edges)
        if costed else None)
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
