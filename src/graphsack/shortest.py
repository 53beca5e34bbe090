"""Pareto labels on the shortest x-y path DAG for Shortest-Path Knapsack.

Only minimum-cost x-y paths count, so only the vertices on one carry
labels.  The solver makes three passes:

1. A plain Dijkstra from x records the settle order and stops once y
   settles.
2. A walk back from y along tight edges (dist[z] + c == dist[u]) marks
   every vertex on some shortest x-y path.
3. A replay of the settle order over the marked vertices prunes each
   vertex's (weight, value) cell once, then pushes its pairs along its
   tight edges.  Each pair carries its x-v path as a vertex bitmask
   (bit v = vertex v); a pair keeps the first path that reaches it,
   through the predecessor settled earliest.

Stats: ``nodes_expanded`` counts the vertices settled up to y,
``states_touched`` the pairs kept on the marked vertices, and
``distance`` is dist(x, y); an unreachable y sets
``unreachable = True`` in its place.
"""
from __future__ import annotations

import heapq

from .model import (Instance, SolveReport, Variant, build_report, prune_pairs,
                    require_variant)


def solve_shortest_path(inst: Instance) -> SolveReport:
    """Frontier over all minimum-cost x-y paths within the budget.

    An unreachable y yields an infeasible report with
    ``stats["unreachable"] = True`` rather than an exception, so the
    CLI can distinguish "no path" from "no path cheap enough".
    """
    require_variant(inst, Variant.SHORTEST_PATH)
    n, x, y, s = inst.n, inst.x, inst.y, inst.s
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in inst.cost_map().items():
        adj[u].append((v, c))
        adj[v].append((u, c))

    dist = [float("inf")] * n
    dist[x] = 0
    order = []
    heap = [(0, x)]
    while heap:
        dz, z = heapq.heappop(heap)
        if dz > dist[z]:
            continue  # stale heap entry (lazy decrease-key)
        order.append(z)
        if z == y:
            break
        for u, c in adj[z]:
            du = dz + c
            if du < dist[u]:
                dist[u] = du
                heapq.heappush(heap, (du, u))
    stats = {"nodes_expanded": len(order), "states_touched": 0}
    if order[-1] != y:
        stats["unreachable"] = True
        return build_report(inst, {}, stats)
    stats["distance"] = dist[y]

    # Every tight edge into a settled vertex starts at a settled one: a
    # vertex still unsettled when y settled has dist >= dist[y].
    on_dag = {y}
    stack = [y]
    while stack:
        u = stack.pop()
        for z, c in adj[u]:
            if dist[z] + c == dist[u] and z not in on_dag:
                on_dag.add(z)
                stack.append(z)

    # labels[v]: {pair: the vertex mask of its first push's x-v path}
    labels: dict[int, dict] = {v: {} for v in order if v in on_dag}
    if inst.weight[x] <= s:
        labels[x][(inst.weight[x], inst.value[x])] = 1 << x
    for z, cell in labels.items():
        cell = labels[z] = {p: cell[p] for p in prune_pairs(cell)}
        stats["states_touched"] += len(cell)
        for u, c in adj[z]:
            if u not in labels or dist[z] + c != dist[u]:
                continue
            wu, au = inst.weight[u], inst.value[u]
            target = labels[u]
            for (w, a), mask in cell.items():
                if w + wu <= s:
                    target.setdefault((w + wu, a + au), mask | 1 << u)
    return build_report(inst, labels[y], stats)
