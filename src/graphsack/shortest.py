"""Pareto-label Dijkstra for Shortest-Path Knapsack.

A plain Dijkstra sweep where each vertex additionally carries the
undominated (weight, value) frontier over the shortest x-v paths found
so far.  A strict distance improvement resets the frontier; an equal
distance merges it.
"""
from __future__ import annotations

import heapq

from .model import Instance, SolveReport, Variant, build_report, prune_pairs


def solve_shortest_path(inst: Instance) -> SolveReport:
    """Frontier over all minimum-cost x-y paths within the budget.

    An unreachable y yields an infeasible report with
    ``stats["unreachable"] = True`` rather than an exception, so the
    CLI can distinguish "no path" from "no path cheap enough".
    """
    if inst.variant is not Variant.SHORTEST_PATH:
        raise ValueError("solve_shortest_path requires the shortest_path variant")
    n = inst.n
    cmap = inst.cost_map()
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), c in cmap.items():
        adj[u].append((v, c))
        adj[v].append((u, c))

    INF = float("inf")
    settled = [False] * n
    delta = [INF] * n
    # labels[v]: {pair: (pred_vertex, pred_pair) or None}
    labels: list[dict] = [{} for _ in range(n)]

    delta[inst.x] = 0
    if inst.weight[inst.x] <= inst.s:
        labels[inst.x] = {(inst.weight[inst.x], inst.value[inst.x]): None}
    heap: list[tuple[int, int]] = [(0, inst.x)]
    stats = {"nodes_expanded": 0, "states_touched": 0}

    while heap:
        dz, z = heapq.heappop(heap)
        if settled[z] or dz > delta[z]:
            continue  # stale heap entry (lazy decrease-key)
        settled[z] = True
        stats["nodes_expanded"] += 1
        for u, c in adj[z]:
            if settled[u]:
                continue
            du = dz + c
            if du > delta[u]:
                continue
            if du < delta[u]:
                delta[u] = du
                labels[u] = {}
                heapq.heappush(heap, (du, u))
            wu, au = inst.weight[u], inst.value[u]
            cell = labels[u]
            for (w, a) in labels[z]:
                if w + wu <= inst.s:
                    cell.setdefault((w + wu, a + au), (z, (w, a)))
            keep = prune_pairs(cell.keys())
            labels[u] = {p: cell[p] for p in keep}
            stats["states_touched"] += len(keep)

    stats["distances"] = [None if d == INF else d for d in delta]
    if delta[inst.y] == INF:
        stats["unreachable"] = True  # and labels[inst.y] stays empty

    def witness_for(pair):
        path = []
        v, p = inst.y, pair
        while True:
            path.append(v)
            ref = labels[v][p]
            if ref is None:
                break
            v, p = ref
        return path

    return build_report(inst, labels[inst.y], witness_for, stats)
