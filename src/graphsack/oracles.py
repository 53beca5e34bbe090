"""Brute-force reference solvers, used as ground truth in tests.

These deliberately share no code with the real solvers beyond the
Pareto-set type.  Hard size guards keep them from exploding in CI.
"""
from __future__ import annotations

from . import errors
from .model import Instance, ParetoSet, Variant, prune_pairs

MAX_CONNECTED_N = 20
MAX_PATH_N = 12


def _connected_found(inst: Instance) -> dict:
    """{pair: the first connected subset with it} over all connected
    subsets (the empty set first) within the budget."""
    if inst.n > MAX_CONNECTED_N:
        raise errors.TooLarge(f"n={inst.n} exceeds {MAX_CONNECTED_N}")
    adj_mask = [0] * inst.n
    for u, v in inst.edges:
        adj_mask[u] |= 1 << v
        adj_mask[v] |= 1 << u

    found = {(0, 0): 0}
    for mask in range(1, 1 << inst.n):
        w = a = 0
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            w += inst.weight[v]
            a += inst.value[v]
            m &= m - 1
        if w > inst.s or (w, a) in found:
            continue
        # flood fill within the subset
        start = mask & -mask
        seen = start
        frontier = start
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            grow = adj_mask[v] & mask & ~seen
            seen |= grow
            frontier |= grow
        if seen == mask:
            found[(w, a)] = mask
    return found


def _all_simple_paths(inst: Instance):
    """Yield every simple x-y path as a vertex tuple (in order)."""
    x, y = inst.x, inst.y
    if x == y:
        yield (x,)
        return
    adj = inst.adjacency()
    path = [x]
    on_path = {x}

    def extend(u):
        for v in adj[u]:
            if v in on_path:
                continue
            if v == y:
                yield tuple(path) + (y,)
                continue
            path.append(v)
            on_path.add(v)
            yield from extend(v)
            path.pop()
            on_path.remove(v)

    yield from extend(x)


def _paths_found(inst: Instance) -> dict:
    """{pair: the first simple x-y path with it} within the budget."""
    if inst.n > MAX_PATH_N:
        raise errors.TooLarge(f"n={inst.n} exceeds {MAX_PATH_N}")
    found = {}
    for path in _all_simple_paths(inst):
        w = inst.total_weight(path)
        if w <= inst.s:
            found.setdefault((w, inst.total_value(path)),
                             sum(1 << v for v in path))
    return found


def _shortest_paths_found(inst: Instance) -> dict:
    """{pair: the first minimum-cost simple x-y path with it} within the
    budget, in one pass that starts afresh at each cheaper path.  Raises
    Unreachable when no x-y path exists at all."""
    if inst.n > MAX_PATH_N:
        raise errors.TooLarge(f"n={inst.n} exceeds {MAX_PATH_N}")
    cmap = inst.cost_map()
    best_cost, found = None, {}
    for path in _all_simple_paths(inst):
        cost = sum(cmap[(min(u, v), max(u, v))]
                   for u, v in zip(path, path[1:]))
        if best_cost is None or cost < best_cost:
            best_cost, found = cost, {}
        if cost == best_cost and (w := inst.total_weight(path)) <= inst.s:
            found.setdefault((w, inst.total_value(path)),
                             sum(1 << v for v in path))
    if best_cost is None:
        raise errors.Unreachable(f"no path from {inst.x} to {inst.y}")
    return found


def oracle_witnesses(inst: Instance) -> dict:
    """{pair: the vertex mask of the first solution the enumeration met
    with it} over every solution of ``inst``'s variant within the budget."""
    return {Variant.CONNECTED: _connected_found,
            Variant.PATH: _paths_found,
            Variant.SHORTEST_PATH: _shortest_paths_found}[inst.variant](inst)


def oracle_for(inst: Instance) -> ParetoSet:
    """Exact frontier over every solution of ``inst``'s variant within
    the budget; Shortest-Path raises Unreachable when no x-y path
    exists at all."""
    return ParetoSet(prune_pairs(oracle_witnesses(inst)))
