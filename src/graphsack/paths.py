"""Path Knapsack solvers.

Three routes with very different profiles: the unique-path walk on
trees, a randomized color-coding search parameterized by the path
length, and an exact segment-state DP over a nice edge tree
decomposition pinned at both terminals.
"""
from __future__ import annotations

import math
import random
import time
from typing import Optional

from . import errors
from .decomposition import (FORGET_VERTEX, INTRODUCE_EDGE, INTRODUCE_VERTEX,
                            JOIN, LEAF, NiceDecomposition,
                            build_nice_decomposition,
                            elimination_order_minfill, trace_witness)
from .model import (Instance, ParetoSet, SolveReport, Variant, build_report,
                    prune_pairs)


def _require_path_variant(inst: Instance):
    if inst.variant not in (Variant.PATH, Variant.SHORTEST_PATH):
        raise ValueError("solver requires a path variant instance")


# ---------------------------------------------------------------------
# Trees: there is exactly one x-y path to check.

def solve_path_tree(inst: Instance) -> SolveReport:
    """Unique-path solver for forests; NotATree on any cycle."""
    _require_path_variant(inst)
    t0 = time.perf_counter()
    adj = inst.adjacency()
    parent: dict[int, Optional[int]] = {}
    for start in range(inst.n):
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

    # climb to the root from both terminals and splice at the meeting point
    def root_chain(v):
        chain = [v]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        return chain

    cx = root_chain(inst.x)
    cy = root_chain(inst.y)
    if cx[-1] != cy[-1]:
        raise errors.NoPath(f"{inst.x} and {inst.y} are in different components")
    sx, sy = set(cx), set(cy)
    meet = next(v for v in cx if v in sy)
    path = cx[:cx.index(meet) + 1] + list(reversed(cy[:cy.index(meet)]))

    w = inst.total_weight(path)
    a = inst.total_value(path)
    stats = {"nodes_expanded": len(path), "states_touched": 1,
             "wall_time": time.perf_counter() - t0}
    if w > inst.s:
        return SolveReport(False, None, None, ParetoSet(), stats)
    return build_report(inst, ParetoSet(((w, a),)),
                        {(w, a): frozenset(path)}, stats)


# ---------------------------------------------------------------------
# Color coding (randomized, one-sided).

def _colorful_trial(inst: Instance, adj: list[list[int]], k: int,
                    coloring: list[int], stats: dict):
    """One DP run for a fixed coloring.  Returns {pair: path_tuple} of
    undominated x-y paths on exactly k distinct colors."""
    s = inst.s
    weight, value = inst.weight, inst.value
    full = (1 << k) - 1

    # table[(mask, v)] = {pair: predecessor (mask', v', pair') or None}
    base_mask = 1 << coloring[inst.x]
    table: dict[tuple[int, int], dict] = {}
    if weight[inst.x] <= s:
        table[(base_mask, inst.x)] = {
            (weight[inst.x], value[inst.x]): None}
    level = list(table.keys())
    for _ in range(1, k):
        nxt: dict[tuple[int, int], dict] = {}
        for (mask, v) in level:
            cell = table[(mask, v)]
            for u in adj[v]:
                bit = 1 << coloring[u]
                if mask & bit:
                    continue
                key = (mask | bit, u)
                dst = nxt.setdefault(key, {})
                for (w, a) in cell:
                    if w + weight[u] <= s:
                        dst.setdefault((w + weight[u], a + value[u]),
                                       (mask, v, (w, a)))
        for key, cell in nxt.items():
            keep = prune_pairs(cell.keys(), s)
            table[key] = {p: cell[p] for p in keep}
        level = list(nxt.keys())
        stats["states_touched"] += sum(len(table[key]) for key in nxt)

    found = {}
    cell = table.get((full, inst.y))
    if not cell:
        return found
    for pair in cell:
        path = []
        cur = (full, inst.y, pair)
        while cur is not None:
            mask, v, p = cur
            path.append(v)
            cur = table[(mask, v)][p]
        found[pair] = tuple(reversed(path))
    return found


def _color_pool(inst: Instance, k: int, trials: int, seed: int,
                stats: dict) -> dict:
    """Run the trial loop; returns {pair: witness vertex set}."""
    rng = random.Random(seed)
    adj = inst.adjacency()
    pool: dict[tuple[int, int], frozenset[int]] = {}
    for _ in range(trials):
        coloring = [rng.randrange(k) for _ in range(inst.n)]
        stats["trials_run"] += 1
        stats["nodes_expanded"] += 1
        for pair, path in _colorful_trial(inst, adj, k, coloring,
                                          stats).items():
            pool.setdefault(pair, frozenset(path))
        if inst.d is not None and any(a >= inst.d for _, a in pool):
            break
    return pool


def solve_path_color_coding(inst: Instance, k: int, trials: int,
                            seed: int = 0) -> SolveReport:
    """Randomized search for x-y paths on exactly k vertices.

    One-sided: a feasible report carries a verified witness; an
    infeasible report only means no colorful hit within the trial
    budget.  Decision instances stop at the first trial that reaches
    the target value.
    """
    _require_path_variant(inst)
    if not 1 <= k <= inst.n:
        raise errors.GraphsackError(f"k={k} out of range 1..{inst.n}")
    if trials < 1:
        raise errors.GraphsackError("trials must be positive")
    t0 = time.perf_counter()
    stats = {"nodes_expanded": 0, "states_touched": 0, "trials_run": 0}
    if k == 1 and inst.x != inst.y:
        pool = {}
    else:
        pool = _color_pool(inst, k, trials, seed, stats)
    frontier = ParetoSet(prune_pairs(pool.keys(), inst.s))
    stats["wall_time"] = time.perf_counter() - t0
    return build_report(inst, frontier, pool, stats)


def default_trials(k: int) -> int:
    """Trial budget giving >= 95% success on yes-instances."""
    return math.ceil(3 * math.e ** k)


def solve_path_color_sweep(inst: Instance, seed: int = 0,
                           trials: Optional[int] = None) -> SolveReport:
    """Sweep the path length k = 1..n and merge the frontiers.

    Still one-sided overall, but with the default per-k budget each
    length is found with probability >= 95%.
    """
    _require_path_variant(inst)
    t0 = time.perf_counter()
    pool: dict[tuple[int, int], frozenset[int]] = {}
    stats = {"nodes_expanded": 0, "states_touched": 0, "trials_run": 0}
    k_hi = 1 if inst.x == inst.y else inst.n
    k_lo = 1 if inst.x == inst.y else 2
    for k in range(k_lo, k_hi + 1):
        budget = trials if trials is not None else default_trials(k)
        for pair, wit in _color_pool(inst, k, budget, seed + k,
                                     stats).items():
            pool.setdefault(pair, wit)
        if inst.d is not None and any(a >= inst.d for _, a in pool):
            break
    frontier = ParetoSet(prune_pairs(pool.keys(), inst.s))
    stats["wall_time"] = time.perf_counter() - t0
    return build_report(inst, frontier, pool, stats)


# ---------------------------------------------------------------------
# Treewidth DP with segment states.

SegState = tuple[tuple, tuple]  # (blocks, ((vertex, degree), ...))


def _canon_segments(blocks, degs) -> SegState:
    return (tuple(sorted((frozenset(b) for b in blocks if b), key=min)),
            tuple(sorted(degs.items())))


def _deg_limit(inst: Instance, v: int) -> int:
    if inst.x == inst.y:
        return 0 if v == inst.x else 2
    if v in (inst.x, inst.y):
        return 1
    return 2


def _path_tables(inst: Instance, nd: NiceDecomposition, stats: dict):
    s = inst.s
    weight, value = inst.weight, inst.value
    x, y = inst.x, inst.y
    tables: dict[int, dict[SegState, dict]] = {}

    for nid in nd.postorder():
        node = nd.nodes[nid]
        stats["nodes_expanded"] += 1
        out: dict[SegState, dict] = {}

        if node.kind == LEAF:
            if x == y:
                if weight[x] <= s:
                    st = _canon_segments([{x}], {x: 0})
                    out[st] = {(weight[x], value[x]): ("leaf",)}
            else:
                w0 = weight[x] + weight[y]
                if w0 <= s:
                    st = _canon_segments([{x}, {y}], {x: 0, y: 0})
                    out[st] = {(w0, value[x] + value[y]): ("leaf",)}

        elif node.kind == INTRODUCE_VERTEX:
            child = node.children[0]
            u = node.vertex
            wu, au = weight[u], value[u]
            for state, cell in tables[child].items():
                # u stays outside the partial solution
                out[state] = {p: ("copy", child, state, p) for p in cell}
                blocks, degs = state
                st_in = _canon_segments(list(blocks) + [{u}],
                                        dict(degs) | {u: 0})
                shifted = {}
                for (w, a) in cell:
                    if w + wu <= s:
                        shifted[(w + wu, a + au)] = ("add", child, state,
                                                     (w, a), u)
                if shifted:
                    out[st_in] = shifted

        elif node.kind == FORGET_VERTEX:
            child = node.children[0]
            u = node.vertex
            for state, cell in tables[child].items():
                blocks, degs = state
                dmap = dict(degs)
                if u not in dmap:
                    new_state = state
                elif dmap[u] == 2:
                    idx = next(i for i, b in enumerate(blocks) if u in b)
                    if len(blocks[idx]) == 1:
                        continue  # component lost its last bag vertex
                    del dmap[u]
                    nb = list(blocks)
                    nb[idx] = blocks[idx] - {u}
                    new_state = _canon_segments(nb, dmap)
                else:
                    # an open segment end left the bag: dead state
                    continue
                dst = out.setdefault(new_state, {})
                for p in cell:
                    dst.setdefault(p, ("copy", child, state, p))

        elif node.kind == INTRODUCE_EDGE:
            child = node.children[0]
            u, v = node.edge
            for state, cell in tables[child].items():
                dst = out.setdefault(state, {})
                for p in cell:
                    dst.setdefault(p, ("copy", child, state, p))
                blocks, degs = state
                dmap = dict(degs)
                if u not in dmap or v not in dmap:
                    continue
                if dmap[u] >= _deg_limit(inst, u) or dmap[v] >= _deg_limit(inst, v):
                    continue
                iu = next(i for i, b in enumerate(blocks) if u in b)
                iv = next(i for i, b in enumerate(blocks) if v in b)
                if iu == iv:
                    continue  # closing a cycle
                dmap[u] += 1
                dmap[v] += 1
                nb = [b for i, b in enumerate(blocks) if i not in (iu, iv)]
                nb.append(blocks[iu] | blocks[iv])
                new_state = _canon_segments(nb, dmap)
                dst2 = out.setdefault(new_state, {})
                for p in cell:
                    dst2.setdefault(p, ("copy", child, state, p))

        elif node.kind == JOIN:
            c1, c2 = node.children
            by_insol: dict[frozenset, list] = {}
            for state, cell in tables[c2].items():
                insol = frozenset(v for v, _ in state[1])
                by_insol.setdefault(insol, []).append((state, cell))
            for state1, cell1 in tables[c1].items():
                insol = frozenset(v for v, _ in state1[1])
                partners = by_insol.get(insol)
                if not partners:
                    continue
                d1 = dict(state1[1])
                w_off = sum(weight[v] for v in insol)
                a_off = sum(value[v] for v in insol)
                for state2, cell2 in partners:
                    d2 = dict(state2[1])
                    dsum = {v: d1[v] + d2[v] for v in insol}
                    if any(dv > _deg_limit(inst, v)
                           for v, dv in dsum.items()):
                        continue
                    merged_blocks = _acyclic_union(insol, state1[0], state2[0])
                    if merged_blocks is None:
                        continue
                    new_state = _canon_segments(merged_blocks, dsum)
                    dst = out.setdefault(new_state, {})
                    for p1 in cell1:
                        for p2 in cell2:
                            w = p1[0] + p2[0] - w_off
                            if w > s:
                                continue
                            pair = (w, p1[1] + p2[1] - a_off)
                            dst.setdefault(pair, ("join", c1, state1, p1,
                                                  c2, state2, p2))
        else:
            raise AssertionError(node.kind)

        pruned = {}
        for st, cell in out.items():
            keep = prune_pairs(cell.keys(), s)
            if keep:
                pruned[st] = {p: cell[p] for p in keep}
        stats["states_touched"] += sum(len(c) for c in pruned.values())
        tables[nid] = pruned
    return tables


def _acyclic_union(insol, blocks1, blocks2):
    """Union two segment partitions; None when the union closes a cycle."""
    parent = {v: v for v in insol}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for block in blocks1:
        it = iter(block)
        first = find(next(it))
        for v in it:
            parent[find(v)] = first
    for block in blocks2:
        it = iter(sorted(block))
        prev = next(it)
        for v in it:
            ra, rb = find(prev), find(v)
            if ra == rb:
                return None
            parent[ra] = rb
            prev = v
    classes: dict[int, set] = {}
    for v in insol:
        classes.setdefault(find(v), set()).add(v)
    return list(classes.values())


def solve_path_treewidth(inst: Instance,
                         nd: Optional[NiceDecomposition] = None) -> SolveReport:
    """Exact frontier over all simple x-y paths within the budget."""
    _require_path_variant(inst)
    t0 = time.perf_counter()
    pinned = {inst.x, inst.y}
    if nd is None:
        order = elimination_order_minfill(inst)
        nd = build_nice_decomposition(inst, order, pinned)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    tables = _path_tables(inst, nd, stats)
    if inst.x == inst.y:
        accept = _canon_segments([{inst.x}], {inst.x: 0})
    else:
        accept = _canon_segments([{inst.x, inst.y}], {inst.x: 1, inst.y: 1})
    cell = tables[nd.root].get(accept, {})
    frontier = ParetoSet(prune_pairs(cell.keys(), inst.s))
    stats["wall_time"] = time.perf_counter() - t0
    return build_report(
        inst, frontier,
        lambda p: trace_witness(tables, nd.root, accept, p, pinned), stats)
