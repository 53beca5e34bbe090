"""Path Knapsack solvers.  A solution is the vertex set of a simple x-y
path; the subgraph it induces may hold more edges.

Three routes with very different profiles: the unique-path walk on
trees, a randomized color-coding search whose trials with k colors
each put x-y paths of every length up to k into one pool, and an
exact segment-state DP over a nice edge tree decomposition pinned at
both terminals.  The segment states are vertex bitmasks: the path
blocks of the bag and the bag vertices at solution degree 1 and 2.
``decomposition.run_dp`` derives each state's key from its blocks,
calls the segment rules only for solution vertices and edges, drops a
state once a vertex of it is short of the edges its degree still needs
(a non-terminal needs degree 2, a terminal 1), and returns the paths
they finish.  All three routes give ``build_report`` each path as its
vertex bitmask (bit v = vertex v).
"""
from __future__ import annotations

import math
import random
from itertools import accumulate
from typing import Optional

from . import errors
from .decomposition import DONE, decompose, run_dp, union_blocks
from .model import (Instance, SolveReport, Variant, build_report, prune_pairs,
                    require_variant)


# ---------------------------------------------------------------------
# Trees: there is exactly one x-y path to check.

def solve_path_tree(inst: Instance) -> SolveReport:
    """Unique-path solver for forests; NotATree on any cycle.  It also
    takes Shortest-Path instances: a forest's one x-y path is the
    shortest."""
    require_variant(inst, Variant.PATH, Variant.SHORTEST_PATH)
    parent = inst.forest_parents(inst.x)
    # the walk starts at x, so y's parents lead back to x unless y lies
    # in another tree, where there is no x-y path
    path = [inst.y]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    if path[-1] != inst.x:
        path = []

    w = inst.total_weight(path)
    stats = {"nodes_expanded": len(path), "states_touched": 1 if path else 0}
    found = ({(w, inst.total_value(path)): sum(1 << v for v in path)}
             if path and w <= inst.s else {})
    return build_report(inst, found, stats)


# ---------------------------------------------------------------------
# Color coding (randomized, one-sided).

def default_trials(k: int) -> int:
    """Trial budget that finds a fixed path on at most k vertices with
    probability >= 95% when coloring with k colors: each trial makes it
    colorful with probability >= e^-k, and (1 - e^-k)^(3e^k) < e^-3."""
    try:
        return math.ceil(3 * math.e ** k)
    except OverflowError:
        raise errors.GraphsackError(f"default budget ceil(3e^k) overflows at "
                                    f"k = {k} colors; set --trials") from None


def solve_path_color_sweep(inst: Instance, seed: int = 0,
                           trials: Optional[int] = None) -> SolveReport:
    """Frontier over x-y paths of every length from one color-coding run.

    The run uses k colors, where k counts the lightest vertices whose
    weights fit in s together (1 when x == y): no longer path fits the
    budget.  Each trial colors the vertices at random, and its level j
    maps ``(colors, v)`` to the undominated colorful x-v paths on j
    vertices with those colors, each (w, alpha) pair to its path's
    vertex mask, in ascending weight; only the current level is kept.
    Cells at y are never expanded, as a colorful path cannot leave y and
    come back to it, and their pairs go into one pool, where each pair
    keeps its first path in trial, level and insertion order.  So one
    trial finds colorful x-y paths of every length j <= k.  A fixed
    j-vertex path is colorful with probability k!/((k-j)! k^j) >=
    k!/k^k >= e^-k, so the default budget ``default_trials(k)`` =
    ceil(3e^k) trials still finds each path with probability >= 95%.
    That is about 1.97e8 trials at k = 18, and until ROADMAP item 10's
    budget lands only ``trials`` (``--trials``) caps it: it replaces the
    default budget and must be positive.

    One-sided: a feasible report carries a verified witness; an
    infeasible report only means no colorful hit within the trial
    budget.  Decision instances stop after the first trial whose pool
    reaches the target value.  Shortest-Path instances are refused: the
    search ignores dist(x, y).
    """
    require_variant(inst, Variant.PATH)
    if trials is not None and trials < 1:
        raise errors.GraphsackError("trials must be positive")
    s, x, y = inst.s, inst.x, inst.y
    weight, value = inst.weight, inst.value
    k = 1 if x == y else max(1, sum(
        total <= s for total in accumulate(sorted(weight))))
    stats = {"nodes_expanded": 0, "states_touched": 0, "trials_run": 0}
    rng = random.Random(seed)
    adj = inst.adjacency()
    start = {(weight[x], value[x]): 1 << x} if weight[x] <= s else {}
    pool = dict(start) if x == y else {}
    for _ in range(trials or default_trials(k)):
        coloring = [rng.randrange(k) for _ in range(inst.n)]
        stats["trials_run"] += 1
        stats["nodes_expanded"] += 1
        level = {(1 << coloring[x], x): start} if start else {}
        for _ in range(1, k):
            nxt: dict[tuple[int, int], dict] = {}
            for (colors, v), cell in level.items():
                if v == y:
                    continue
                lightest = next(iter(cell))[0]
                for u in adj[v]:
                    bit = 1 << coloring[u]
                    wu, au = weight[u], value[u]
                    if colors & bit or lightest + wu > s:
                        continue
                    dst = nxt.setdefault((colors | bit, u), {})
                    for (w, a), mask in cell.items():
                        if w + wu > s:
                            break  # every later pair is heavier
                        dst.setdefault((w + wu, a + au), mask | 1 << u)
            for key, cell in nxt.items():
                # a single pair is already its own frontier
                if len(cell) > 1:
                    nxt[key] = cell = {p: cell[p] for p in prune_pairs(cell)}
                stats["states_touched"] += len(cell)
                if key[1] == y:
                    for pair, mask in cell.items():
                        pool.setdefault(pair, mask)
            level = nxt
        if inst.d is not None and any(a >= inst.d for _, a in pool):
            break
    return build_report(inst, pool, stats)


# ---------------------------------------------------------------------
# Treewidth DP with segment states.

class _PathRules:
    """Segment states ``(blocks, one, two)`` for ``run_dp``: the partial
    solution is a set of vertex-disjoint paths, one block per path's bag
    vertices, and ``one`` and ``two`` are the bag vertices at solution
    degree 1 and 2; all are vertex bitmasks (bit v = vertex v).  A
    terminal may reach degree 1, any other vertex 2, and a vertex leaves
    the bag only at degree 2.  Rules return ``DONE`` for a finished x-y
    path: one block whose degree-1 vertices are x and y, or x == y.  A
    state cannot finish once a vertex has fewer edges to come than its
    degree lacks: a non-terminal at degree 0 with at most one, a
    non-terminal at degree 1 with none, a terminal at degree 0 with
    none."""

    def __init__(self, inst: Instance):
        self.ends = sorted({inst.x, inst.y})
        self.lim1 = 1 << inst.x | 1 << inst.y

    def leaf(self):
        # every bag of the decomposition is pinned at both terminals
        return ((tuple(1 << v for v in self.ends), 0, 0)
                if len(self.ends) == 2 else DONE)

    def alive(self, state, none_left, one_left):
        blocks, one, two = state
        zero = sum(blocks) & ~(one | two)  # taken, at degree 0
        return not (zero & none_left
                    | (zero & one_left | one & none_left) & ~self.lim1)

    def _done(self, *state):
        return DONE if len(state[0]) == 1 and state[1] == self.lim1 else state

    @staticmethod
    def forget(state, u):
        blocks, one, two = state
        bit = 1 << u
        if not two & bit:
            return []  # an open segment end left the bag
        # u lies inside its segment, whose two ends are still in the bag
        return [(tuple(sorted(b & ~bit for b in blocks)), one, two & ~bit)]

    def edge(self, state, u, v):
        blocks, one, two = state
        uv = 1 << u | 1 << v
        if uv & (two | one & self.lim1):
            return [state]  # an endpoint is at its degree limit
        merged = union_blocks(blocks, (uv,))
        if len(merged) == len(blocks):
            return [state]  # closing a cycle
        return [state, self._done(merged, one ^ uv, two | one & uv)]

    def join(self, state1, state2):
        (blocks1, one1, two1), (blocks2, one2, two2) = state1, state2
        used1, used2 = one1 | two1, one2 | two2
        if (two1 & used2) | (used1 & two2) | (one1 & one2 & self.lim1):
            return []  # a degree sum over its limit
        merged = union_blocks(blocks1, blocks2)
        # the blocks of both sides, linked by their shared vertices, must
        # form a forest, or the union closes a cycle
        shared = sum(blocks1).bit_count()
        if len(merged) != len(blocks1) + len(blocks2) - shared:
            return []
        return [self._done(merged, one1 ^ one2, two1 | two2 | one1 & one2)]


def solve_path_treewidth(inst: Instance) -> SolveReport:
    """Exact frontier over all simple x-y paths within the budget.

    The decomposition eliminates G - {x, y} by min-fill and the
    terminals last, as they sit in every bag.  With d set, the walk
    drops every pair that cannot reach d and stops at the first finished
    path that does (``run_dp``).  Shortest-Path instances are refused:
    the DP ignores dist(x, y)."""
    require_variant(inst, Variant.PATH)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    nd = decompose(inst, {inst.x, inst.y})
    return build_report(inst, run_dp(inst, nd, _PathRules(inst), stats), stats)
