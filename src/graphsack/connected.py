"""Exact Connected Knapsack solvers: a rooted-subtree Pareto DP on
forests, and one partition-state DP pass over an unpinned nice edge
tree decomposition on any graph.

A DP state at node t is (blocks,): one block per connected component
trace of the partial solution in the bag, each a vertex bitmask (bit
v = vertex v), with the blocks sorted.  Forgetting the last bag vertex
of the only block returns ``DONE``: a non-empty connected subset is
finished and leaves the walk for the ``{pair: mask}`` cell that
``run_dp`` returns, which with the empty solution ``(0, 0): 0`` prunes
to the whole frontier in ``build_report``.
``decomposition.run_dp`` introduces vertices, carries the (weight,
value) frontiers and their witnesses, and derives each state's key
from its blocks; this module only supplies the rules for solution
vertices: an edge or a join merges blocks, and forgetting a vertex
shrinks its block, finishes the solution, or drops a component cut off
from the rest.  A state whose block has no edge to come at any of its
vertices, beside another block, is cut off already: that block is
sealed and can never meet the others, and ``run_dp`` drops the state
where it becomes so.
"""
from __future__ import annotations

from . import errors
from .decomposition import DONE, decompose, run_dp, union_blocks
from .model import (Instance, SolveReport, Variant, build_report,
                    require_variant)


class _ConnectedRules:
    """Connectivity-partition states ``(blocks,)`` for ``run_dp``."""

    @staticmethod
    def leaf():
        # leaf bags of an unpinned decomposition are empty
        return ((),)

    @staticmethod
    def forget(state, u):
        blocks, bit = state[0], 1 << u
        if bit not in blocks:  # blocks are disjoint: u's is not u alone
            return [(tuple(sorted(b & ~bit for b in blocks)),)]
        # u's component left the bag: done, or cut off from the others
        return [DONE] if len(blocks) == 1 else []

    @staticmethod
    def alive(state, none_left, one_left):
        blocks = state[0]
        return len(blocks) < 2 or all(b & ~none_left for b in blocks)

    @staticmethod
    def edge(state, u, v):
        return [(union_blocks(state[0], (1 << u | 1 << v,)),)]

    @staticmethod
    def join(state1, state2):
        return [(union_blocks(state1[0], state2[0]),)]


def solve_connected_tree(inst: Instance) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget on a
    forest, the empty set included; NotATree on any cycle.

    A connected subset of a forest is a subtree with one top vertex v.
    F(v), the frontier of the subtrees topped by v as (w, alpha, mask)
    in ascending weight, starts at v's own pair and takes in each child
    c as F(v) x (F(c) + {(0, 0)}), cut at s and pruned to its frontier.
    Each finished F(v) feeds one weight-keyed best, where a set replaces
    an earlier one only with a larger value.  ``nodes_expanded`` counts
    the vertices and ``states_touched`` the pairs of every F(v)."""
    require_variant(inst, Variant.CONNECTED)
    n, s = inst.n, inst.s
    parent = inst.forest_parents()
    table = [[(w, a, 1 << v)] if w <= s else []
             for v, (w, a) in enumerate(zip(inst.weight, inst.value))]
    best = {0: (0, 0)}  # {w: (alpha, mask)}, from the empty set
    stats = {"nodes_expanded": n, "states_touched": 0}
    for v in reversed(parent):  # children before parents
        fv, table[v] = table[v], None
        stats["states_touched"] += len(fv)
        for w, a, m in fv:
            if w not in best or a > best[w][0]:
                best[w] = a, m
        p = parent[v]
        if p is None or not fv or not table[p]:
            continue
        fp = table[p]
        out = {w: (a, m) for w, a, m in fp}  # c takes nothing
        for wp, ap, mp in fp:
            for wc, ac, mc in fv:
                w = wp + wc
                if w > s:
                    break  # F(c) ascends in weight
                if w not in out or ap + ac > out[w][0]:
                    out[w] = ap + ac, mp | mc
        table[p], top = [], -1
        for w in sorted(out):
            a, m = out[w]
            if a > top:
                table[p].append((w, a, m))
                top = a
    return build_report(inst, {(w, a): m for w, (a, m) in best.items()}, stats)


def solve_connected(inst: Instance, early_stop: bool = False) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget, the
    empty set included.  In optimize mode (d unset) a forest takes the
    rooted-subtree DP (``solve_connected_tree``), whose ``stats`` count
    vertices and subtree pairs; every other graph, and every decision
    solve, takes one partition-state DP pass, whose ``stats`` count
    decomposition nodes and states.  With d set, the pass drops
    every pair that cannot reach d and stops at the first finished
    component that does (``run_dp``), and the report is the decision
    answer.  ``early_stop`` is accepted for old callers and ignored:
    decision mode always stops."""
    require_variant(inst, Variant.CONNECTED)
    if inst.d is None:
        try:
            return solve_connected_tree(inst)
        except errors.NotATree:
            pass  # a cycle: the partition-state DP below
    stats = {"nodes_expanded": 0, "states_touched": 0}
    # run_dp returns the non-empty connected subsets; add the empty one
    found = run_dp(inst, decompose(inst), _ConnectedRules(), stats)
    return build_report(inst, {**found, (0, 0): 0}, stats)
