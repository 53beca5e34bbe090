"""Exact Connected Knapsack solver: one partition-state DP pass over an
unpinned nice edge tree decomposition.

A DP state at node t is (blocks,): one block per connected component
trace of the partial solution in the bag, each a vertex bitmask (bit
v = vertex v), with the blocks sorted.  Forgetting the last bag vertex
of the only block finishes a non-empty connected subset, which leaves
the walk for the root's ``DONE`` cell.  So the root (empty bag) holds
the empty solution in its one state and every non-empty connected
subset in that cell.  ``decomposition.run_dp`` introduces vertices,
carries the (weight, value) frontiers and their witness masks, and
derives each state's key from its blocks; this module only supplies
the rules for solution vertices: an edge or a join merges blocks, and
forgetting a vertex shrinks its block, finishes the solution, or drops
a component cut off from the rest.
"""
from __future__ import annotations

from collections import ChainMap

from .decomposition import (DONE, build_nice_decomposition,
                            elimination_order_minfill, run_dp, union_blocks,
                            vertex_set)
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
        if next(b for b in blocks if b & bit) != bit:
            return (tuple(sorted(b & ~bit for b in blocks)),)
        # u's component left the bag: done, or cut off from the others
        return DONE if len(blocks) == 1 else None

    @staticmethod
    def edge(state, u, v):
        return [(union_blocks(state[0], (1 << u | 1 << v,)),)]

    @staticmethod
    def join(state1, state2):
        return (union_blocks(state1[0], state2[0]),)


def solve_connected(inst: Instance, early_stop: bool = False) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget, the
    empty set included, from one DP pass.

    ``early_stop`` is accepted for compatibility and ignored: the single
    pass always computes the full frontier.
    """
    require_variant(inst, Variant.CONNECTED)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    nd = build_nice_decomposition(inst, elimination_order_minfill(inst), ())
    # the root bag is empty: its one state holds the empty solution and
    # its DONE cell every non-empty connected subset; a lookup reads the
    # first of the two that holds the pair
    root = ChainMap(*run_dp(inst, nd, _ConnectedRules(), stats).values())
    return build_report(inst, root, lambda p: vertex_set(root[p]), stats)
