"""Exact Connected Knapsack solver: one partition-state DP pass over an
unpinned nice edge tree decomposition.

A DP state at node t is (blocks, closed): one block per connected
component trace of the partial solution in the bag, each a vertex
bitmask (bit v = vertex v) with the blocks sorted, and whether the
partial solution is already one finished component.  Forgetting the
last bag vertex of the only block closes the state; a closed state
admits no more solution vertices.  So the root (empty bag) holds the
empty solution in its open state and every non-empty connected subset
in its closed state.  ``decomposition.run_dp`` carries the (weight,
value) frontiers and their witness masks, and derives each state's key
from its blocks; this module only supplies the rules for solution
vertices: an edge joins the blocks of its ends, and forgetting a
vertex shrinks its block, closes the state, or drops a component cut
off from the rest.
"""
from __future__ import annotations

from collections import ChainMap

from .decomposition import (build_nice_decomposition,
                            elimination_order_minfill, run_dp, union_blocks,
                            vertex_set)
from .model import (Instance, SolveReport, Variant, build_report,
                    require_variant)


class _ConnectedRules:
    """Connectivity-partition states ``(blocks, closed)`` for ``run_dp``."""

    @staticmethod
    def leaf():
        # leaf bags of an unpinned decomposition are empty
        return (), False

    @staticmethod
    def introduce(state, u):
        blocks, closed = state
        if closed:
            return None
        return tuple(sorted(blocks + (1 << u,))), False

    @staticmethod
    def forget(state, u):
        blocks, closed = state
        bit = 1 << u
        block = next(b for b in blocks if b & bit)
        if block != bit:
            return tuple(sorted(b & ~bit for b in blocks)), False
        if len(blocks) == 1:
            return (), True
        # this component left the bag apart from the others and can
        # never reach them any more
        return None

    @staticmethod
    def edge(state, u, v):
        blocks, closed = state
        return [(union_blocks(blocks, (1 << u | 1 << v,)), closed)]

    @staticmethod
    def join(state1, state2):
        if state1[1] and state2[1]:
            return None  # two finished components never connect
        return union_blocks(state1[0], state2[0]), state1[1] or state2[1]


def solve_connected(inst: Instance, early_stop: bool = False) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget, the
    empty set included, from one DP pass.

    ``early_stop`` is accepted for compatibility and ignored: the single
    pass always computes the full frontier.
    """
    require_variant(inst, Variant.CONNECTED)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    nd = build_nice_decomposition(inst, elimination_order_minfill(inst), ())
    # the root bag is empty: its open state holds the empty solution and
    # its closed state every non-empty connected subset; a lookup reads
    # the first root state that holds the pair
    root = ChainMap(*run_dp(inst, nd, _ConnectedRules(), stats).values())
    return build_report(inst, root, lambda p: vertex_set(root[p]), stats)
