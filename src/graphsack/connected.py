"""Exact Connected Knapsack solver: one partition-state DP pass over an
unpinned nice edge tree decomposition.

A DP state at node t is (blocks,): one block per connected component
trace of the partial solution in the bag, each a vertex bitmask (bit
v = vertex v), with the blocks sorted.  Forgetting the last bag vertex
of the only block returns ``DONE``: a non-empty connected subset is
finished and leaves the walk for the ``{pair: vertex set}`` frontier
that ``run_dp`` returns, which with the empty solution ``(0, 0): ()``
prunes to the whole frontier in ``build_report``.
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


def solve_connected(inst: Instance, early_stop: bool = False) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget, the
    empty set included, from one DP pass.  With d set, the pass drops
    every pair that cannot reach d and stops at the first finished
    component that does (``run_dp``), and the report is the decision
    answer.  ``early_stop`` is accepted for old callers and ignored:
    decision mode always stops."""
    require_variant(inst, Variant.CONNECTED)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    # run_dp returns the non-empty connected subsets; add the empty one
    found = run_dp(inst, decompose(inst), _ConnectedRules(), stats)
    return build_report(inst, {**found, (0, 0): ()}, stats)
