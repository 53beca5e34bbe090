"""Shared helpers: seeded instance streams, the Path DP on a given
decomposition, a decomposition mutation, and brute-force solvers for
the reduction source problems (kept independent of the library)."""
from __future__ import annotations

import itertools
import random

import pytest

from graphsack import Variant
from graphsack.decomposition import DecompNode, NiceDecomposition, run_dp
from graphsack.generators import random_instance
from graphsack.model import build_report
from graphsack.paths import _PathRules
from graphsack.reductions import KnapsackItems, SourceGraph

GRAPH_KINDS = ("tree", "gnp", "gnp", "grid")


def instance_stream(variant, count, base_seed, max_n, **kwargs):
    """Yield ``count`` seeded random instances cycling tree/gnp/grid."""
    for i in range(count):
        kind = GRAPH_KINDS[i % 4]
        n = 2 + i % (max_n - 1)
        p = 0.3 if i % 4 == 1 else 0.6
        yield random_instance(variant, kind, n, base_seed + i, p=p, **kwargs)


def random_source_graph(rng: random.Random, n: int,
                        p: float = 0.45) -> SourceGraph:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p)
    return SourceGraph(n, edges)


def refused_corner(m, k, ell=None):
    """True on the inputs the cover gadgets refuse: one source edge at
    k = 0 for Vertex Cover, and l = 1 at k = 0 with an edge for Partial
    Vertex Cover, where a lone edge vertex would meet d on its own."""
    if ell is None:
        return m == 1 and k == 0
    return ell == 1 and k == 0 and m >= 1


def random_items(rng: random.Random, n: int) -> KnapsackItems:
    return KnapsackItems(tuple(rng.randint(0, 6) for _ in range(n)),
                         tuple(rng.randint(0, 6) for _ in range(n)),
                         rng.randint(0, 12), rng.randint(0, 15))


def path_dp(inst, nd):
    """The Path DP's report on the decomposition ``nd``, which must be
    pinned at {x, y}, in place of the one ``solve_path_treewidth``
    builds."""
    stats = {"nodes_expanded": 0, "states_touched": 0}
    return build_report(inst, run_dp(inst, nd, _PathRules(inst), stats), stats)


def reroute(nd: NiceDecomposition, drop: int | None = None,
            duplicate: int | None = None) -> NiceDecomposition:
    """Delete introduce-edge node ``drop``, its parent adopting its child,
    or insert a copy of node ``duplicate`` right above it, and renumber.
    The nodes stay one tree listed children first, so the result breaks
    only the edge invariant."""
    nodes = list(nd.nodes)
    if drop is not None:
        below = nodes.pop(drop).children[0]

        def new_id(c):
            return below if c == drop else c - (c > drop)
    else:
        def new_id(c):
            return c + (c >= duplicate)  # the parent now holds the copy
    nodes = [DecompNode(node.kind, node.bag, tuple(map(new_id, node.children)),
                        node.vertex, node.edge) for node in nodes]
    if drop is None:
        node = nd.nodes[duplicate]
        nodes.insert(duplicate + 1, DecompNode(node.kind, node.bag,
                                               (duplicate,), node.vertex,
                                               node.edge))
    return NiceDecomposition(tuple(nodes), new_id(nd.root), nd.pinned,
                             nd.width)


# ---------------------------------------------------------------------
# Brute-force answers for the reduction source problems.

def vertex_cover_exists(graph: SourceGraph, k: int) -> bool:
    return any(all(u in cover or v in cover for u, v in graph.edges)
               for r in range(min(k, graph.n) + 1)
               for cover in map(set, itertools.combinations(range(graph.n), r)))


def partial_vertex_cover_exists(graph: SourceGraph, k: int,
                                ell: int) -> bool:
    return any(sum(1 for u, v in graph.edges if u in cover or v in cover)
               >= ell
               for r in range(min(k, graph.n) + 1)
               for cover in map(set, itertools.combinations(range(graph.n), r)))


def knapsack_exists(items: KnapsackItems) -> bool:
    n = len(items.sizes)
    return any(sum(items.sizes[i] for i in pick) <= items.capacity
               and sum(items.profits[i] for i in pick) >= items.target
               for r in range(n + 1)
               for pick in itertools.combinations(range(n), r))


def hamiltonian_path_exists(graph: SourceGraph, x: int, y: int) -> bool:
    edge_set = {(min(u, v), max(u, v)) for u, v in graph.edges}
    middle = [v for v in range(graph.n) if v not in (x, y)]
    for perm in itertools.permutations(middle):
        walk = (x,) + perm + (y,)
        if all((min(a, b), max(a, b)) in edge_set
               for a, b in zip(walk, walk[1:])):
            return True
    return False
