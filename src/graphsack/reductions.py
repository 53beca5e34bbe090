"""Hardness-reduction gadget generators.

Each generator turns a source instance (Vertex Cover, Knapsack,
Partial Vertex Cover, Hamiltonian Path) into a graph-knapsack instance
whose yes/no answer matches the source's.  They serve as structured
test generators: the provenance record names, for every gadget vertex,
the source item/vertex/edge it came from.

Vertex numbering is fixed so generated files are byte-reproducible:

- vertex_cover_to_connected: cover vertex u_i = i (0 <= i < n), spine
  vertex g_i = n + i, edge vertex h_j = 2n + j where j indexes the
  sorted source edge list.
- partial_vc_to_connected: u_i = i, h_j = n + j, hub g = n + m.
- knapsack_to_star_connected: center 0, item i at vertex i + 1.
- knapsack_to_path_gadget: u_i = 3i (0 <= i <= n), item rung
  v_i = 3i - 2, bypass rung w_i = 3i - 1 (1 <= i <= n).
- hamiltonian_to_path keeps the source graph's numbering.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import Instance, Variant, validate_instance


@dataclass(frozen=True)
class SourceGraph:
    """A plain graph used as reduction input; edge ids lie in range(n)."""
    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not all(0 <= min(e) and max(e) < self.n for e in self.edges):
            raise ValueError("source edge ids must lie in range(n)")

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((min(u, v), max(u, v)) for u, v in self.edges))


@dataclass(frozen=True)
class KnapsackItems:
    """A plain 0/1-knapsack instance used as reduction input."""
    sizes: tuple[int, ...]
    profits: tuple[int, ...]
    capacity: int
    target: int

    def __post_init__(self):
        if len(self.sizes) != len(self.profits):
            raise ValueError("sizes and profits must have one length")


@dataclass(frozen=True)
class ReductionOutput:
    instance: Instance
    provenance: dict


def _edge_vertices(edges, first: int, vertex_of: dict) -> list:
    """Name edge vertex h_j = first + j in ``vertex_of`` for each sorted
    source edge j, and return the gadget edges joining it to both ends."""
    joins = []
    for j, (a, b) in enumerate(edges):
        vertex_of[f"h{j}"] = first + j
        joins += [(a, first + j), (b, first + j)]
    return joins


def _cover_provenance(reduction: str, n: int, edges, vertex_of: dict,
                      **params) -> dict:
    return {
        "reduction": reduction,
        "source": {"n": n, "edges": [list(e) for e in edges], **params},
        "vertex_of": vertex_of,
        "edge_vertex_for": {f"h{j}": list(e) for j, e in enumerate(edges)},
    }


def reduce_vertex_cover_to_connected(graph: SourceGraph,
                                     k: int) -> ReductionOutput:
    """Vertex Cover (G, k) -> Connected Knapsack with s=k, d=m.

    Cover vertices cost 1 and are worth 0; the free g-spine keeps
    them connected; each edge vertex h_j (worth 1, free) hangs off
    both endpoints' cover vertices.  One source edge at k = 0 raises
    ValueError: {h_0} alone is connected and meets d = 1, a yes where
    the source says no.  Every other input keeps its answer.
    """
    n, edges = graph.n, graph.sorted_edges()
    m = len(edges)
    if m == 1 and k == 0:
        raise ValueError("vertex cover gadget refuses one source edge at "
                         "k = 0: its lone edge vertex meets d = 1")
    vertex_of = {}
    for i in range(n):
        vertex_of.update({f"u{i}": i, f"g{i}": n + i})
    gadget_edges = ([(i, n + i) for i in range(n)]
                    + [(n + i, n + i + 1) for i in range(n - 1)]
                    + _edge_vertices(edges, 2 * n, vertex_of))
    inst = validate_instance(Instance(
        variant=Variant.CONNECTED, n=2 * n + m, edges=tuple(gadget_edges),
        weight=(1,) * n + (0,) * (n + m), value=(0,) * (2 * n) + (1,) * m,
        s=k, d=m))
    return ReductionOutput(inst, _cover_provenance(
        "vertex_cover_to_connected", n, edges, vertex_of, k=k))


def reduce_knapsack_to_star_connected(items: KnapsackItems) -> ReductionOutput:
    """Knapsack -> Connected Knapsack on a star; center is free."""
    if not items.sizes:
        raise ValueError("items must be nonempty")
    n = len(items.sizes)
    inst = validate_instance(Instance(
        variant=Variant.CONNECTED, n=n + 1,
        edges=tuple((0, i) for i in range(1, n + 1)),
        weight=(0,) + tuple(items.sizes),
        value=(0,) + tuple(items.profits),
        s=items.capacity, d=items.target))
    provenance = {
        "reduction": "knapsack_to_star_connected",
        "source": {"sizes": list(items.sizes), "profits": list(items.profits),
                   "capacity": items.capacity, "target": items.target},
        "vertex_of": {"center": 0,
                      **{f"item{i}": i + 1 for i in range(n)}},
    }
    return ReductionOutput(inst, provenance)


def reduce_partial_vc_to_connected(graph: SourceGraph, k: int,
                                   ell: int) -> ReductionOutput:
    """Partial Vertex Cover (G, k, l) -> Connected Knapsack, s=k, d=l.

    Like the Vertex Cover gadget but with a single free hub g instead
    of the spine; only covered edges' h_j need joining.  l = 1 at k = 0
    with a source edge raises ValueError for the same lone-h_j reason
    as above.
    """
    n, edges = graph.n, graph.sorted_edges()
    m = len(edges)
    if ell == 1 and k == 0 and m:
        raise ValueError("partial vertex cover gadget refuses l = 1 at "
                         "k = 0 with a source edge: a lone edge vertex "
                         "meets d = 1")
    vertex_of = {**{f"u{i}": i for i in range(n)}, "g": n + m}
    gadget_edges = (_edge_vertices(edges, n, vertex_of)
                    + [(i, n + m) for i in range(n)])
    inst = validate_instance(Instance(
        variant=Variant.CONNECTED, n=n + m + 1, edges=tuple(gadget_edges),
        weight=(1,) * n + (0,) * (m + 1), value=(0,) * n + (1,) * m + (0,),
        s=k, d=ell))
    return ReductionOutput(inst, _cover_provenance(
        "partial_vc_to_connected", n, edges, vertex_of, k=k, ell=ell))


def reduce_hamiltonian_to_path(graph: SourceGraph, x: int,
                               y: int) -> ReductionOutput:
    """Hamiltonian Path (G, x, y) -> Path Knapsack with s=0, d=n."""
    if x == y:
        raise ValueError("terminals must differ")
    inst = validate_instance(Instance(
        variant=Variant.PATH, n=graph.n, edges=graph.sorted_edges(),
        weight=(0,) * graph.n, value=(1,) * graph.n,
        s=0, d=graph.n, x=x, y=y))
    provenance = {
        "reduction": "hamiltonian_to_path",
        "source": {"n": graph.n,
                   "edges": [list(e) for e in graph.sorted_edges()],
                   "x": x, "y": y},
        "vertex_of": {f"v{i}": i for i in range(graph.n)},
    }
    return ReductionOutput(inst, provenance)


def reduce_knapsack_to_path_gadget(items: KnapsackItems,
                                   variant: Variant = Variant.PATH
                                   ) -> ReductionOutput:
    """Knapsack -> Path Knapsack on the width-2 ladder gadget.

    Every x-y path picks, per item i, either the item rung v_i
    (weight theta_i, value p_i) or the free bypass rung w_i, so paths
    are exactly item subsets.  With variant=shortest_path all edge
    costs are 1; every x-y path has 2n edges, so all are shortest and
    the same equivalence holds.

    The provenance carries an explicit width-2 path decomposition
    (bag list) certifying the gadget's pathwidth bound.
    """
    if not items.sizes:
        raise ValueError("items must be nonempty")
    if variant not in (Variant.PATH, Variant.SHORTEST_PATH):
        raise ValueError("gadget variant must be path or shortest_path")
    n = len(items.sizes)
    edges, bags, vertex_of = [], [], {"u0": 0}
    weight, value = [0] * (3 * n + 1), [0] * (3 * n + 1)
    for i in range(1, n + 1):
        u, v, w = 3 * i, 3 * i - 2, 3 * i - 1
        edges += [(u - 3, v), (u - 3, w), (u, v), (u, w)]
        weight[v], value[v] = items.sizes[i - 1], items.profits[i - 1]
        bags += [[u - 3, v, w], [v, w, u]]
        vertex_of.update({f"u{i}": u, f"v{i}": v, f"w{i}": w})
    inst = validate_instance(Instance(
        variant=variant, n=3 * n + 1, edges=tuple(edges),
        weight=tuple(weight), value=tuple(value),
        s=items.capacity, d=items.target, x=0, y=3 * n))
    provenance = {
        "reduction": "knapsack_to_path_gadget",
        "source": {"sizes": list(items.sizes), "profits": list(items.profits),
                   "capacity": items.capacity, "target": items.target},
        "vertex_of": vertex_of,
        "item_vertex_for": {f"v{i}": i - 1 for i in range(1, n + 1)},
        "path_decomposition": bags,
    }
    return ReductionOutput(inst, provenance)
