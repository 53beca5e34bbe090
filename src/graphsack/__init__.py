"""Knapsack with graph constraints: connected subsets, x-y paths, and
shortest x-y paths, solved exactly (treewidth DP, Pareto-label
Dijkstra, color coding) or approximately (value-scaling FPTAS).  A
submodule is imported on the first use of one of its names (PEP 562)."""
from importlib import import_module

_EXPORTS = {  # {module: the names it exports}
    "approx": "fptas_optimize scale_values",
    "connected": "solve_connected solve_connected_tree",
    "decomposition": "NiceDecomposition build_nice_decomposition decompose "
                     "elimination_order_minfill validate_nice_decomposition",
    "model": "Instance ParetoSet SolveReport Variant VerifyResult "
             "instance_from_json instance_to_json validate_instance "
             "verify_solution",
    "oracles": "oracle_for",
    "paths": "solve_path_color_sweep solve_path_tree solve_path_treewidth",
    "reductions": "KnapsackItems ReductionOutput SourceGraph "
                  "reduce_hamiltonian_to_path reduce_knapsack_to_path_gadget "
                  "reduce_knapsack_to_star_connected "
                  "reduce_partial_vc_to_connected "
                  "reduce_vertex_cover_to_connected",
    "shortest": "solve_shortest_path",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__version__ = "0.1.0"
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
