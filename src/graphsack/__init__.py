"""Knapsack with graph constraints: connected subsets, x-y paths, and
shortest x-y paths, solved exactly (treewidth DP, Pareto-label
Dijkstra, color coding) or approximately (value-scaling FPTAS)."""

from .approx import ScaledInstance, fptas_optimize, scale_values
from .connected import solve_connected
from .decomposition import (NiceDecomposition, build_nice_decomposition,
                            decompose, elimination_order_minfill,
                            validate_nice_decomposition)
from .model import (Instance, ParetoSet, SolveReport, Variant, VerifyResult,
                    instance_from_json, instance_to_json, validate_instance,
                    verify_solution)
from .oracles import oracle_for
from .paths import (solve_path_color_sweep, solve_path_tree,
                    solve_path_treewidth)
from .reductions import (KnapsackItems, ReductionOutput, SourceGraph,
                         reduce_hamiltonian_to_path,
                         reduce_knapsack_to_path_gadget,
                         reduce_knapsack_to_star_connected,
                         reduce_partial_vc_to_connected,
                         reduce_vertex_cover_to_connected)
from .shortest import solve_shortest_path

__version__ = "0.1.0"

__all__ = [
    "Instance", "ParetoSet", "SolveReport", "Variant", "VerifyResult",
    "NiceDecomposition", "ScaledInstance", "ReductionOutput",
    "SourceGraph", "KnapsackItems",
    "validate_instance", "verify_solution",
    "instance_from_json", "instance_to_json",
    "elimination_order_minfill", "build_nice_decomposition",
    "validate_nice_decomposition", "decompose",
    "solve_connected",
    "solve_path_tree", "solve_path_color_sweep", "solve_path_treewidth",
    "solve_shortest_path",
    "scale_values", "fptas_optimize",
    "oracle_for",
    "reduce_vertex_cover_to_connected", "reduce_knapsack_to_star_connected",
    "reduce_partial_vc_to_connected", "reduce_hamiltonian_to_path",
    "reduce_knapsack_to_path_gadget",
    "__version__",
]
