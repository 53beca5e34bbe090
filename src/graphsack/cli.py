"""Command-line front end: solve, generate, verify, decompose.

stdout carries machine-readable JSON only; stderr carries nothing but
an error, as one ``error:`` line.  ``solve`` looks its solver up in one
``{engine: {variant: solver}}`` table, ``auto`` included.  Exit codes:
0 solved/feasible, 1 infeasible, 2 usage or validation error.  Each
command imports the modules it uses when it runs, and no others.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional

from . import errors
from .model import (Instance, SolveReport, Variant, build_report,
                    instance_from_json, instance_to_json, is_int_list,
                    json_object, verify_solution)

ENGINES = ("auto", "treewidth", "color", "labels", "tree", "oracle")


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _oracle(inst: Instance) -> SolveReport:
    from .oracles import oracle_witnesses
    try:
        found, stats = oracle_witnesses(inst), {}
    except errors.Unreachable:
        found, stats = {}, {"unreachable": True}
    return build_report(inst, found, stats)


def _engines(seed: int, trials: Optional[int]) -> dict:
    """{engine: {variant: solver}} over ``ENGINES``, each solver read off
    its module on each call, so that a solver rebound there is the one
    that runs.  On Path, ``auto`` runs the tree solver, whose own walk
    is the forest check, and else the treewidth DP."""
    from . import connected, paths, shortest

    def path_auto(inst: Instance) -> SolveReport:
        try:
            return paths.solve_path_tree(inst)
        except errors.NotATree:
            return paths.solve_path_treewidth(inst)
    return {
        "auto": {Variant.CONNECTED: connected.solve_connected,
                 Variant.PATH: path_auto,
                 Variant.SHORTEST_PATH: shortest.solve_shortest_path},
        "treewidth": {Variant.CONNECTED: connected.solve_connected,
                      Variant.PATH: paths.solve_path_treewidth},
        "color": {Variant.PATH: lambda inst: paths.solve_path_color_sweep(
            inst, seed=seed, trials=trials)},
        "labels": {Variant.SHORTEST_PATH: shortest.solve_shortest_path},
        "tree": dict.fromkeys((Variant.PATH, Variant.SHORTEST_PATH),
                              paths.solve_path_tree),
        "oracle": dict.fromkeys(Variant, _oracle),
    }


def _report_doc(report: SolveReport) -> dict:
    return {
        "feasible": report.feasible,
        "best_value": report.best_value,
        "witness": sorted(report.witness) if report.witness is not None
        else None,
        "frontier": [[w, a] for w, a in report.frontier],
        "stats": report.stats,
    }


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    inst = instance_from_json(_read(args.input))
    if args.mode == "decision" and inst.d is None:
        raise errors.EngineMismatch("decision mode needs d in the instance")
    if args.mode == "optimize" and inst.d is not None:
        inst = replace(inst, d=None)
    solver = _engines(args.seed, args.trials)[args.engine].get(inst.variant)
    if solver is None:
        raise errors.EngineMismatch(f"engine {args.engine} does not handle "
                                    f"variant {inst.variant.value}")
    if args.epsilon is None:
        report = solver(inst)
    else:
        from .approx import fptas_optimize
        report = fptas_optimize(inst, args.epsilon, solver)
    _emit(_report_doc(report))
    return 0 if report.feasible else 1


def cmd_generate(args) -> int:
    provenance = None
    if args.reduction is not None:
        out = _make_reduction(args)
        inst, provenance = out.instance, out.provenance
    else:
        from .generators import random_instance
        inst = random_instance(
            Variant(args.variant), args.random, args.n, args.seed,
            max_weight=args.max_weight, max_value=args.max_value,
            p=args.p, decision=args.decision)
    text = instance_to_json(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        if provenance is not None:
            side = args.output + ".provenance.json"
            with open(side, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(provenance, indent=2, sort_keys=True)
                         + "\n")
    else:
        sys.stdout.write(text)
    return 0


def _load_source_graph(path: str) -> tuple[int, tuple]:
    doc = json_object(_read(path), {"n", "edges"})
    n, edges = doc["n"], doc["edges"]
    if not (type(n) is int and type(edges) is list and all(
            is_int_list(e) and len(e) == 2 for e in edges)):
        raise errors.BadInstanceJson(
            "n must be an integer and each edge a pair of integers")
    return n, tuple(map(tuple, edges))


def _load_items(path: str) -> tuple[tuple, tuple, int, int]:
    doc = json_object(_read(path), {"sizes", "profits", "capacity",
                                    "target"})
    sizes, profits = doc["sizes"], doc["profits"]
    if not (is_int_list(sizes) and is_int_list(profits)
            and is_int_list([doc["capacity"], doc["target"]])):
        raise errors.BadInstanceJson(
            "sizes and profits must be integer lists, and capacity and "
            "target integers")
    return tuple(sizes), tuple(profits), doc["capacity"], doc["target"]


def _make_reduction(args):
    """The ``reductions.ReductionOutput`` that ``--reduction`` names."""
    from . import reductions
    name = args.reduction
    if name in ("vc", "pvc", "ham"):
        if not args.source_graph:
            raise errors.BadInstanceJson(f"--reduction {name} needs "
                                         "--source-graph")
        graph = reductions.SourceGraph(
            *_load_source_graph(args.source_graph))
        if name == "vc":
            return reductions.reduce_vertex_cover_to_connected(graph, args.k)
        if name == "pvc":
            return reductions.reduce_partial_vc_to_connected(graph, args.k,
                                                             args.ell)
        return reductions.reduce_hamiltonian_to_path(graph, args.x, args.y)
    if not args.items:
        raise errors.BadInstanceJson(f"--reduction {name} needs --items")
    items = reductions.KnapsackItems(*_load_items(args.items))
    if name == "star":
        return reductions.reduce_knapsack_to_star_connected(items)
    return reductions.reduce_knapsack_to_path_gadget(
        items, Variant(args.variant) if args.variant != "connected"
        else Variant.PATH)


def cmd_verify(args) -> int:
    inst = instance_from_json(_read(args.input))
    try:
        witness = json.loads(_read(args.witness))
    except RecursionError as exc:
        raise errors.BadInstanceJson(str(exc)) from exc
    if not is_int_list(witness):
        raise errors.BadInstanceJson("witness must be a JSON list of ints")
    result = verify_solution(inst, witness)
    _emit({"w": result.w, "alpha": result.alpha, "ok": result.ok,
           "reason": result.reason})
    return 0 if result.ok else 1


def cmd_decompose(args) -> int:
    inst = instance_from_json(_read(args.input))
    pinned = []
    if args.pin:
        try:
            pinned = [int(tok) for tok in args.pin.split(",")]
        except ValueError as exc:
            raise errors.BadInstanceJson(f"bad --pin value: {args.pin}") from exc
    from .decomposition import decompose, validate_nice_decomposition
    nd = decompose(inst, pinned)
    validate_nice_decomposition(inst, nd)
    _emit(nd.to_doc())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsack",
        description="Knapsack with graph constraints: connected subsets, "
                    "x-y paths, and shortest x-y paths.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--engine", default="auto", choices=ENGINES)
    p.add_argument("--mode", default="optimize",
                   choices=["decision", "optimize"])
    p.add_argument("--epsilon", default=None,
                   help="approximate mode, e.g. 1/4 or 0.25")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None,
                   help="total trial budget of the one color-coding run, "
                        "which must be positive (default: ceil(3e^k) for k "
                        "colors)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("generate", help="emit a random or gadget instance")
    p.add_argument("--reduction", default=None,
                   choices=["vc", "star", "pvc", "ham", "ladder"])
    p.add_argument("--source-graph", default=None,
                   help="JSON {n, edges} for vc/pvc/ham")
    p.add_argument("--items", default=None,
                   help="JSON {sizes, profits, capacity, target} for "
                        "star/ladder")
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--ell", type=int, default=0)
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--y", type=int, default=1)
    p.add_argument("--random", default="tree",
                   choices=["tree", "gnp", "grid"])
    p.add_argument("--variant", default="connected",
                   choices=["connected", "path", "shortest_path"])
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-weight", type=int, default=8)
    p.add_argument("--max-value", type=int, default=8)
    p.add_argument("--p", type=float, default=0.4)
    p.add_argument("--decision", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("verify", help="check a witness against an instance")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose",
                       help="emit a nice edge tree decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--pin", default=None, help="comma-separated vertex ids")
    p.set_defaults(func=cmd_decompose)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (errors.GraphsackError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
