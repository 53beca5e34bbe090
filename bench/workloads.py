"""The benchmark's three workloads: seeded instances, the timed
operations, and the correctness gate for each operation.

``build(name, seed, workdir)`` is the set-up that ``setup_s`` times:
generating instances (generators, reductions, validate_instance) and,
for ``cli-subprocess``, writing the instance files.  ``Workload.expect``
then computes every expected answer (brute force, recorded reference
frontiers, in-process solves); it is neither timed nor part of set-up.

An operation is one solve call plus ``verify_solution`` on the witness
it returns, or one ``python -m graphsack.cli`` child process.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import graphsack.cli  # noqa: F401  (loaded so traced runs can wrap cli.main)
from graphsack import (approx, connected, errors, generators, model,
                       oracles, paths, reductions, shortest)
from graphsack.model import Variant
from graphsack.reductions import KnapsackItems, SourceGraph

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"
EPSILON = Fraction(1, 4)


@dataclass
class Op:
    family: str
    variant: str                      # connected | path | shortest
    run: Callable[[], object]         # the timed operation
    expect: Callable[[], Callable[[object], Optional[str]]]
    check: Optional[Callable[[object], Optional[str]]] = None
    argv: Optional[list[str]] = None  # CLI arguments, for cli-subprocess


class Workload:
    def __init__(self, name: str, ops: list[Op]):
        self.name = name
        self.ops = ops

    def expect(self) -> None:
        """Compute each operation's expected outcome (not timed)."""
        for op in self.ops:
            op.check = op.expect()


def _variant_key(inst) -> str:
    return {"connected": "connected", "path": "path",
            "shortest_path": "shortest"}[inst.variant.value]


# ---------------------------------------------------------------------
# Brute-force answers to the reduction source problems.  They share no
# code with graphsack.

def _covers(graph: SourceGraph, k: int):
    for r in range(min(k, graph.n) + 1):
        yield from map(set, itertools.combinations(range(graph.n), r))


def min_vertex_cover(graph: SourceGraph) -> int:
    return min(len(c) for c in _covers(graph, graph.n)
               if all(u in c or v in c for u, v in graph.edges))


def vertex_cover_exists(graph: SourceGraph, k: int) -> bool:
    return any(all(u in c or v in c for u, v in graph.edges)
               for c in _covers(graph, k))


def max_partial_cover(graph: SourceGraph, k: int) -> int:
    return max(sum(1 for u, v in graph.edges if u in c or v in c)
               for c in _covers(graph, k))


def knapsack_best(items: KnapsackItems) -> int:
    n = len(items.sizes)
    return max(sum(items.profits[i] for i in pick)
               for r in range(n + 1)
               for pick in itertools.combinations(range(n), r)
               if sum(items.sizes[i] for i in pick) <= items.capacity)


def hamiltonian_path_exists(graph: SourceGraph, x: int, y: int) -> bool:
    edge_set = {(min(u, v), max(u, v)) for u, v in graph.edges}
    middle = [v for v in range(graph.n) if v not in (x, y)]
    return any(all((min(a, b), max(a, b)) in edge_set
                   for a, b in zip(walk, walk[1:]))
               for perm in itertools.permutations(middle)
               for walk in [(x,) + perm + (y,)])


def gnm_graph(rng: random.Random, n: int, m: int) -> SourceGraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SourceGraph(n, tuple(sorted(rng.sample(pairs, m))))


def random_items(rng: random.Random, n: int) -> KnapsackItems:
    return KnapsackItems(tuple(rng.randint(0, 6) for _ in range(n)),
                         tuple(rng.randint(1, 6) for _ in range(n)),
                         rng.randint(4, 12), 0)


# ---------------------------------------------------------------------
# Operation checks.  Each returns None when the outcome is correct and
# a short reason otherwise.

def _run_solve(inst, solver):
    def run():
        report = solver(inst)
        verdict = (model.verify_solution(inst, report.witness)
                   if report.witness is not None else None)
        return report, verdict
    return run


def _check_witness(report, verdict) -> Optional[str]:
    if not report.feasible:
        return None
    if verdict is None:
        return "feasible report without witness"
    if not verdict.ok:
        return f"witness does not verify: {verdict.reason}"
    return None


def _decision_check(want: bool):
    def check(outcome):
        report, verdict = outcome
        if report.feasible != want:
            return f"answer {report.feasible}, source problem says {want}"
        return _check_witness(report, verdict)
    return check


def _frontier_check(pairs: tuple):
    def check(outcome):
        report, verdict = outcome
        if report.frontier.pairs != pairs:
            return f"frontier {report.frontier.pairs} != {pairs}"
        if report.feasible != bool(pairs):
            return "feasibility disagrees with the frontier"
        bad = _check_witness(report, verdict)
        if bad or not pairs:
            return bad
        if (verdict.w, verdict.alpha) != pairs[-1]:
            return "witness is not the best frontier pair"
        return None
    return check


def _one_sided_check(pairs: tuple):
    """Color coding is one-sided: every pair it reports must be matched
    or dominated by the exact frontier, and its witness must verify."""
    def check(outcome):
        report, verdict = outcome
        for w, a in report.frontier.pairs:
            if not any(w2 <= w and a2 >= a for w2, a2 in pairs):
                return f"pair {(w, a)} beats the exact frontier {pairs}"
        bad = _check_witness(report, verdict)
        if bad or not report.feasible:
            return bad
        if (verdict.w, verdict.alpha) != report.frontier.pairs[-1]:
            return "witness is not the best frontier pair"
        return None
    return check


def _fptas_check(pairs: tuple):
    opt = pairs[-1][1] if pairs else None

    def check(outcome):
        report, verdict = outcome
        if report.feasible != (opt is not None):
            return f"feasible={report.feasible} but exact optimum is {opt}"
        bad = _check_witness(report, verdict)
        if bad or opt is None:
            return bad
        if report.frontier.pairs != ((verdict.w, verdict.alpha),):
            return "frontier does not match the witness"
        if verdict.alpha < (1 - EPSILON) * opt:
            return f"value {verdict.alpha} < (1 - eps) * {opt}"
        return None
    return check


# ---------------------------------------------------------------------
# gadgets-decision

def _decision_op(family, inst, solver, want_fn) -> Op:
    return Op(family, _variant_key(inst), _run_solve(inst, solver),
              lambda: _decision_check(want_fn()))


def _connected_early(inst):
    return connected.solve_connected(inst, early_stop=True)


def _path_tw(inst):
    return paths.solve_path_treewidth(inst)


def _shortest(inst):
    return shortest.solve_shortest_path(inst)


def build_gadgets(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    # Vertex cover: k = tau is a tight yes, k = tau - 1 a tight no.  On a
    # "no" gadget early_stop never fires: these 24 operations are the
    # heavy tail, and latency_tail_ms falls inside them.  24 more graphs
    # only as yes gadgets put connected_p50_ms inside the yes cluster.
    for i in range(48):
        g = gnm_graph(rng, 5, 7)
        tau = min_vertex_cover(g)
        for k in (tau, tau - 1)[:1 + (i < 24)]:
            inst = reductions.reduce_vertex_cover_to_connected(g, k).instance
            ops.append(_decision_op(
                "vc", inst, _connected_early,
                lambda g=g, k=k: vertex_cover_exists(g, k)))
    # Partial vertex cover: ell = best coverage by k vertices (yes) or
    # one more (no).
    for _ in range(6):
        g = gnm_graph(rng, 6, 7)
        best = max_partial_cover(g, 2)
        for ell in (best, best + 1):
            inst = reductions.reduce_partial_vc_to_connected(
                g, 2, ell).instance
            ops.append(_decision_op(
                "pvc", inst, _connected_early,
                lambda g=g, ell=ell: max_partial_cover(g, 2) >= ell))
    # Knapsack: star (connected), ladder (path) and ladder (shortest
    # path) on the same items, with a tight yes and a tight no target.
    for _ in range(18):
        base = random_items(rng, 5)
        best = knapsack_best(base)
        for target in (best, best + 1):
            items = replace(base, target=target)
            want = lambda items=items: knapsack_best(items) >= items.target
            ops.append(_decision_op(
                "star", reductions.reduce_knapsack_to_star_connected(
                    items).instance, _connected_early, want))
            ops.append(_decision_op(
                "ladder", reductions.reduce_knapsack_to_path_gadget(
                    items).instance, _path_tw, want))
            ops.append(_decision_op(
                "ladder-sp", reductions.reduce_knapsack_to_path_gadget(
                    items, Variant.SHORTEST_PATH).instance, _shortest, want))
    # Hamiltonian path between vertices 0 and 1.
    for i in range(12):
        g = gnm_graph(rng, 6 + i % 2, 8 + i % 2)
        inst = reductions.reduce_hamiltonian_to_path(g, 0, 1).instance
        ops.append(_decision_op(
            "ham", inst, _path_tw,
            lambda g=g: hamiltonian_path_exists(g, 0, 1)))
    return ops


# ---------------------------------------------------------------------
# random-optimize
#
# Families with a bank are the large instances: too large for the
# brute-force oracles, and the slowest operations, so that the upper
# latency percentiles fall on the same instances whatever the seed.
# They come from fixed generator seeds whose frontiers were recorded
# at the commit that added this benchmark (reference.json, made by
# record.py); the workload seed picks which bank entries run and in
# what order.  All other families are drawn from the workload seed and
# checked against graphsack.oracles.

@dataclass(frozen=True)
class Family:
    name: str
    variant: Variant
    kind: str                 # tree | gnp | grid
    n: int
    count: int                # operations per pass
    s_frac: Fraction          # budget as a share of the total weight
    solve: str                # exact | color | fptas
    p: float = 0.3
    corners: bool = False     # terminals at the grid's opposite corners
    bank: int = 0             # >0: draw from this many recorded seeds


RANDOM_FAMILIES = (
    Family("conn-tree12", Variant.CONNECTED, "tree", 12, 30,
           Fraction(1, 2), "exact"),
    Family("conn-gnp10", Variant.CONNECTED, "gnp", 10, 10,
           Fraction(1, 2), "exact"),
    Family("conn-grid9", Variant.CONNECTED, "grid", 9, 8,
           Fraction(1, 2), "exact"),
    Family("conn-grid16", Variant.CONNECTED, "grid", 16, 4,
           Fraction(1, 2), "exact", bank=4),
    Family("conn-tree40", Variant.CONNECTED, "tree", 40, 2,
           Fraction(1, 2), "exact", bank=2),
    Family("path-gnp11", Variant.PATH, "gnp", 11, 4,
           Fraction(1, 2), "exact"),
    Family("path-grid12", Variant.PATH, "grid", 12, 28,
           Fraction(1, 2), "exact", corners=True),
    Family("path-grid25", Variant.PATH, "grid", 25, 6,
           Fraction(1, 3), "exact", corners=True, bank=6),
    Family("path-grid36", Variant.PATH, "grid", 36, 1,
           Fraction(1, 4), "exact", corners=True, bank=1),
    Family("path-color8", Variant.PATH, "gnp", 8, 2,
           Fraction(1, 2), "color", p=0.4, bank=2),
    Family("sp-gnp12", Variant.SHORTEST_PATH, "gnp", 12, 4,
           Fraction(1, 2), "exact"),
    Family("sp-grid1024", Variant.SHORTEST_PATH, "grid", 1024, 8,
           Fraction(1, 2), "exact", corners=True, bank=8),
    Family("sp-grid2500", Variant.SHORTEST_PATH, "grid", 2500, 4,
           Fraction(1, 2), "exact", corners=True, bank=4),
    Family("fptas-conn-gnp10", Variant.CONNECTED, "gnp", 10, 4,
           Fraction(1, 2), "fptas"),
    Family("fptas-path-gnp11", Variant.PATH, "gnp", 11, 4,
           Fraction(1, 2), "fptas"),
    Family("fptas-sp-grid1024", Variant.SHORTEST_PATH, "grid", 1024, 2,
           Fraction(1, 2), "fptas", corners=True, bank=8),
)

# bank entries of an fptas family share the exact family's recorded seeds
_BANK_OF = {"fptas-sp-grid1024": "sp-grid1024"}


def family_instance(fam: Family, gen_seed: int) -> model.Instance:
    inst = generators.random_instance(fam.variant, fam.kind, fam.n,
                                      gen_seed, p=fam.p)
    changes = {"s": int(sum(inst.weight) * fam.s_frac)}
    if fam.corners:
        changes.update(x=0, y=fam.n - 1)
    return model.validate_instance(replace(inst, **changes))


def bank_name(fam: Family) -> str:
    return _BANK_OF.get(fam.name, fam.name)


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def instance_digest(inst: model.Instance) -> str:
    return hashlib.sha256(model.instance_to_json(inst).encode()).hexdigest()


def exact_solver(variant: Variant) -> Callable:
    # Solvers are looked up on their module at call time, here and in
    # every operation, so that traced runs and the self-test can wrap them.
    if variant is Variant.CONNECTED:
        return lambda inst: connected.solve_connected(inst)
    if variant is Variant.PATH:
        return lambda inst: paths.solve_path_treewidth(inst)
    return lambda inst: shortest.solve_shortest_path(inst)


def _reference_pairs(fam: Family, gen_seed: int, inst) -> Callable:
    def pairs():
        entry = load_reference()[bank_name(fam)][str(gen_seed)]
        if entry["sha256"] != instance_digest(inst):
            raise ValueError(f"{fam.name} seed {gen_seed}: instance "
                             "differs from the recorded one")
        return tuple(tuple(p) for p in entry["frontier"])
    return pairs


def _oracle_pairs(inst) -> Callable:
    def pairs():
        try:
            return oracles.oracle_for(inst).pairs
        except errors.Unreachable:
            return ()
    return pairs


def build_random(seed: int) -> list[Op]:
    rng = random.Random(seed)
    bank = load_reference()
    ops: list[Op] = []
    for fam in RANDOM_FAMILIES:
        if fam.bank:
            gen_seeds = rng.sample(sorted(map(int, bank[bank_name(fam)])),
                                   fam.count)
        else:
            gen_seeds = [rng.randrange(2 ** 31) for _ in range(fam.count)]
        for gen_seed in gen_seeds:
            inst = family_instance(fam, gen_seed)
            pairs = (_reference_pairs(fam, gen_seed, inst) if fam.bank
                     else _oracle_pairs(inst))
            if fam.solve == "exact":
                run = _run_solve(inst, exact_solver(fam.variant))
                make = _frontier_check
            elif fam.solve == "color":
                run = _run_solve(inst, lambda i, s=gen_seed:
                                 paths.solve_path_color_sweep(i, seed=s))
                make = _one_sided_check
            else:
                run = _run_solve(inst, lambda i: approx.fptas_optimize(
                    i, EPSILON))
                make = _fptas_check
            ops.append(Op(fam.name, _variant_key(inst), run,
                          lambda make=make, pairs=pairs: make(pairs())))
    return ops


# ---------------------------------------------------------------------
# cli-subprocess

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("GK_LOG", None)
    return env


def cli_op(family: str, variant: str, argv: list[str],
            expect: Callable[[], Callable]) -> Op:
    cmd = [sys.executable, "-m", "graphsack.cli", *argv]
    env = _child_env()

    def run():
        return subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT,
                              timeout=170)
    return Op(family, variant, run, expect, argv=argv)


def _cli_result_check(code: int, check_doc: Callable[[dict], Optional[str]]):
    def check(proc):
        if proc.returncode != code:
            return (f"exit {proc.returncode}, expected {code}: "
                    f"{proc.stderr.decode(errors='replace')[-200:]}")
        try:
            doc = json.loads(proc.stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return check_doc(doc)
    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _expect_generate(text_fn: Callable[[], str]):
    def expect():
        want = text_fn()

        def check(proc):
            if proc.returncode != 0:
                return f"generate exited {proc.returncode}"
            if proc.stdout.decode() != want:
                return "generated instance differs from the library's"
            return None
        return check
    return expect


def _expect_solve(inst, solver):
    def expect():
        report = solver(inst)
        frontier = [list(p) for p in report.frontier.pairs]

        def check_doc(doc):
            if doc.get("frontier") != frontier:
                return f"CLI frontier {doc.get('frontier')} != {frontier}"
            if doc.get("feasible") != report.feasible:
                return "CLI feasibility differs from the library's"
            if doc.get("best_value") != report.best_value:
                return "CLI best value differs from the library's"
            witness = doc.get("witness")
            if report.feasible and not model.verify_solution(
                    inst, witness).ok:
                return "CLI witness does not verify"
            return None
        return _cli_result_check(0 if report.feasible else 1, check_doc)
    return expect


def _expect_verify(inst, witness_fn: Callable[[], list]):
    def expect():
        result = model.verify_solution(inst, witness_fn())
        want = {"w": result.w, "alpha": result.alpha, "ok": result.ok,
                "reason": result.reason}
        return _cli_result_check(
            0 if result.ok else 1,
            lambda doc: None if doc == want else f"verify said {doc}, "
                                                 f"library says {want}")
    return expect


def _k68_instance(rng: random.Random) -> model.Instance:
    edges = tuple((a, b) for a in range(6) for b in range(6, 14))
    return model.validate_instance(model.Instance(
        variant=Variant.PATH, n=14, edges=edges,
        weight=tuple(rng.randint(0, 8) for _ in range(14)),
        value=tuple(rng.randint(0, 8) for _ in range(14)),
        s=200, x=0, y=6))


def _expect_k68(inst):
    # A Hamiltonian path alternates the two sides of a bipartite graph,
    # so the sides can differ by at most one vertex; 6 and 8 cannot.
    want = {"w": sum(inst.weight), "alpha": sum(inst.value), "ok": False,
            "reason": "not_a_path"}
    return lambda: _cli_result_check(
        1, lambda doc: None if doc == want else f"verify said {doc}")


def _solve_and_write(inst, solver, path: Path) -> Callable[[], list]:
    """Witness file contents for a verify op: the library's witness,
    written during expect()."""
    def witness():
        report = solver(inst)
        wit = (sorted(report.witness) if report.witness is not None
               else [inst.x])
        path.write_text(json.dumps(wit), encoding="utf-8")
        return wit
    return witness


def build_cli(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for rep in range(3):
        d = workdir / f"r{rep}"
        d.mkdir()

        def seeded_instance(variant, kind, n, s_frac=Fraction(1, 2), p=0.3,
                            corners=False):
            fam = Family("", variant, kind, n, 1, s_frac, "exact", p=p,
                         corners=corners)
            return family_instance(fam, rng.randrange(2 ** 31))

        conn = seeded_instance(Variant.CONNECTED, "gnp", 10)
        f_conn = _write(d / "conn.json", model.instance_to_json(conn))
        grid = seeded_instance(Variant.PATH, "grid", 16, corners=True)
        f_grid = _write(d / "grid.json", model.instance_to_json(grid))
        tree = seeded_instance(Variant.PATH, "tree", 300)
        f_tree = _write(d / "tree.json", model.instance_to_json(tree))
        sp = seeded_instance(Variant.SHORTEST_PATH, "grid", 2500,
                             corners=True)
        f_sp = _write(d / "sp.json", model.instance_to_json(sp))
        g = gnm_graph(rng, 5, 6)
        k = rng.randint(1, 4)
        gadget = reductions.reduce_vertex_cover_to_connected(g, k).instance
        f_gadget = _write(d / "vc.json", model.instance_to_json(gadget))
        f_graph = _write(d / "graph.json", json.dumps(
            {"n": g.n, "edges": [list(e) for e in g.edges]}))
        items = replace(random_items(rng, 6), target=rng.randint(6, 20))
        f_items = _write(d / "items.json", json.dumps(
            {"sizes": list(items.sizes), "profits": list(items.profits),
             "capacity": items.capacity, "target": items.target}))
        gen_seed = rng.randrange(2 ** 31)

        def solver_conn(i):
            return connected.solve_connected(i, early_stop=i.d is not None)

        ops += [
            cli_op("generate-gnp", "connected",
                    ["generate", "--random", "gnp", "--n", "12", "--seed",
                     str(gen_seed), "--variant", "connected"],
                    _expect_generate(lambda s=gen_seed: model.instance_to_json(
                        generators.random_instance(Variant.CONNECTED, "gnp",
                                                   12, s, p=0.4)))),
            cli_op("generate-grid", "shortest",
                    ["generate", "--random", "grid", "--n", "400", "--seed",
                     str(gen_seed), "--variant", "shortest_path"],
                    _expect_generate(lambda s=gen_seed: model.instance_to_json(
                        generators.random_instance(Variant.SHORTEST_PATH,
                                                   "grid", 400, s)))),
            cli_op("generate-vc", "connected",
                    ["generate", "--reduction", "vc", "--source-graph",
                     f_graph, "--k", str(k)],
                    _expect_generate(lambda g=g, k=k: model.instance_to_json(
                        reductions.reduce_vertex_cover_to_connected(
                            g, k).instance))),
            cli_op("generate-ladder", "path",
                    ["generate", "--reduction", "ladder", "--items", f_items,
                     "--variant", "path"],
                    _expect_generate(lambda items=items:
                                     model.instance_to_json(
                                         reductions
                                         .reduce_knapsack_to_path_gadget(
                                             items).instance))),
            cli_op("solve-conn", "connected", ["solve", "--input", f_conn],
                    _expect_solve(conn, solver_conn)),
            cli_op("solve-vc-decision", "connected",
                    ["solve", "--input", f_gadget, "--mode", "decision"],
                    _expect_solve(gadget, solver_conn)),
            cli_op("solve-grid", "path", ["solve", "--input", f_grid],
                    _expect_solve(grid, _path_tw)),
            cli_op("solve-tree", "path", ["solve", "--input", f_tree],
                    _expect_solve(tree, lambda i: paths.solve_path_tree(i))),
            cli_op("solve-labels", "shortest", ["solve", "--input", f_sp],
                    _expect_solve(sp, _shortest)),
            cli_op("solve-fptas", "connected",
                    ["solve", "--input", f_conn, "--epsilon", "1/4"],
                    _expect_solve(conn, lambda i: approx.fptas_optimize(
                        i, EPSILON, solver_conn))),
        ]
        for name, variant, inst, f_inst, solver in (
                ("verify-conn", "connected", conn, f_conn, solver_conn),
                ("verify-grid", "path", grid, f_grid, _path_tw),
                ("verify-labels", "shortest", sp, f_sp, _shortest)):
            f_wit = d / f"{name}.witness.json"
            ops.append(cli_op(
                name, variant, ["verify", "--input", f_inst, "--witness",
                                str(f_wit)],
                _expect_verify(inst, _solve_and_write(inst, solver, f_wit))))
        # two non-adjacent vertices: a disconnected set, so exit code 1
        far = next([u, v] for u in range(conn.n) for v in range(u + 1, conn.n)
                   if (u, v) not in conn.edges)
        f_bad = _write(d / "bad.witness.json", json.dumps(far))
        ops.append(cli_op("verify-reject", "connected",
                           ["verify", "--input", f_conn, "--witness", f_bad],
                           _expect_verify(conn, lambda far=far: far)))
    k68 = _k68_instance(rng)
    f_k68 = _write(workdir / "k68.json", model.instance_to_json(k68))
    f_all = _write(workdir / "k68.witness.json", json.dumps(list(range(14))))
    ops.append(cli_op("verify-k68", "path",
                       ["verify", "--input", f_k68, "--witness", f_all],
                       _expect_k68(k68)))
    return ops


# ---------------------------------------------------------------------

def build(name: str, seed: int, workdir: Path) -> Workload:
    if name == "gadgets-decision":
        ops = build_gadgets(seed)
    elif name == "random-optimize":
        ops = build_random(seed)
    elif name == "cli-subprocess":
        ops = build_cli(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(ops)
    return Workload(name, ops)
