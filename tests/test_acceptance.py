"""End-to-end acceptance checks, one test per release criterion.

These run at larger scale than the per-module suites and assert the
wall-clock budgets directly; everything here must stay green before a
release is cut.
"""
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import graphsack
from graphsack import (Instance, Variant, build_nice_decomposition,
                       elimination_order_minfill, fptas_optimize,
                       oracle_for, scale_values, solve_connected,
                       solve_path_color_sweep, solve_path_treewidth,
                       solve_shortest_path, validate_instance,
                       validate_nice_decomposition, verify_solution)
from graphsack.paths import default_trials
from graphsack import errors
from graphsack.decomposition import INTRODUCE_EDGE
from graphsack.generators import random_instance
from graphsack.model import _reference_distances, instance_to_json
from graphsack.reductions import (reduce_hamiltonian_to_path,
                                  reduce_knapsack_to_path_gadget,
                                  reduce_knapsack_to_star_connected,
                                  reduce_partial_vc_to_connected,
                                  reduce_vertex_cover_to_connected)
from conftest import (hamiltonian_path_exists, instance_stream,
                      knapsack_exists, partial_vertex_cover_exists,
                      random_items, random_source_graph, refused_corner,
                      reroute, vertex_cover_exists)


def test_connected_oracle_equivalence_300():
    start = time.perf_counter()
    for inst in instance_stream(Variant.CONNECTED, 300, 20000, 10):
        inst = replace(inst, s=min(inst.s, 20))
        assert (solve_connected(inst).frontier.pairs
                == oracle_for(inst).pairs), inst
    assert time.perf_counter() - start < 60


def test_path_oracle_equivalence_300():
    start = time.perf_counter()
    for inst in instance_stream(Variant.PATH, 300, 21000, 10):
        assert (solve_path_treewidth(inst).frontier.pairs
                == oracle_for(inst).pairs), inst
    assert time.perf_counter() - start < 120


def test_shortest_path_oracle_and_distance_agreement_300():
    start = time.perf_counter()
    for inst in instance_stream(Variant.SHORTEST_PATH, 300, 22000, 12):
        report = solve_shortest_path(inst)
        try:
            expect = oracle_for(inst).pairs
        except errors.Unreachable:
            expect = None
            assert report.stats.get("unreachable"), inst
        if expect is not None:
            assert report.frontier.pairs == expect, inst
        assert (report.stats.get("distance")
                == _reference_distances(inst, inst.x)[inst.y]), inst
        if report.feasible:
            assert verify_solution(inst, report.witness).ok, inst
    assert time.perf_counter() - start < 60


def test_fptas_guarantee_150_per_variant():
    epsilons = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))
    for variant, base in ((Variant.CONNECTED, 23000),
                          (Variant.PATH, 24000),
                          (Variant.SHORTEST_PATH, 25000)):
        for inst in instance_stream(variant, 150, base, 10):
            try:
                opt = oracle_for(inst).best_value()
            except errors.Unreachable:
                opt = None
            for eps in epsilons:
                scaled, alpha_max = scale_values(inst, eps)
                if alpha_max != 0:
                    assert (sum(scaled.value)
                            <= math.ceil(inst.n ** 2 / eps)), (inst, eps)
                report = fptas_optimize(inst, eps)
                if opt is None:
                    assert not report.feasible, inst
                    continue
                assert report.feasible, (inst, eps)
                assert report.best_value >= (1 - eps) * opt, (inst, eps)


def test_reduction_yes_no_preservation_100_each():
    start = time.perf_counter()

    rng = random.Random(26000)
    done = 0
    while done < 100:
        g = random_source_graph(rng, 4 + done % 5)
        k = rng.randint(0, g.n)
        if refused_corner(len(g.edges), k):
            continue
        inst = reduce_vertex_cover_to_connected(g, k).instance
        assert (solve_connected(inst, early_stop=True).feasible
                == vertex_cover_exists(g, k)), (g, k)
        done += 1

    rng = random.Random(26100)
    done = 0
    while done < 100:
        g = random_source_graph(rng, 4 + done % 5)
        k = rng.randint(0, 3)
        ell = rng.randint(0, len(g.edges))
        if refused_corner(len(g.edges), k, ell):
            continue
        inst = reduce_partial_vc_to_connected(g, k, ell).instance
        assert (solve_connected(inst, early_stop=True).feasible
                == partial_vertex_cover_exists(g, k, ell)), (g, k, ell)
        done += 1

    rng = random.Random(26200)
    for i in range(100):
        items = random_items(rng, 1 + i % 6)
        want = knapsack_exists(items)
        star = reduce_knapsack_to_star_connected(items).instance
        assert solve_connected(star, early_stop=True).feasible == want, items
        ladder = reduce_knapsack_to_path_gadget(items).instance
        assert solve_path_treewidth(ladder).feasible == want, items

    rng = random.Random(26300)
    for i in range(100):
        g = random_source_graph(rng, 4 + i % 4, p=0.5)
        inst = reduce_hamiltonian_to_path(g, 0, 1).instance
        assert (solve_path_treewidth(inst).feasible
                == hamiltonian_path_exists(g, 0, 1)), g

    assert time.perf_counter() - start < 120


def test_vertex_cover_gadget_degree_audit():
    # on sources of maximum degree three, the gadget stays degree <= 4
    rng = random.Random(26400)
    for trial in range(30):
        n = 4 + trial % 5
        edges = []
        degree = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if degree[u] < 3 and degree[v] < 3 and rng.random() < 0.5:
                    edges.append((u, v))
                    degree[u] += 1
                    degree[v] += 1
        from graphsack.reductions import SourceGraph
        inst = reduce_vertex_cover_to_connected(
            SourceGraph(n, tuple(edges)), 2).instance
        out_degree = [0] * inst.n
        for u, v in inst.edges:
            out_degree[u] += 1
            out_degree[v] += 1
        assert max(out_degree, default=0) <= 4, edges


def test_ladder_gadget_path_decomposition_audit():
    rng = random.Random(26500)
    for i in range(30):
        items = random_items(rng, 1 + i % 6)
        out = reduce_knapsack_to_path_gadget(items)
        bags = out.provenance["path_decomposition"]
        assert max(len(b) for b in bags) <= 3  # width <= 2
        for u, v in out.instance.edges:
            assert any(u in b and v in b for b in bags), (items, (u, v))
        for v in range(out.instance.n):
            hits = [j for j, b in enumerate(bags) if v in b]
            assert hits == list(range(hits[0], hits[-1] + 1)), (items, v)


def _known_yes_path_instance(k: int, seed: int) -> Instance:
    """A decision instance whose unique cheap witness is the spine path
    0..k-1, padded with decoy vertices."""
    rng = random.Random(seed)
    decoys = 3
    n = k + decoys
    edges = [(i, i + 1) for i in range(k - 1)]
    for d in range(k, n):
        edges.append((rng.randrange(k), d))
    value = tuple(rng.randint(1, 8) for _ in range(n))
    return validate_instance(Instance(
        variant=Variant.PATH, n=n, edges=tuple(edges),
        weight=(0,) * n, value=value, s=0, d=sum(value[:k]),
        x=0, y=k - 1))


def test_color_coding_success_rate():
    for idx in range(20):
        k = 3 + idx % 5
        inst = _known_yes_path_instance(k, 27000 + idx)
        assert default_trials(k) == math.ceil(3 * math.e ** k)
        # every vertex weighs 0, so the sweep colors with n = k + 3 colors
        # and the k-vertex spine is shorter than the longest path it reads
        hits = 0
        for seed in range(100):
            report = solve_path_color_sweep(inst, seed=seed)
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, (inst, seed)
                hits += 1
        assert hits >= 95, (k, idx, hits)


def test_decomposition_validity_500_and_mutations():
    kinds = ("tree", "gnp", "grid", "gnp")
    mutation_checked = 0
    for seed in range(500):
        inst = random_instance(Variant.CONNECTED, kinds[seed % 4],
                               2 + seed % 13, 30000 + seed, p=0.45)
        pinned = {seed % inst.n} if seed % 3 else set()
        order = elimination_order_minfill(inst)
        nd = build_nice_decomposition(inst, order, pinned)
        assert validate_nice_decomposition(inst, nd)
        if not inst.edges or mutation_checked >= 60:
            continue
        edge_nodes = [i for i, node in enumerate(nd.nodes)
                      if node.kind == INTRODUCE_EDGE]
        target = edge_nodes[seed % len(edge_nodes)]
        caught = 0
        try:
            validate_nice_decomposition(inst, reroute(nd, drop=target))
        except errors.GraphsackError:
            caught += 1
        try:
            validate_nice_decomposition(inst, reroute(nd, duplicate=target))
        except errors.GraphsackError:
            caught += 1
        assert caught == 2, (inst, target)
        mutation_checked += 1
    assert mutation_checked >= 60


def test_cli_byte_determinism(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(instance_to_json(
        random_instance(Variant.PATH, "gnp", 8, 31000, p=0.5)))
    sp_path = tmp_path / "sp.json"
    sp_path.write_text(instance_to_json(
        random_instance(Variant.SHORTEST_PATH, "gnp", 8, 31001, p=0.5)))
    wit_path = tmp_path / "w.json"
    wit_path.write_text("[0]")
    commands = [
        ["generate", "--random", "gnp", "--n", "9", "--seed", "5"],
        ["generate", "--random", "tree", "--n", "9", "--seed", "5"],
        ["generate", "--random", "grid", "--n", "9", "--seed", "5"],
        ["solve", "--input", str(inst_path), "--engine", "treewidth",
         "--seed", "5"],
        ["solve", "--input", str(inst_path), "--engine", "color",
         "--seed", "5"],
        ["solve", "--input", str(inst_path), "--engine", "oracle",
         "--seed", "5"],
        ["solve", "--input", str(sp_path), "--engine", "labels",
         "--seed", "5"],
        ["solve", "--input", str(inst_path), "--epsilon", "1/4",
         "--seed", "5"],
        ["verify", "--input", str(inst_path), "--witness", str(wit_path)],
        ["decompose", "--input", str(inst_path)],
    ]
    # Run the CLI with this interpreter and the graphsack package this test
    # imported, so no console script or install is needed.  PYTHONHASHSEED
    # is dropped so the two runs of a command draw independent hash seeds.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONHASHSEED"}
    src_dir = str(Path(graphsack.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "graphsack.cli", *argv],
                               capture_output=True, env=env)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].returncode == runs[1].returncode, argv
        # A child that failed to start also gives two matching runs: empty
        # stdout, exit 1.  Check the output and the exit-code contract.
        assert runs[0].stdout.strip(), (argv, runs[0].stderr)
        json.loads(runs[0].stdout)
        expected = 1 if argv[0] == "verify" else 0  # [0] is not_a_path
        assert runs[0].returncode == expected, (argv, runs[0].stderr)
