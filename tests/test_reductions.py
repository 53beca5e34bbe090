"""Reduction gadgets: structure audits and yes/no preservation."""
import hashlib
import json
import random

import pytest

from graphsack import (Variant, solve_connected, solve_path_treewidth,
                       solve_shortest_path)
from graphsack.model import instance_to_json
from graphsack.oracles import _all_simple_paths
from graphsack.reductions import (KnapsackItems, SourceGraph,
                                  reduce_hamiltonian_to_path,
                                  reduce_knapsack_to_path_gadget,
                                  reduce_knapsack_to_star_connected,
                                  reduce_partial_vc_to_connected,
                                  reduce_vertex_cover_to_connected)
from conftest import (hamiltonian_path_exists, knapsack_exists,
                      partial_vertex_cover_exists, random_items,
                      random_source_graph, refused_corner,
                      vertex_cover_exists)

K3 = SourceGraph(3, ((0, 1), (1, 2), (0, 2)))
TWO_ITEMS = KnapsackItems((2, 3), (3, 4), 5, 7)
P4 = SourceGraph(4, ((0, 1), (1, 2), (2, 3)))
ONE_EDGE = SourceGraph(2, ((0, 1),))


class TestSourceInputs:
    def test_edge_id_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SourceGraph(2, ((0, 3),))
        with pytest.raises(ValueError):
            SourceGraph(2, ((-1, 1),))

    def test_item_lengths_must_match(self):
        with pytest.raises(ValueError):
            KnapsackItems((1,), (5, 7), 1, 5)
        with pytest.raises(ValueError):
            KnapsackItems((1, 2), (5,), 1, 5)


class TestVertexCoverGadget:
    def test_k3_cover_of_two_is_yes(self):
        out = reduce_vertex_cover_to_connected(K3, 2)
        assert out.instance.s == 2 and out.instance.d == 3
        assert out.instance.n == 9
        assert solve_connected(out.instance, early_stop=True).feasible

    def test_k3_cover_of_one_is_no(self):
        out = reduce_vertex_cover_to_connected(K3, 1)
        assert not solve_connected(out.instance, early_stop=True).feasible

    def test_edgeless_trivially_yes(self):
        out = reduce_vertex_cover_to_connected(SourceGraph(3, ()), 0)
        assert out.instance.d == 0
        assert solve_connected(out.instance, early_stop=True).feasible

    def test_max_degree_bound_on_cubic_source(self):
        k4 = SourceGraph(4, tuple((u, v) for u in range(4)
                                  for v in range(u + 1, 4)))  # 3-regular
        inst = reduce_vertex_cover_to_connected(k4, 3).instance
        degree = [0] * inst.n
        for u, v in inst.edges:
            degree[u] += 1
            degree[v] += 1
        assert max(degree) <= 4

    def test_provenance_total_on_vertices(self):
        out = reduce_vertex_cover_to_connected(K3, 2)
        assert sorted(out.provenance["vertex_of"].values()) == list(
            range(out.instance.n))

    def test_one_edge_at_k0_refused(self):
        # {h_0} alone is connected, free and worth d = 1: a false yes
        with pytest.raises(ValueError, match="k = 0"):
            reduce_vertex_cover_to_connected(ONE_EDGE, 0)

    def test_one_edge_at_k1_is_yes(self):
        out = reduce_vertex_cover_to_connected(ONE_EDGE, 1)
        assert solve_connected(out.instance, early_stop=True).feasible


class TestStarGadget:
    def test_two_items_yes(self):
        out = reduce_knapsack_to_star_connected(TWO_ITEMS)
        assert solve_connected(out.instance, early_stop=True).feasible

    def test_target_above_total_is_no(self):
        items = KnapsackItems((2, 3), (3, 4), 5, 8)
        out = reduce_knapsack_to_star_connected(items)
        assert not solve_connected(out.instance, early_stop=True).feasible

    def test_single_item_zero_capacity(self):
        items = KnapsackItems((1,), (1,), 0, 1)
        out = reduce_knapsack_to_star_connected(items)
        assert not solve_connected(out.instance, early_stop=True).feasible

    def test_structure_is_star(self):
        out = reduce_knapsack_to_star_connected(TWO_ITEMS)
        assert out.instance.edges == ((0, 1), (0, 2))
        assert out.instance.weight[0] == out.instance.value[0] == 0


class TestPartialVcGadget:
    def test_k3_one_vertex_covers_two(self):
        out = reduce_partial_vc_to_connected(K3, 1, 2)
        assert solve_connected(out.instance, early_stop=True).feasible

    def test_k3_one_vertex_cannot_cover_three(self):
        out = reduce_partial_vc_to_connected(K3, 1, 3)
        assert not solve_connected(out.instance, early_stop=True).feasible

    def test_zero_edges_required(self):
        out = reduce_partial_vc_to_connected(K3, 0, 0)
        assert solve_connected(out.instance, early_stop=True).feasible

    @pytest.mark.parametrize("graph", [ONE_EDGE, K3], ids=["one-edge", "k3"])
    def test_ell_one_at_k0_refused(self, graph):
        with pytest.raises(ValueError, match="k = 0"):
            reduce_partial_vc_to_connected(graph, 0, 1)

    def test_ell_one_at_k1_is_yes(self):
        out = reduce_partial_vc_to_connected(K3, 1, 1)
        assert solve_connected(out.instance, early_stop=True).feasible


class TestHamiltonianGadget:
    def test_p3_is_yes(self):
        g = SourceGraph(3, ((0, 1), (1, 2)))
        out = reduce_hamiltonian_to_path(g, 0, 2)
        assert out.instance.s == 0 and out.instance.d == 3
        assert solve_path_treewidth(out.instance).feasible

    def test_star_leaves_is_no(self):
        g = SourceGraph(4, ((0, 1), (0, 2), (0, 3)))
        out = reduce_hamiltonian_to_path(g, 1, 2)
        assert not solve_path_treewidth(out.instance).feasible

    def test_k4_is_yes(self):
        g = SourceGraph(4, tuple((u, v) for u in range(4)
                                 for v in range(u + 1, 4)))
        out = reduce_hamiltonian_to_path(g, 0, 3)
        assert solve_path_treewidth(out.instance).feasible

    def test_same_terminal_rejected(self):
        with pytest.raises(ValueError):
            reduce_hamiltonian_to_path(K3, 1, 1)


class TestLadderGadget:
    def test_fig_structure_two_items(self):
        out = reduce_knapsack_to_path_gadget(TWO_ITEMS)
        inst = out.instance
        assert inst.n == 7 and len(inst.edges) == 8
        assert inst.x == 0 and inst.y == 6

    def test_two_items_yes_via_rungs(self):
        out = reduce_knapsack_to_path_gadget(TWO_ITEMS)
        report = solve_path_treewidth(out.instance)
        assert report.feasible
        v1 = out.provenance["vertex_of"]["v1"]
        v2 = out.provenance["vertex_of"]["v2"]
        assert {v1, v2} <= report.witness

    def test_target_above_total_is_no(self):
        items = KnapsackItems((2, 3), (3, 4), 5, 8)
        out = reduce_knapsack_to_path_gadget(items)
        assert not solve_path_treewidth(out.instance).feasible

    def test_all_paths_have_2n_edges(self):
        for n_items in (1, 2, 3):
            items = KnapsackItems((1,) * n_items, (1,) * n_items, 9, 0)
            inst = reduce_knapsack_to_path_gadget(items).instance
            lengths = {len(p) - 1 for p in _all_simple_paths(inst)}
            assert lengths == {2 * n_items}
            assert len(list(_all_simple_paths(inst))) == 2 ** n_items

    def test_emitted_path_decomposition_width_two(self):
        out = reduce_knapsack_to_path_gadget(TWO_ITEMS)
        bags = out.provenance["path_decomposition"]
        inst = out.instance
        assert max(len(b) for b in bags) <= 3
        for u, v in inst.edges:  # every edge inside some bag
            assert any(u in b and v in b for b in bags)
        for v in range(inst.n):  # occurrences are contiguous
            hits = [i for i, b in enumerate(bags) if v in b]
            assert hits == list(range(hits[0], hits[-1] + 1))

    def test_shortest_path_variant_unit_costs(self):
        out = reduce_knapsack_to_path_gadget(TWO_ITEMS,
                                             Variant.SHORTEST_PATH)
        assert set(out.instance.edge_cost) == {1}
        assert solve_shortest_path(out.instance).feasible


class TestYesNoPreservation:
    def test_vertex_cover_sample(self):
        rng = random.Random(100)
        done = 0
        while done < 20:
            g = random_source_graph(rng, 4 + done % 4)
            k = rng.randint(0, g.n)
            if refused_corner(len(g.edges), k):
                continue
            out = reduce_vertex_cover_to_connected(g, k)
            assert (solve_connected(out.instance, early_stop=True).feasible
                    == vertex_cover_exists(g, k)), (g, k)
            done += 1

    def test_partial_vc_sample(self):
        rng = random.Random(200)
        done = 0
        while done < 20:
            g = random_source_graph(rng, 4 + done % 4)
            k = rng.randint(0, 3)
            ell = rng.randint(0, len(g.edges))
            if refused_corner(len(g.edges), k, ell):
                continue
            out = reduce_partial_vc_to_connected(g, k, ell)
            assert (solve_connected(out.instance, early_stop=True).feasible
                    == partial_vertex_cover_exists(g, k, ell)), (g, k, ell)
            done += 1

    def test_knapsack_samples(self):
        rng = random.Random(300)
        for i in range(20):
            items = random_items(rng, 1 + i % 4)
            want = knapsack_exists(items)
            star = reduce_knapsack_to_star_connected(items)
            ladder = reduce_knapsack_to_path_gadget(items)
            assert solve_connected(star.instance,
                                   early_stop=True).feasible == want, items
            assert solve_path_treewidth(ladder.instance).feasible == want

    def test_hamiltonian_sample(self):
        rng = random.Random(400)
        for i in range(15):
            g = random_source_graph(rng, 5, p=0.5)
            out = reduce_hamiltonian_to_path(g, 0, 1)
            assert (solve_path_treewidth(out.instance).feasible
                    == hamiltonian_path_exists(g, 0, 1)), g


# One SHA-256 per gadget over ``instance_to_json`` of its instance and
# its provenance dumped with sorted keys: a rewrite of a gadget builder
# keeps every vertex id, edge and provenance record.
GADGET_DIGESTS = {
    "vc-k3": "954c6d37d7672652f3fa26e089cc49b3ae6af49a3f9c63f1b73fbd146fe38c1e",
    "pvc-k3": "888c4a7deb31c8e1e142453d15263e938e3f927450fc815fb8d0da5756c28867",
    "star": "2d7ca2ac4538566c25eacc4b1ede7285bfef907e8c6bc1b3095c954a57931905",
    "ladder": "cfd31dc7b832cb2dcad187a4c03331b6fb2f1f8f7a7388d637bace50c922ee33",
    "ladder-sp": "ec5e12222c0ed4abcd35b6d4d08505ac89102da103db013d303a355d70f6e7ce",
    "ham-p4": "93639d1579e15e40b1eee013d24beca36abffb5c7813eea580c7b02f8c50f95b",
}

GADGETS = {
    "vc-k3": lambda: reduce_vertex_cover_to_connected(K3, 2),
    "pvc-k3": lambda: reduce_partial_vc_to_connected(K3, 1, 2),
    "star": lambda: reduce_knapsack_to_star_connected(TWO_ITEMS),
    "ladder": lambda: reduce_knapsack_to_path_gadget(TWO_ITEMS),
    "ladder-sp": lambda: reduce_knapsack_to_path_gadget(
        TWO_ITEMS, Variant.SHORTEST_PATH),
    "ham-p4": lambda: reduce_hamiltonian_to_path(P4, 0, 3),
}


class TestGadgetDigests:
    @pytest.mark.parametrize("name", sorted(GADGET_DIGESTS))
    def test_gadget_bytes(self, name):
        out = GADGETS[name]()
        text = (instance_to_json(out.instance)
                + json.dumps(out.provenance, sort_keys=True))
        assert (hashlib.sha256(text.encode()).hexdigest()
                == GADGET_DIGESTS[name])
