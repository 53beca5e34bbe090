"""Pareto labels on the shortest x-y path DAG."""
import pytest

from graphsack import (Instance, Variant, oracle_for, solve_shortest_path,
                       validate_instance, verify_solution)
from graphsack import errors
from graphsack.generators import random_instance
from graphsack.model import _reference_distances
from conftest import instance_stream


def make(n, edges, weight, value, s, x, y, costs=None, d=None):
    return validate_instance(Instance(
        variant=Variant.SHORTEST_PATH, n=n, edges=tuple(edges),
        weight=tuple(weight), value=tuple(value), s=s, d=d, x=x, y=y,
        edge_cost=tuple(costs) if costs else None))


DIAMOND = dict(n=4, edges=((0, 1), (1, 3), (0, 2), (2, 3)),
               weight=(0, 2, 1, 0), value=(0, 5, 1, 0), x=0, y=3)


class TestSolve:
    def test_diamond_both_shortest(self):
        report = solve_shortest_path(make(**DIAMOND, s=2))
        assert report.frontier.pairs == ((1, 1), (2, 5))

    def test_diamond_one_branch_longer(self):
        inst = make(**DIAMOND, s=2, costs=(2, 1, 1, 1))
        assert solve_shortest_path(inst).frontier.pairs == ((1, 1),)

    def test_single_edge(self):
        inst = make(2, ((0, 1),), (1, 2), (3, 4), 5, 0, 1, costs=(3,))
        assert solve_shortest_path(inst).frontier.pairs == ((3, 7),)

    def test_unreachable_terminal(self):
        inst = make(3, ((0, 1),), (0,) * 3, (0,) * 3, 5, 0, 2)
        report = solve_shortest_path(inst)
        assert not report.feasible
        assert report.stats.get("unreachable") is True
        assert not report.frontier

    def test_same_terminal(self):
        inst = make(**DIAMOND, s=5)
        inst = make(4, inst.edges, inst.weight, inst.value, 5, 1, 1)
        report = solve_shortest_path(inst)
        assert report.frontier.pairs == ((2, 5),)
        assert report.stats["distance"] == 0

    def test_terminal_heavier_than_budget(self):
        inst = make(4, DIAMOND["edges"], (3, 0, 0, 0), (1,) * 4, 2, 0, 3)
        report = solve_shortest_path(inst)
        assert not report.feasible and not report.frontier
        assert "unreachable" not in report.stats
        assert report.stats["distance"] == 2

    def test_stops_once_y_settles(self):
        inst = make(10, [(i, i + 1) for i in range(9)], (1,) * 10,
                    (1,) * 10, 10, 0, 1)
        report = solve_shortest_path(inst)
        assert report.stats["nodes_expanded"] == 2
        assert report.frontier.pairs == ((2, 2),)

    def test_budget_prunes_heavy_branch(self):
        report = solve_shortest_path(make(**DIAMOND, s=1))
        assert report.frontier.pairs == ((1, 1),)

    def test_variant_mismatch(self):
        inst = validate_instance(Instance(
            variant=Variant.CONNECTED, n=1, edges=(), weight=(0,),
            value=(0,), s=0))
        with pytest.raises(ValueError):
            solve_shortest_path(inst)


class TestAgainstReferences:
    def test_oracle_equivalence_sample(self):
        for inst in instance_stream(Variant.SHORTEST_PATH, 60, 7000, 12):
            report = solve_shortest_path(inst)
            try:
                want = oracle_for(inst).pairs
            except errors.Unreachable:
                assert not report.feasible and not report.frontier
                continue
            assert report.frontier.pairs == want, inst

    def test_distances_match_plain_dijkstra(self):
        for inst in instance_stream(Variant.SHORTEST_PATH, 25, 7500, 12):
            report = solve_shortest_path(inst)
            assert (report.stats.get("distance")
                    == _reference_distances(inst, inst.x)[inst.y])

    def test_unit_costs_oracle_equivalence(self):
        # with every cost 1 many shortest paths tie, so the DAG is wide
        for i in range(80):
            kind = ("gnp", "grid")[i % 2]
            inst = random_instance(Variant.SHORTEST_PATH, kind, 2 + i % 11,
                                   9100 + i, p=0.5, max_cost=1,
                                   decision=i % 3 == 0)
            report = solve_shortest_path(inst)
            try:
                want = oracle_for(inst).pairs
            except errors.Unreachable:
                assert report.stats.get("unreachable") is True, inst
                continue
            if inst.d is not None:
                # a decision report keeps the cheapest pair reaching d
                want = tuple(p for p in want if p[1] >= inst.d)[:1]
            assert report.frontier.pairs == want, inst
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, inst

    def test_witnesses_verify(self):
        for inst in instance_stream(Variant.SHORTEST_PATH, 30, 7900, 10,
                                    decision=True):
            report = solve_shortest_path(inst)
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, inst

    def test_frontier_never_dominated(self):
        for inst in instance_stream(Variant.SHORTEST_PATH, 20, 8300, 10):
            for w, a in solve_shortest_path(inst).frontier:
                assert w <= inst.s
