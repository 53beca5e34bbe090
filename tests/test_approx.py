"""FPTAS wrapper: scaling formula, guarantee, feasibility preservation."""
import math
from fractions import Fraction

import pytest

from graphsack import (Instance, Variant, fptas_optimize, oracle_for,
                       scale_values, solve_connected, validate_instance,
                       verify_solution)
from graphsack import errors
from graphsack.approx import parse_epsilon
from conftest import instance_stream


def make(variant, n, edges, weight, value, s, **kw):
    return validate_instance(Instance(
        variant=variant, n=n, edges=tuple(edges), weight=tuple(weight),
        value=tuple(value), s=s, **kw))


class TestScaleValues:
    def test_formula(self):
        inst = make(Variant.CONNECTED, 3, ((0, 1), (1, 2)), (0, 0, 0),
                    (10, 20, 40), 5)
        scaled, alpha_max = scale_values(inst, Fraction(1, 2))
        assert alpha_max == 40
        assert scaled.value == (1, 3, 6)

    def test_all_equal_values(self):
        n = 4
        inst = make(Variant.CONNECTED, n, (), (0,) * n, (7,) * n, 0)
        scaled, _ = scale_values(inst, 1)
        assert scaled.value == (n,) * n

    def test_alpha_max_zero_flagged(self):
        inst = make(Variant.CONNECTED, 2, ((0, 1),), (1, 1), (0, 0), 2, d=1)
        scaled, alpha_max = scale_values(inst, Fraction(1, 2))
        assert alpha_max == 0
        assert scaled.value == (0, 0) and scaled.d is None

    def test_scaled_sum_bound(self):
        for i, inst in enumerate(instance_stream(Variant.CONNECTED, 30,
                                                 10000, 10)):
            eps = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10))[i % 3]
            scaled, _ = scale_values(inst, eps)
            assert sum(scaled.value) <= math.ceil(inst.n ** 2 / eps)

    def test_bad_epsilon(self):
        inst = make(Variant.CONNECTED, 1, (), (0,), (1,), 0)
        for bad in (0, 2, "-1/2", "nonsense"):
            with pytest.raises(errors.BadEpsilon):
                scale_values(inst, bad)

    def test_parse_fraction_string(self):
        assert parse_epsilon("1/4") == Fraction(1, 4)
        assert parse_epsilon("0.25") == Fraction(1, 4)
        assert parse_epsilon("1e-3") == Fraction(1, 1000)
        assert parse_epsilon("1e-300") == Fraction(1, 10 ** 300)

    @pytest.mark.parametrize("bad", [
        "1e-5000", "1e+5000", float("inf"), "1e4300", "1e-2000",
        pytest.param("1/" + "9" * 4300, id="1/9x4300")])
    def test_huge_exponent_and_infinity_refused(self, bad):
        # Fraction("1e-10000000") alone takes seconds to build, and an
        # epsilon of thousands of digits fails late, when printed
        with pytest.raises(errors.BadEpsilon):
            parse_epsilon(bad)


class TestHeavyVertices:
    """A vertex heavier than s keeps its id and is scaled to 0; on
    Connected and Path its edges are cut, on Shortest-Path none is."""

    def test_exact_solver_sees_every_vertex_id(self):
        # vertex 1 (weight 99 > s) stays, so the witness needs no map
        inst = make(Variant.CONNECTED, 4, ((0, 1), (1, 2), (2, 3)),
                    (1, 99, 1, 1), (1, 5, 2, 3), 5)
        seen = []

        def spy(scaled):
            seen.append(scaled)
            return solve_connected(scaled)

        report = fptas_optimize(inst, Fraction(1, 2), spy)
        (scaled,) = seen
        assert scaled.n == 4 and scaled.weight == inst.weight
        assert scaled.value[1] == 0
        assert report.witness == frozenset({2, 3})
        assert report.best_value == 5

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    def test_heavy_vertex_edges_cut(self, variant):
        terminals = {"x": 0, "y": 3} if variant is Variant.PATH else {}
        inst = make(variant, 4, ((0, 1), (0, 2), (1, 3), (2, 3)),
                    (1, 9, 1, 1), (1, 1, 1, 1), 5, **terminals)
        scaled, _ = scale_values(inst, Fraction(1, 2))
        assert scaled.n == 4 and scaled.edges == ((0, 2), (2, 3))

    def test_shortest_path_keeps_every_edge(self):
        # the one shortest 0-2 path runs through the heavy vertex 1;
        # cutting its edges would let the longer path 0-3-4-2 qualify
        inst = make(Variant.SHORTEST_PATH, 5,
                    ((0, 1), (1, 2), (0, 3), (3, 4), (2, 4)),
                    (0, 9, 0, 0, 0), (1, 1, 1, 1, 1), 5, x=0, y=2)
        assert scale_values(inst, Fraction(1, 2))[0].edges == inst.edges
        assert not fptas_optimize(inst, Fraction(1, 2)).feasible


class TestGuarantee:
    def _check(self, variant, base_seed):
        checked = 0
        for i, inst in enumerate(instance_stream(variant, 40, base_seed, 9)):
            try:
                opt = oracle_for(inst).best_value()
            except errors.Unreachable:
                opt = None
            for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
                report = fptas_optimize(inst, eps)
                if opt is None:
                    assert not report.feasible
                    continue
                assert report.feasible
                assert report.best_value >= (1 - eps) * opt, (inst, eps)
                assert verify_solution(inst, report.witness).ok, inst
                checked += 1
        assert checked >= 40

    def test_connected_guarantee(self):
        self._check(Variant.CONNECTED, 11000)

    def test_path_guarantee(self):
        self._check(Variant.PATH, 12000)

    def test_shortest_path_guarantee(self):
        self._check(Variant.SHORTEST_PATH, 13000)

    def test_spec_path_example(self):
        inst = make(Variant.CONNECTED, 3, ((0, 1), (1, 2)), (1, 1, 1),
                    (3, 5, 3), 3)
        report = fptas_optimize(inst, Fraction(1, 10))
        assert report.best_value >= math.ceil(0.9 * 11)

    def test_epsilon_one_still_feasible(self):
        inst = make(Variant.CONNECTED, 2, ((0, 1),), (1, 1), (5, 3), 1)
        report = fptas_optimize(inst, 1)
        assert report.feasible
        assert verify_solution(inst, report.witness).ok

    def test_shortest_path_heavy_vertex_off_every_path(self):
        # h = 4 hangs off y and fits no budget; scaled over all vertices
        # its value 1000 flattened both x-y paths to 0 and lost OPT 10
        inst = make(Variant.SHORTEST_PATH, 5,
                    ((0, 1), (1, 3), (0, 2), (2, 3), (3, 4)),
                    (0, 1, 1, 0, 9), (0, 1, 10, 0, 1000), 2, x=0, y=3)
        report = fptas_optimize(inst, Fraction(1, 2))
        assert report.best_value == 10
        assert report.witness == frozenset({0, 2, 3})

    @pytest.mark.xfail(strict=True, reason="alpha_max counts a light "
                       "vertex on no x-y path (ROADMAP item 3)")
    @pytest.mark.parametrize("variant, weight", [
        (Variant.PATH, (0, 1, 2, 0, 1)),
        (Variant.SHORTEST_PATH, (0, 1, 1, 0, 1))],
        ids=["path", "shortest_path"])
    def test_light_vertex_off_every_path(self, variant, weight):
        # the pendant 4 off y fits s and sets alpha_max = 1000, so both
        # x-y paths scale to 0 and the witness is the one of value 1
        inst = make(variant, 5, ((0, 1), (1, 3), (0, 2), (2, 3), (3, 4)),
                    weight, (0, 1, 10, 0, 1000), 2, x=0, y=3)
        report = fptas_optimize(inst, Fraction(1, 2))
        assert report.best_value >= (1 - Fraction(1, 2)) * 10

    @pytest.mark.parametrize("weight, value", [((1, 1), (0, 0)),
                                               ((1, 9), (0, 5))])
    def test_zero_values_decision_reports_value(self, weight, value):
        # alpha_max = 0 over the light vertices: the scaled run still
        # optimizes, and its value-0 witness is reported in decision
        # mode as the exact solver reports it: "no", with no value
        inst = make(Variant.CONNECTED, 2, ((0, 1),), weight, value, 2, d=1)
        report = fptas_optimize(inst, Fraction(1, 2))
        assert report.stats["scaled_value"] == 0
        assert not report.feasible and not report.frontier
        assert report.best_value is solve_connected(inst).best_value is None

    def test_overweight_terminal_infeasible(self):
        inst = make(Variant.PATH, 2, ((0, 1),), (9, 0), (1, 1), 2,
                    x=0, y=1)
        assert not fptas_optimize(inst, Fraction(1, 2)).feasible
