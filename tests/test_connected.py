"""Connected Knapsack DP against the brute-force oracle."""
import re
from pathlib import Path

import pytest

from graphsack import (Instance, Variant, oracle_for, solve_connected,
                       validate_instance, verify_solution)
from conftest import instance_stream


def make(n, edges, weight, value, s, d=None):
    return validate_instance(Instance(
        variant=Variant.CONNECTED, n=n, edges=tuple(edges),
        weight=tuple(weight), value=tuple(value), s=s, d=d))


class TestFixedFrontiers:
    """Full frontiers of small instances, worked out by hand."""

    def test_single_vertex(self):
        inst = make(1, (), (2,), (7,), 2)
        assert solve_connected(inst).frontier.pairs == ((0, 0), (2, 7))

    def test_path_heavy_middle(self):
        inst = make(3, ((0, 1), (1, 2)), (1, 5, 1), (2, 1, 2), 2)
        assert solve_connected(inst).frontier.pairs == ((0, 0), (1, 2))

    def test_triangle(self):
        inst = make(3, ((0, 1), (1, 2), (0, 2)), (1, 1, 1), (1, 2, 3), 2)
        assert (solve_connected(inst).frontier.pairs
                == ((0, 0), (1, 3), (2, 5)))

    def test_two_isolated_vertices_never_combine(self):
        # the decomposition is a chain: a finished component admits no
        # further vertex
        inst = make(2, (), (1, 1), (5, 5), 2)
        assert solve_connected(inst).frontier.pairs == ((0, 0), (1, 5))

    def test_star_leaves_past_heavy_center_never_combine(self):
        # each leaf finishes below a join under the center: two finished
        # components never join
        inst = make(3, ((0, 2), (1, 2)), (1, 1, 5), (5, 5, 1), 2)
        assert solve_connected(inst).frontier.pairs == ((0, 0), (1, 5))

    def test_empty_graph(self):
        report = solve_connected(make(0, (), (), (), 0))
        assert report.frontier.pairs == ((0, 0),)
        assert report.witness == frozenset()

    def test_readme_library_example(self):
        # run the README's python block, then check each `expr  # value`
        # line against the value before " — "
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("```python\n")[1].split("\n```")[0]
        scope: dict = {}
        exec(block, scope)
        checked = []
        for line in block.splitlines():
            match = re.fullmatch(r"(\S.*?)\s+# (.*)", line)
            if match:
                expr, expected = match[1], match[2].split(" — ")[0]
                assert eval(expr, scope) == eval(expected), line
                checked.append(expr)
        assert checked == ["report.frontier.pairs", "report.best_value",
                           "report.witness"]


class TestFull:
    def test_path_decision_yes(self):
        inst = make(3, ((0, 1), (1, 2)), (1, 5, 1), (2, 1, 2), 7, d=5)
        report = solve_connected(inst)
        assert report.feasible and report.best_value == 5
        assert report.witness == frozenset({0, 1, 2})

    def test_path_decision_no_disconnected_pair(self):
        inst = make(3, ((0, 1), (1, 2)), (1, 5, 1), (2, 1, 2), 2, d=4)
        assert not solve_connected(inst).feasible

    def test_target_zero_always_feasible(self):
        inst = make(3, ((0, 1), (1, 2)), (9, 9, 9), (1, 1, 1), 0, d=0)
        report = solve_connected(inst)
        assert report.feasible and report.witness == frozenset()

    def test_oracle_equivalence_sample(self):
        for inst in instance_stream(Variant.CONNECTED, 60, 500, 10):
            got = solve_connected(inst).frontier.pairs
            want = oracle_for(inst).pairs
            assert got == want, inst

    def test_witnesses_verify(self):
        for inst in instance_stream(Variant.CONNECTED, 30, 900, 9,
                                    decision=True):
            report = solve_connected(inst)
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, inst

    def test_budget_monotonicity(self):
        base = make(5, ((0, 1), (1, 2), (2, 3), (3, 4)),
                    (2, 3, 1, 4, 2), (5, 1, 4, 2, 6), 0)
        best = -1
        for s in range(13):
            inst = make(base.n, base.edges, base.weight, base.value, s)
            value = solve_connected(inst).best_value
            assert value >= best
            best = value

    def test_early_stop_decision_answer_matches(self):
        for inst in instance_stream(Variant.CONNECTED, 20, 1200, 9,
                                    decision=True):
            assert (solve_connected(inst, early_stop=True).feasible
                    == solve_connected(inst).feasible)

    def test_variant_mismatch(self):
        inst = validate_instance(Instance(
            variant=Variant.PATH, n=2, edges=((0, 1),), weight=(0, 0),
            value=(0, 0), s=0, x=0, y=1))
        with pytest.raises(ValueError):
            solve_connected(inst)
