"""Path Knapsack solvers: tree walk, color coding, treewidth DP."""
import dataclasses

import pytest

from graphsack import (Instance, Variant, build_nice_decomposition,
                       elimination_order_minfill, oracle_for,
                       solve_path_color_sweep, solve_path_tree,
                       solve_path_treewidth, validate_instance,
                       verify_solution)
from graphsack import errors, model, paths
from conftest import instance_stream, path_dp
from graphsack.generators import random_instance
from graphsack.paths import default_trials


def make(n, edges, weight, value, s, x, y, d=None):
    return validate_instance(Instance(
        variant=Variant.PATH, n=n, edges=tuple(edges),
        weight=tuple(weight), value=tuple(value), s=s, d=d, x=x, y=y))


P3 = dict(n=3, edges=((0, 1), (1, 2)), weight=(1, 1, 1), value=(1, 1, 1))


class TestTreeSolver:
    def test_unique_path_feasible(self):
        report = solve_path_tree(make(**P3, s=3, x=0, y=2, d=3))
        assert report.feasible and report.witness == frozenset({0, 1, 2})

    def test_unique_path_over_budget(self):
        assert not solve_path_tree(make(**P3, s=2, x=0, y=2, d=3)).feasible

    def test_star_leaf_to_leaf(self):
        inst = make(4, ((0, 1), (0, 2), (0, 3)), (0,) * 4, (1,) * 4,
                    9, x=1, y=2)
        assert solve_path_tree(inst).witness == frozenset({1, 0, 2})

    def test_cycle_detected(self):
        inst = make(3, ((0, 1), (1, 2), (0, 2)), (0,) * 3, (0,) * 3,
                    0, x=0, y=2)
        with pytest.raises(errors.NotATree):
            solve_path_tree(inst)

    def test_cycle_away_from_terminals_detected(self):
        inst = make(5, ((0, 1), (2, 3), (3, 4), (2, 4)), (0,) * 5, (0,) * 5,
                    0, x=0, y=1)
        with pytest.raises(errors.NotATree):
            solve_path_tree(inst)

    def test_disconnected_terminals(self):
        inst = make(4, ((0, 1), (2, 3)), (0,) * 4, (0,) * 4, 0, x=0, y=3)
        report = solve_path_tree(inst)
        assert not report.feasible and report.witness is None
        assert report.best_value is None and not report.frontier
        assert (report.stats["nodes_expanded"],
                report.stats["states_touched"]) == (0, 0)

    def test_same_terminal(self):
        report = solve_path_tree(make(**P3, s=3, x=1, y=1))
        assert report.witness == frozenset({1})

    def test_shortest_path_forest_accepted(self):
        # a forest's one x-y path is also the shortest one
        found = 0
        for seed in range(10):
            inst = random_instance(Variant.SHORTEST_PATH, "tree", 9, seed)
            report = solve_path_tree(inst)
            if report.witness is not None:
                assert verify_solution(inst, report.witness).ok, inst
                found += 1
        assert found


class TestColorCoding:
    def test_ground_case_single_color(self):
        # at k=1 a colorful path exists iff x == y (PATH(S,x') at |S|=1)
        report = solve_path_color_sweep(make(**P3, s=3, x=1, y=1), seed=0)
        assert report.feasible and report.witness == frozenset({1})
        # only one vertex fits s = 1, so k = 1 and no x-y path is found
        report = solve_path_color_sweep(make(**P3, s=1, x=0, y=2), seed=0)
        assert not report.feasible
        assert report.stats["trials_run"] == default_trials(1)

    def test_rainbow_path_found(self):
        inst = make(**P3, s=3, x=0, y=2, d=3)
        report = solve_path_color_sweep(inst, seed=1)
        assert report.feasible and report.witness == frozenset({0, 1, 2})

    def test_diamond_prefers_valuable_branch(self):
        inst = make(4, ((0, 1), (1, 3), (0, 2), (2, 3)),
                    (0, 0, 0, 0), (0, 5, 1, 0), 0, x=0, y=3, d=5)
        report = solve_path_color_sweep(inst, seed=4)
        assert report.feasible and report.witness == frozenset({0, 1, 3})

    def test_witness_always_verifies(self):
        for seed in range(25):
            inst = random_instance(Variant.PATH, "gnp", 8, 4000 + seed,
                                   p=0.5)
            report = solve_path_color_sweep(inst, seed=seed)
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, inst

    def test_one_sided_frontier_never_exceeds_exact(self):
        for seed in range(20):
            inst = random_instance(Variant.PATH, "gnp", 7, 4400 + seed,
                                   p=0.5)
            got = solve_path_color_sweep(inst, seed=seed).frontier
            exact = oracle_for(inst)
            for w, a in got:
                assert any(w2 <= w and a2 >= a for w2, a2 in exact), inst

    def test_sweep_matches_exact_frontier(self):
        for seed in range(40):
            inst = random_instance(Variant.PATH, "gnp", 8, 4000 + seed,
                                   p=0.5)
            got = solve_path_color_sweep(inst, seed=seed).frontier
            assert got == solve_path_treewidth(inst).frontier, inst

    def test_sweep_runs_one_budget_at_k(self):
        # the budget fits the 3 lightest vertices, so k = 3 colors
        inst = make(5, ((0, 1), (0, 4), (1, 4), (1, 2), (2, 3)),
                    (1, 1, 5, 5, 1), (1, 1, 1, 1, 1), 3, x=0, y=1)
        report = solve_path_color_sweep(inst, seed=2)
        assert report.stats["trials_run"] == default_trials(3)
        assert report.frontier.pairs == ((2, 2), (3, 3))

    def test_decision_yes_stops_at_first_trial_reaching_d(self):
        # k = 3; the one x-y path is colorful in trial 6 of seed 1
        inst = make(**P3, s=3, x=0, y=2, d=3)
        report = solve_path_color_sweep(inst, seed=1)
        assert report.feasible and report.best_value == 3
        assert report.stats["trials_run"] == 6 < default_trials(3)
        assert not solve_path_color_sweep(inst, seed=1, trials=5).feasible

    def test_decision_above_optimum_runs_full_budget(self):
        # the exact optimum is 3 at k = 3 colors, so d = 4 never stops
        inst = make(5, ((0, 1), (0, 4), (1, 4), (1, 2), (2, 3)),
                    (1, 1, 5, 5, 1), (1, 1, 1, 1, 1), 3, x=0, y=1, d=4)
        assert max(a for _, a in solve_path_treewidth(
            dataclasses.replace(inst, d=None)).frontier) == 3
        report = solve_path_color_sweep(inst, seed=2)
        assert not report.feasible
        assert report.stats["trials_run"] == default_trials(3)

    def test_same_terminal_over_budget_is_infeasible(self):
        # w(x) = 1 > s = 0, so the pool is never seeded with (x,), and
        # d = 0 would stop at the first trial if it were
        for d in (None, 0):
            report = solve_path_color_sweep(make(**P3, s=0, x=1, y=1, d=d))
            assert not report.feasible and not report.frontier
            assert report.stats["trials_run"] == default_trials(1)

    def test_default_budget_overflow_names_k(self):
        # all 720 zero-weight vertices fit s, so k = 720 and 3e^k is past
        # every float; an explicit budget still runs
        n = 720
        inst = make(n, [(v, v + 1) for v in range(n - 1)], (0,) * n,
                    (1,) * n, 0, x=0, y=n - 1)
        with pytest.raises(errors.GraphsackError, match="k = 720"):
            solve_path_color_sweep(inst)
        report = solve_path_color_sweep(inst, trials=5)
        assert report.stats["trials_run"] == 5

    def test_sweep_same_terminal(self):
        report = solve_path_color_sweep(make(**P3, s=3, x=1, y=1))
        assert report.witness == frozenset({1})
        assert report.stats["trials_run"] == default_trials(1)

    def test_no_empty_cell_is_pruned(self, monkeypatch):
        # the trial cells are pruned in paths, the final frontier in model
        sizes = []
        prune_pairs = paths.prune_pairs

        def counting(pairs):
            pairs = list(pairs)
            sizes.append(len(pairs))
            return prune_pairs(pairs)

        monkeypatch.setattr(paths, "prune_pairs", counting)
        monkeypatch.setattr(model, "prune_pairs", counting)
        for seed in (0, 2, 4, 6, 7):  # feasible instances
            inst = random_instance(Variant.PATH, "gnp", 8, 4000 + seed,
                                   p=0.5)
            assert solve_path_color_sweep(inst, seed=seed).feasible
        assert sizes and min(sizes) > 0

    def test_invalid_parameters(self):
        inst = make(**P3, s=3, x=0, y=2)
        for trials in (0, -3):
            with pytest.raises(errors.GraphsackError):
                solve_path_color_sweep(inst, trials=trials)

    def test_shortest_path_refused(self):
        # the sweep ignores dist(x, y), so its witness may not be shortest
        inst = random_instance(Variant.SHORTEST_PATH, "grid", 9, 0)
        with pytest.raises(ValueError):
            solve_path_color_sweep(inst, seed=0)


class TestTreewidthDP:
    def test_matches_tree_solver_on_path(self):
        inst = make(**P3, s=3, x=0, y=2)
        assert (solve_path_treewidth(inst).frontier.pairs
                == solve_path_tree(inst).frontier.pairs)

    def test_nonadjacent_terminals_edgeless(self):
        inst = make(2, (), (0, 0), (0, 0), 0, x=0, y=1)
        assert not solve_path_treewidth(inst).feasible

    def test_shortest_path_refused(self):
        # the DP ignores dist(x, y), so its witness may not be shortest
        inst = random_instance(Variant.SHORTEST_PATH, "grid", 9, 0)
        with pytest.raises(ValueError):
            solve_path_treewidth(inst)

    def test_pin_aware_order_keeps_frontier(self):
        # the default order eliminates G - {x, y} first; the min-fill
        # order of the whole graph must give the same frontier, and on a
        # decision instance, where each walk stops at its own first
        # finished path that reaches d, the same answer
        for i in range(60):
            kind = ("tree", "gnp", "grid")[i % 3]
            inst = random_instance(Variant.PATH, kind, (5, 9, 12)[i // 3 % 3],
                                   i, p=0.4, decision=bool(i % 2))
            whole = build_nice_decomposition(
                inst, elimination_order_minfill(inst), {inst.x, inst.y})
            reports = solve_path_treewidth(inst), path_dp(inst, whole)
            if inst.d is None:
                assert reports[0].frontier == reports[1].frontier, inst
            assert reports[0].feasible == reports[1].feasible, inst
            for report in reports:
                if report.witness is not None:
                    # in decision mode verify_solution also checks alpha >= d
                    assert verify_solution(inst, report.witness).ok, inst

    def test_single_edge(self):
        inst = make(2, ((0, 1),), (1, 2), (3, 4), 3, x=0, y=1)
        assert solve_path_treewidth(inst).frontier.pairs == ((3, 7),)

    def test_same_terminal_matches_oracle(self):
        # the generator never draws x == y: the terminal's degree limit
        # is then 0 and the only path is the one vertex x
        for seed in range(10):
            for kind in ("gnp", "grid", "tree"):
                for n in (1, 3, 5, 8):
                    inst = random_instance(Variant.PATH, kind, n, seed)
                    inst = dataclasses.replace(inst, y=inst.x)
                    report = solve_path_treewidth(inst)
                    assert report.frontier == oracle_for(inst), inst
                    if report.feasible:
                        assert report.witness == frozenset({inst.x})

    def test_oracle_equivalence_sample(self):
        for inst in instance_stream(Variant.PATH, 60, 5000, 10):
            got = solve_path_treewidth(inst).frontier.pairs
            want = oracle_for(inst).pairs
            assert got == want, inst

    def test_witnesses_verify(self):
        for inst in instance_stream(Variant.PATH, 30, 5600, 9,
                                    decision=True):
            report = solve_path_treewidth(inst)
            if report.feasible:
                assert verify_solution(inst, report.witness).ok, inst

    def test_all_solvers_agree_on_trees(self):
        for seed in range(20):
            inst = random_instance(Variant.PATH, "tree", 8, 6000 + seed)
            frontier = solve_path_tree(inst).frontier.pairs
            assert solve_path_treewidth(inst).frontier.pairs == frontier
            # color coding is one-sided, but on a tree the unique path's
            # length k is hit with overwhelming probability by the sweep
            got = solve_path_color_sweep(inst, seed=seed).frontier.pairs
            assert got == frontier, inst
