"""Core model: validation, Pareto operations, verification, JSON."""
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import graphsack
from graphsack import (Instance, ParetoSet, Variant, fptas_optimize,
                       instance_from_json, instance_to_json,
                       validate_instance, verify_solution)
from graphsack import cli, decomposition, errors, model, paths, shortest
from graphsack.decomposition import (DONE, FORGET_VERTEX, INTRODUCE_EDGE,
                                     INTRODUCE_VERTEX, JOIN, LEAF, DecompNode,
                                     NiceDecomposition, run_dp,
                                     validate_nice_decomposition)
from graphsack.model import prune_pairs
from conftest import instance_stream, node_tables


def make(variant=Variant.CONNECTED, n=3, edges=((0, 1), (1, 2)),
         weight=None, value=None, s=10, **kw):
    return validate_instance(Instance(
        variant=variant, n=n, edges=tuple(edges),
        weight=tuple(weight if weight is not None else [1] * n),
        value=tuple(value if value is not None else [1] * n),
        s=s, **kw))


class TestValidateInstance:
    def test_degenerate_single_vertex(self):
        inst = make(n=1, edges=(), s=0, d=0)
        assert inst.n == 1 and inst.edges == ()

    def test_self_loop(self):
        with pytest.raises(errors.SelfLoop):
            make(edges=((3, 3),), n=4)

    def test_duplicate_edge(self):
        with pytest.raises(errors.DuplicateEdge):
            make(edges=((0, 1), (1, 0)))

    def test_id_out_of_range(self):
        with pytest.raises(errors.IdOutOfRange):
            make(edges=((0, 5),))

    def test_zero_edge_cost(self):
        with pytest.raises(errors.ZeroEdgeCost):
            make(variant=Variant.SHORTEST_PATH, x=0, y=2,
                 edge_cost=(0, 1))

    def test_missing_terminal(self):
        with pytest.raises(errors.MissingTerminal):
            make(variant=Variant.PATH)

    def test_edges_normalized(self):
        inst = make(edges=((2, 1), (1, 0)))
        assert inst.edges == ((0, 1), (1, 2))

    def test_costs_follow_normalization(self):
        inst = make(variant=Variant.SHORTEST_PATH, x=0, y=2,
                    edges=((2, 1), (0, 1)), edge_cost=(5, 3))
        assert inst.edges == ((0, 1), (1, 2))
        assert inst.edge_cost == (3, 5)


def insert(front, pair):
    """Add one pair to a frontier: the step every DP cell repeats."""
    return prune_pairs(front + (pair,))


class _SubsetRules:
    """``run_dp`` states ``(blocks,)``: one block per bag vertex taken;
    any set goes, and a join finishes it."""

    @staticmethod
    def leaf():
        return ((),)

    @staticmethod
    def forget(state, u):
        return [(tuple(b for b in state[0] if b != 1 << u),)]

    @staticmethod
    def edge(state, u, v):
        return [state]

    @staticmethod
    def join(state1, state2):
        return [DONE]

    @staticmethod
    def alive(state, none_left, one_left):
        return True


class _TagRules:
    """``run_dp`` states ``(blocks, tag)``, one block per bag vertex
    taken: an edge splits a state into tags "a" and "b", a forget drops
    tag "b", and a join finishes every pair it meets.  ``calls`` records
    each rule's name and state."""

    def __init__(self):
        self.calls = []

    def leaf(self):
        return ((), "")

    def edge(self, state, u, v):
        self.calls.append(("edge", state))
        return [(state[0], "a"), (state[0], "b")]

    def forget(self, state, u):
        self.calls.append(("forget", state))
        blocks, tag = state
        return [] if tag == "b" else [
            (tuple(b for b in blocks if b != 1 << u), tag)]

    def join(self, state1, state2):
        self.calls.append(("join", state1))
        return [DONE]

    def alive(self, state, none_left, one_left):
        return True


def join_frontiers(weight, value, s, side1, side2, shared=()):
    """Run ``run_dp`` on a join of two branches that each introduce the
    ``shared`` vertices and introduce and forget their own side's; return
    the frontier of the join's products, which ``run_dp`` returns as
    finished."""
    nodes = []

    def add(kind, bag, children, vertex=None):
        nodes.append(DecompNode(kind, frozenset(bag), tuple(children), vertex))
        return len(nodes) - 1

    def branch(private):
        nid, bag = add(LEAF, (), ()), set()
        for v in shared:
            bag.add(v)
            nid = add(INTRODUCE_VERTEX, bag, (nid,), v)
        for v in private:
            nid = add(INTRODUCE_VERTEX, bag | {v}, (nid,), v)
            nid = add(FORGET_VERTEX, bag, (nid,), v)
        return nid

    root = add(JOIN, shared, (branch(side1), branch(side2)))
    nd = NiceDecomposition(tuple(nodes), root, frozenset(), len(shared))
    inst = make(n=len(weight), edges=(), weight=weight, value=value, s=s)
    stats = {"nodes_expanded": 0, "states_touched": 0}
    return tuple(run_dp(inst, nd, _SubsetRules, stats))


class TestRuleProtocol:
    def test_rules_return_the_states_their_node_leads_to(self):
        # edge 0-1 introduced, then 0 and 1 forgotten; the root joins
        # that branch with a bare leaf.  Vertex 0 weighs and is worth
        # nothing, so taking it ties with leaving it out.
        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), 0),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0, 1}), (1,), 1),
                 DecompNode(INTRODUCE_EDGE, frozenset({0, 1}), (2,),
                            edge=(0, 1)),
                 DecompNode(FORGET_VERTEX, frozenset({1}), (3,), 0),
                 DecompNode(FORGET_VERTEX, frozenset(), (4,), 1),
                 DecompNode(LEAF, frozenset(), ()),
                 DecompNode(JOIN, frozenset(), (5, 6)))
        nd = NiceDecomposition(nodes, 7, frozenset(), 1)
        inst = make(n=2, edges=((0, 1),), weight=(0, 1), value=(0, 5))
        assert validate_nice_decomposition(inst, nd)
        rules = _TagRules()
        stats = {"nodes_expanded": 0, "states_touched": 0}
        cell = run_dp(inst, nd, rules, stats)
        # the edge runs on {0, 1} only and both of its states reach the
        # forget of 0, which drops "b"; every state that reaches the
        # root join is finished
        assert rules.calls == [
            ("edge", ((0b01, 0b10), "")),
            ("forget", ((0b01,), "")), ("forget", ((0b01, 0b10), "a")),
            ("forget", ((0b01, 0b10), "b")),
            ("forget", ((0b10,), "")), ("forget", ((0b10,), "a")),
            ("join", ((), "")), ("join", ((), "a"))]
        # a tied pair keeps the witness of the first state in table
        # order: (0, 0) the empty set's over {0}'s at the forget of 0,
        # and (1, 5) {1}'s over the "a" state's {0, 1} at the join
        assert cell == {(0, 0): 0, (1, 5): 0b10}

    @staticmethod
    def _pruned_at(monkeypatch, inst, nd, rules):
        """``run_dp``'s result and the id of the node at each prune."""
        assert validate_nice_decomposition(inst, nd)
        stats = {"nodes_expanded": 0, "states_touched": 0}
        pruned_at = []

        def spy(pairs):
            pruned_at.append(stats["nodes_expanded"] - 1)  # the node id
            return prune_pairs(pairs)

        monkeypatch.setattr(decomposition, "prune_pairs", spy)
        return run_dp(inst, nd, rules, stats), pruned_at

    def test_cells_are_pruned_only_where_two_cells_meet(self, monkeypatch):
        # 0 introduced and forgotten, then 1, joined with a bare leaf: a
        # stored cell is already a frontier, so only the forgets, where
        # the taken and skipped states merge, prune.  The join's leaf
        # side is one pair, so its product is the other side shifted, a
        # frontier, and the finished cell is returned unpruned
        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), 0),
                 DecompNode(FORGET_VERTEX, frozenset(), (1,), 0),
                 DecompNode(INTRODUCE_VERTEX, frozenset({1}), (2,), 1),
                 DecompNode(FORGET_VERTEX, frozenset(), (3,), 1),
                 DecompNode(LEAF, frozenset(), ()),
                 DecompNode(JOIN, frozenset(), (4, 5)))
        nd = NiceDecomposition(nodes, 6, frozenset(), 0)
        inst = make(n=2, edges=(), weight=(1, 2), value=(3, 4))
        cell, pruned_at = self._pruned_at(monkeypatch, inst, nd, _SubsetRules)
        assert pruned_at == [2, 4]
        assert cell == {(0, 0): 0, (1, 3): 0b01, (2, 4): 0b10, (3, 7): 0b11}

    def test_join_of_two_multi_pair_cells_is_pruned(self, monkeypatch):
        # 0 introduced and forgotten on one side, 1 on the other: both
        # join cells hold two pairs, so the product is pruned at the join
        # (node 6), where (1, 2) falls to (1, 3); the finished cell is
        # returned as the join left it
        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), 0),
                 DecompNode(FORGET_VERTEX, frozenset(), (1,), 0),
                 DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({1}), (3,), 1),
                 DecompNode(FORGET_VERTEX, frozenset(), (4,), 1),
                 DecompNode(JOIN, frozenset(), (2, 5)))
        nd = NiceDecomposition(nodes, 6, frozenset(), 0)
        inst = make(n=2, edges=(), weight=(1, 1), value=(3, 2))
        cell, pruned_at = self._pruned_at(monkeypatch, inst, nd, _SubsetRules)
        assert pruned_at == [2, 5, 6]
        assert cell == {(0, 0): 0, (1, 3): 0b01, (2, 5): 0b11}

    def test_state_fed_by_one_cell_shares_it(self):
        # the forget of 0 maps each state to one of its own, so each
        # forget cell is its child's cell object, not a copy
        class Remember(_SubsetRules):
            @staticmethod
            def leaf():
                return ((), ())

            @staticmethod
            def forget(state, u):  # remember the forgotten taken vertex
                return [((), state[1] + (u,))]

        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), 0),
                 DecompNode(FORGET_VERTEX, frozenset(), (1,), 0))
        nd = NiceDecomposition(nodes, 2, frozenset(), 0)
        inst = make(n=1, edges=(), weight=(1,), value=(3,))
        assert validate_nice_decomposition(inst, nd)
        tables = {}

        def tracer(frame, event, arg):  # copy run_dp's node tables
            if frame.f_code is not run_dp.__code__:
                return None

            def local(frame, event, arg):
                tables.update(frame.f_locals.get("tables", {}))
                return local
            return local

        old = sys.gettrace()
        sys.settrace(tracer)
        try:
            run_dp(inst, nd, Remember,
                   {"nodes_expanded": 0, "states_touched": 0})
        finally:
            sys.settrace(old)
        assert tables[1] == {((), ()): {(0, 0): 0},
                             ((1,), ()): {(1, 3): 1}}
        assert tables[2] == {((), ()): {(0, 0): 0}, ((), (0,)): {(1, 3): 1}}
        assert tables[2][(), ()] is tables[1][(), ()]
        assert tables[2][(), (0,)] is tables[1][(1,), ()]

    def test_state_refused_by_alive_leaves_the_introduce_edge_table(self):
        # edge 0-1 comes in once 0 and 1 are in the bag, and neither has
        # an edge to come after it, so the driver asks ``alive`` about
        # each state that takes an end, and the one taking only 0 goes
        class Refuse(_SubsetRules):
            asked = []

            @classmethod
            def alive(cls, state, none_left, one_left):
                cls.asked.append((state, none_left, one_left))
                return state != ((0b01,),)

        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), 0),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0, 1}), (1,), 1),
                 DecompNode(INTRODUCE_EDGE, frozenset({0, 1}), (2,),
                            edge=(0, 1)),
                 DecompNode(FORGET_VERTEX, frozenset({1}), (3,), 0),
                 DecompNode(FORGET_VERTEX, frozenset(), (4,), 1))
        nd = NiceDecomposition(nodes, 5, frozenset(), 1)
        inst = make(n=2, edges=((0, 1),), weight=(1, 2), value=(3, 4))
        assert validate_nice_decomposition(inst, nd)
        _, tables, _ = node_tables(inst, nd, Refuse)
        taken = [((0b10,),), ((0b01,),), ((0b01, 0b10),)]
        assert tables[2].keys() == {((),), *taken}
        assert tables[3].keys() == tables[2].keys() - {((0b01,),)}
        assert sorted(Refuse.asked) == [(st, 0b11, 0) for st in sorted(taken)]
        # the states it keeps carry their cells on unchanged
        for state in tables[3]:
            assert tables[3][state] is tables[2][state]

    def test_walk_ends_at_its_first_empty_table(self):
        # 0 and 1 sit in every bag.  The forget of 2 finishes each state
        # that took 2 and passes it on, and edge 0-1 then drops every
        # state, so the table of node k = 4 is empty: the walk ends
        # there, never expands nodes 5 and 6, and returns the solution
        # finished before it
        class Drop(_SubsetRules):
            @staticmethod
            def leaf():
                return ((0b01, 0b10),)

            @staticmethod
            def forget(state, u):
                return [DONE, (tuple(b for b in state[0] if b != 1 << u),)]

            @staticmethod
            def edge(state, u, v):
                return [] if (u, v) == (0, 1) else [state]

        pins = frozenset({0, 1})
        nodes = (DecompNode(LEAF, pins, ()),
                 DecompNode(INTRODUCE_VERTEX, pins | {2}, (0,), 2),
                 DecompNode(INTRODUCE_EDGE, pins | {2}, (1,), edge=(1, 2)),
                 DecompNode(FORGET_VERTEX, pins, (2,), 2),
                 DecompNode(INTRODUCE_EDGE, pins, (3,), edge=(0, 1)),
                 DecompNode(INTRODUCE_VERTEX, pins | {3}, (4,), 3),
                 DecompNode(FORGET_VERTEX, pins, (5,), 3))
        nd = NiceDecomposition(nodes, 6, pins, 2)
        inst = make(n=4, edges=((0, 1), (1, 2)), weight=(1, 1, 2, 1),
                    value=(1, 1, 5, 1))
        assert validate_nice_decomposition(inst, nd)
        stats = {"nodes_expanded": 0, "states_touched": 0}
        assert run_dp(inst, nd, Drop, stats) == {(4, 7): 0b111}
        assert stats == {"nodes_expanded": 4 + 1, "states_touched": 7}


class TestParetoOps:
    def test_insert_no_dominance(self):
        assert insert(((1, 5), (3, 8)), (2, 6)) == ((1, 5), (2, 6), (3, 8))

    def test_insert_dominated(self):
        assert insert(((1, 5),), (2, 4)) == ((1, 5),)

    def test_insert_dominates_all(self):
        assert insert(((1, 5), (3, 8)), (0, 9)) == ((0, 9),)

    def test_join_shared_bag(self):
        # vertex 0 is taken on both sides but counted once
        out = join_frontiers((2,), (3,), 10, (), (), shared=(0,))
        assert out == ((0, 0), (2, 3))

    def test_join_neutral(self):
        # the empty side holds only (0, 0): the join is the other side
        out = join_frontiers((4,), (7,), 10, (), (0,))
        assert out == ((0, 0), (4, 7))

    def test_join_cap(self):
        # sides ((0,0),(1,1),(2,5)) and ((0,0),(1,2)); (3,7) is over s=2
        out = join_frontiers((1, 2, 1), (1, 5, 2), 2, (0, 1), (2,))
        assert out == ((0, 0), (1, 2), (2, 5))

    def test_no_solver_prunes_a_pair_over_budget(self, monkeypatch):
        # every solver drops a pair over s where it makes it, so
        # prune_pairs never sees one
        budget = []

        def checked(pairs):
            pairs = list(pairs)
            assert all(w <= budget[0] for w, _ in pairs), (pairs, budget)
            return prune_pairs(pairs)

        for module in (model, decomposition, paths, shortest):
            monkeypatch.setattr(module, "prune_pairs", checked)
        engines = {Variant.CONNECTED: ("treewidth", "oracle"),
                   Variant.PATH: ("treewidth", "color", "tree", "oracle"),
                   Variant.SHORTEST_PATH: ("labels", "tree", "oracle")}
        for (variant, names), decision in itertools.product(
                engines.items(), (False, True)):
            for inst in instance_stream(variant, 24, 31000, 8,
                                        decision=decision):
                budget[:] = [inst.s]
                for name in names:
                    def solve(i):
                        return cli._engines(0, 64)[name][i.variant](i)
                    try:
                        solve(inst)
                        fptas_optimize(inst, "1/3", solve)
                    except (errors.NotATree, errors.Unreachable):
                        pass

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            ParetoSet(((1, 5), (2, 4)))

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30))))
    def test_prune_is_canonical_and_undominated(self, pairs):
        out = prune_pairs(pairs)
        ParetoSet(out)  # canonical-form check built into the type
        # complete as well as sound: exactly the input pairs that no
        # other input pair weakly dominates
        assert set(out) == {(w, a) for w, a in pairs if not any(
            w2 <= w and a2 >= a for w2, a2 in pairs if (w2, a2) != (w, a))}

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    max_size=12),
           st.randoms(use_true_random=False))
    def test_insert_order_insensitive(self, pairs, rng):
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        fronts = []
        for order in (pairs, shuffled):
            front = ()
            for p in order:
                front = insert(front, p)
            fronts.append(front)
        assert fronts[0] == fronts[1] == prune_pairs(shuffled)

    @given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)),
                    max_size=10))
    def test_insert_idempotent(self, pairs):
        front = prune_pairs(pairs)
        for p in front:
            assert insert(front, p) == front


class TestBuildReport:
    @pytest.mark.parametrize("d, top, frontier", [
        (None, (4, 9), ((0, 0), (1, 3), (2, 5), (4, 9))),
        (4, (2, 5), ((2, 5),))])  # the cheapest pair with alpha >= d
    def test_only_the_reported_pair_is_decoded(self, d, top, frontier):
        # every other pair maps to None, which no decode takes
        pairs = [(0, 0), (1, 3), (2, 5), (3, 5), (4, 9)]
        found = {p: 0b101 if p == top else None for p in pairs}
        report = model.build_report(make(d=d), found, {})
        assert report.feasible and report.best_value == top[1]
        assert report.witness == frozenset({0, 2})
        assert report.frontier.pairs == frontier


class TestVerifySolution:
    def test_connected_disconnected_pair(self):
        inst = make()  # path a-b-c
        res = verify_solution(inst, {0, 2})
        assert not res.ok and res.reason == "disconnected"

    def test_connected_empty_ok(self):
        assert verify_solution(make(), set()).ok

    def test_path_unique_path_ok(self):
        inst = make(variant=Variant.PATH, x=0, y=2, d=3)
        res = verify_solution(inst, {0, 1, 2})
        assert res.ok and res.w == 3 and res.alpha == 3

    def test_path_not_a_path(self):
        inst = make(variant=Variant.PATH, x=0, y=2)
        assert verify_solution(inst, {0, 2}).reason == "not_a_path"

    def test_shortest_diamond(self):
        inst = make(variant=Variant.SHORTEST_PATH, n=4,
                    edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                    x=0, y=3, s=10)
        assert verify_solution(inst, {0, 1, 3}).ok
        assert verify_solution(inst, {0, 2, 3}).ok

    def test_shortest_longer_path_rejected(self):
        inst = make(variant=Variant.SHORTEST_PATH, n=4,
                    edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                    edge_cost=(2, 2, 1, 1), x=0, y=3, s=10)
        assert verify_solution(inst, {0, 2, 3}).ok
        assert verify_solution(inst, {0, 1, 3}).reason == "not_shortest"

    @pytest.mark.parametrize("variant", [Variant.PATH, Variant.SHORTEST_PATH])
    def test_path_longer_than_recursion_limit(self, variant):
        n = sys.getrecursionlimit() + 200
        inst = make(variant=variant, n=n,
                    edges=[(v, v + 1) for v in range(n - 1)],
                    x=0, y=n - 1, s=n)
        assert verify_solution(inst, range(n)).ok
        assert not verify_solution(inst, set(range(n)) - {n // 2}).ok

    def test_overweight_and_below_target(self):
        inst = make(s=1)
        assert verify_solution(inst, {0, 1, 2}).reason == "overweight"
        inst = make(d=5)
        assert verify_solution(inst, {0}).reason == "below_target"


def brute_is_path(inst, vertices):
    """Whether some order of ``vertices`` runs from x to y with each step
    an edge: every permutation tried, independent of ``_is_path``."""
    edges = set(inst.edges)
    return any(order[0] == inst.x and order[-1] == inst.y and all(
        (min(u, v), max(u, v)) in edges for u, v in zip(order, order[1:]))
        for order in itertools.permutations(vertices))


def complete_bipartite(a, b, x, y):
    n = a + b
    return make(variant=Variant.PATH, n=n,
                edges=[(u, v) for u in range(a) for v in range(a, n)],
                s=n, x=x, y=y)


class TestIsPath:
    """``model._is_path`` against a brute force over every nonempty
    subset of small instances, sets missing a terminal included."""

    @staticmethod
    def verdicts(inst):
        found = []
        for k in range(1, inst.n + 1):
            for subset in itertools.combinations(range(inst.n), k):
                want = brute_is_path(inst, subset)
                assert model._is_path(inst, frozenset(subset)) == want, (
                    inst, subset)
                found.append(want)
        return found

    @pytest.mark.parametrize("same_ends", [False, True],
                             ids=["x-y", "x-x"])
    def test_matches_brute_force_on_random_draws(self, same_ends):
        found = []
        for inst in instance_stream(Variant.PATH, 48, 2700, 8):
            assert inst.n <= 8
            if same_ends:
                inst = replace(inst, y=inst.x)
            found += self.verdicts(inst)
        assert any(found) and not all(found)

    @pytest.mark.parametrize("a, b", [
        (a, b) for a in range(1, 8) for b in range(1, 9 - a)])
    def test_matches_brute_force_on_complete_bipartite(self, a, b):
        ends = [(0, a)]  # opposite sides
        ends += [(0, 1)] if a > 1 else []  # both on the a-side
        ends += [(a, a + 1)] if b > 1 else []  # both on the b-side
        for x, y in ends:
            self.verdicts(complete_bipartite(a, b, x, y))

    def test_k8_10_full_set_is_refused_quickly(self):
        # a Hamiltonian path of a bipartite graph alternates sides, so
        # sides of 8 and 10 vertices have none; a search that tries
        # every ordering of the 18 vertices does not end in 10 s
        script = (
            "from graphsack import Instance, Variant, verify_solution\n"
            "inst = Instance(variant=Variant.PATH, n=18, edges=tuple(\n"
            "    (u, v) for u in range(8) for v in range(8, 18)),\n"
            "    weight=(1,) * 18, value=(1,) * 18, s=18, x=0, y=8)\n"
            "print(verify_solution(inst, range(18)).reason)\n")
        src_dir = str(Path(graphsack.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=10,
                              env=dict(os.environ, PYTHONPATH=src_dir))
        assert proc.returncode == 0 and proc.stdout == "not_a_path\n", (
            proc.stderr)


class TestJsonRoundTrip:
    def test_round_trip(self):
        inst = make(variant=Variant.SHORTEST_PATH, x=0, y=2, d=1,
                    edge_cost=(2, 3))
        again = instance_from_json(instance_to_json(inst))
        assert again == inst

    def test_unknown_field_rejected(self):
        doc = json.loads(instance_to_json(make()))
        doc["extra"] = 1
        with pytest.raises(errors.BadInstanceJson):
            instance_from_json(json.dumps(doc))

    def test_bad_version(self):
        doc = json.loads(instance_to_json(make()))
        doc["version"] = 2
        with pytest.raises(errors.BadInstanceJson):
            instance_from_json(json.dumps(doc))

    def test_output_is_stable_bytes(self):
        inst = make()
        assert instance_to_json(inst) == instance_to_json(inst)
