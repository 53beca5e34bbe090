"""Brute-force oracles: spec examples, guards, internal consistency."""
import pytest

from graphsack import Instance, Variant, oracle_for, validate_instance
from graphsack import errors
from graphsack.oracles import _all_simple_paths, oracle_witnesses


def make(variant, n, edges, weight, value, s, **kw):
    return validate_instance(Instance(
        variant=variant, n=n, edges=tuple(edges), weight=tuple(weight),
        value=tuple(value), s=s, **kw))


class TestConnectedOracle:
    def test_triangle(self):
        inst = make(Variant.CONNECTED, 3, ((0, 1), (1, 2), (0, 2)),
                    (1, 1, 1), (1, 2, 3), 2)
        assert oracle_for(inst).pairs == (
            (0, 0), (1, 3), (2, 5))

    def test_edgeless_pair_only_singletons(self):
        inst = make(Variant.CONNECTED, 2, (), (1, 1), (3, 4), 100)
        assert oracle_for(inst).pairs == ((0, 0), (1, 4))

    def test_size_guard(self):
        inst = make(Variant.CONNECTED, 21, (), (0,) * 21, (0,) * 21, 0)
        with pytest.raises(errors.TooLarge):
            oracle_for(inst)


class TestPathOracle:
    def test_diamond_counts_two_paths(self):
        inst = make(Variant.PATH, 4, ((0, 1), (1, 3), (0, 2), (2, 3)),
                    (0, 1, 2, 0), (0, 5, 1, 0), 9, x=0, y=3)
        paths = list(_all_simple_paths(inst))
        assert len(paths) == 2
        assert oracle_for(inst).pairs == ((1, 5),)

    def test_tree_single_path(self):
        inst = make(Variant.PATH, 3, ((0, 1), (1, 2)), (1, 1, 1),
                    (1, 1, 1), 9, x=0, y=2)
        assert len(list(_all_simple_paths(inst))) == 1

    def test_k5_path_count(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        inst = make(Variant.PATH, 5, edges, (0,) * 5, (0,) * 5, 0,
                    x=0, y=4)
        # 1 direct + 3 one-hop + 6 two-hop + 6 three-hop simple paths
        assert len(list(_all_simple_paths(inst))) == 16

    def test_size_guard(self):
        inst = make(Variant.PATH, 13, (), (0,) * 13, (0,) * 13, 0,
                    x=0, y=1)
        with pytest.raises(errors.TooLarge):
            oracle_for(inst)


class TestShortestPathOracle:
    def test_unique_shortest_singleton(self):
        inst = make(Variant.SHORTEST_PATH, 3, ((0, 1), (1, 2), (0, 2)),
                    (1, 1, 1), (1, 1, 1), 9, x=0, y=2,
                    edge_cost=(1, 1, 5))
        assert oracle_for(inst).pairs == ((3, 3),)

    def test_unreachable(self):
        inst = make(Variant.SHORTEST_PATH, 2, (), (0, 0), (0, 0), 0,
                    x=0, y=1)
        with pytest.raises(errors.Unreachable):
            oracle_for(inst)

    def test_equal_cost_diamond(self):
        inst = make(Variant.SHORTEST_PATH, 4,
                    ((0, 1), (1, 3), (0, 2), (2, 3)),
                    (0, 2, 1, 0), (0, 5, 1, 0), 2, x=0, y=3)
        assert oracle_for(inst).pairs == ((1, 1), (2, 5))

    def test_costlier_path_enumerated_first_is_dropped(self):
        # 0-1-2 (cost 4) fits s and comes first; 0-2 (cost 1) replaces it
        inst = make(Variant.SHORTEST_PATH, 3, ((0, 1), (1, 2), (0, 2)),
                    (1, 1, 1), (1, 5, 1), 9, x=0, y=2, edge_cost=(2, 2, 1))
        assert next(_all_simple_paths(inst)) == (0, 1, 2)
        assert oracle_for(inst).pairs == ((2, 2),)
        assert oracle_witnesses(inst) == {(2, 2): frozenset({0, 2})}


class TestOracleOutputsAreCanonical:
    def test_frontier_strictly_increasing(self):
        inst = make(Variant.CONNECTED, 4, ((0, 1), (1, 2), (2, 3)),
                    (3, 1, 2, 4), (2, 5, 1, 9), 8)
        pairs = oracle_for(inst).pairs
        assert all(w0 < w1 and a0 < a1
                   for (w0, a0), (w1, a1) in zip(pairs, pairs[1:]))
