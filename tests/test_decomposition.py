"""Nice edge tree decompositions: construction, validation, mutation,
and the DP driver both exact solvers share."""
import dataclasses
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from graphsack import (Instance, Variant, build_nice_decomposition, decompose,
                       elimination_order_minfill, oracle_for, solve_connected,
                       solve_path_treewidth, validate_instance,
                       validate_nice_decomposition, verify_solution)
from graphsack import errors
from graphsack.connected import _ConnectedRules
from graphsack.decomposition import (FORGET_VERTEX, INTRODUCE_EDGE,
                                     INTRODUCE_VERTEX, JOIN, LEAF, DecompNode,
                                     NiceDecomposition, _Bound, run_dp,
                                     union_blocks)
from graphsack.model import _vertex_set, build_report, prune_pairs
from graphsack.paths import _PathRules
from graphsack.generators import random_instance

from conftest import (GRAPH_KINDS, instance_stream, node_tables, path_dp,
                      reroute)


def graph(n, edges):
    return validate_instance(Instance(
        variant=Variant.CONNECTED, n=n, edges=tuple(edges),
        weight=(0,) * n, value=(0,) * n, s=0))


def grid_graph(k):
    """The plain k x k grid; vertex r * k + c is at row r, column c."""
    edges = [(v, v + 1) for v in range(k * k) if v % k < k - 1]
    edges += [(v, v + k) for v in range(k * k - k)]
    return graph(k * k, edges)


def minfill_full_rescan(inst, pinned=()):
    """Reference min-fill: recompute every remaining vertex's fill at
    every step, first minimum over the sorted scan.  Pinned vertices and
    their edges are left out, and the sorted pins come last."""
    adj = [set() for _ in range(inst.n)]
    for u, v in inst.edges:
        if u not in pinned and v not in pinned:
            adj[u].add(v)
            adj[v].add(u)
    remaining = set(range(inst.n)) - set(pinned)
    order = []
    while remaining:
        best_v = best_fill = None
        for v in sorted(remaining):
            nl = sorted(adj[v])
            fill = sum(1 for i, a in enumerate(nl) for b in nl[i + 1:]
                       if b not in adj[a])
            if best_fill is None or fill < best_fill:
                best_fill, best_v = fill, v
        nbrs = adj[best_v]
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(best_v)
        adj[best_v] = set()
        remaining.remove(best_v)
        order.append(best_v)
    return tuple(order) + tuple(sorted(pinned))


def rescan_stream(stream):
    """90 seeded tree/gnp/grid graphs, n 2..61; the four streams used
    below give 360 graphs in all."""
    for i in range(90):
        kind = ("tree", "gnp", "grid")[i % 3]
        yield kind, i, random_instance(
            Variant.CONNECTED, kind, 2 + (i + 30 * stream) % 60,
            1000 * stream + i, p=(0.1, 0.2, 0.4)[i // 3 % 3])


class TestEliminationOrder:
    @pytest.mark.parametrize("stream", [0, 1, 3, 9])
    def test_matches_full_rescan(self, stream):
        for kind, i, inst in rescan_stream(stream):
            assert (elimination_order_minfill(inst)
                    == minfill_full_rescan(inst)), (kind, i)

    @pytest.mark.parametrize("stream", [0, 1, 3, 9])
    def test_pinned_matches_full_rescan(self, stream):
        rng = random.Random(stream)
        for kind, i, inst in rescan_stream(stream):
            pinned = set(rng.sample(range(inst.n), 1 + i % 2))
            assert (elimination_order_minfill(inst, pinned=pinned)
                    == minfill_full_rescan(inst, pinned)), (kind, i)

    def test_pins_eliminated_last(self):
        inst = graph(4, ((0, 1), (1, 2), (2, 3)))
        assert elimination_order_minfill(inst, pinned={2, 0}) == (1, 3, 0, 2)

    @pytest.mark.parametrize("k, whole_graph, pin_aware", [(4, 6, 5),
                                                           (5, 7, 6)])
    def test_pin_aware_order_narrows_corner_pinned_grid(self, k, whole_graph,
                                                        pin_aware):
        inst = grid_graph(k)
        pinned = {0, k * k - 1}
        nd = build_nice_decomposition(inst, elimination_order_minfill(inst),
                                      pinned)
        assert nd.width == whole_graph
        assert decompose(inst, pinned).width == pin_aware

    def test_empty_graph_identity_order(self):
        inst = graph(4, ())
        assert elimination_order_minfill(inst) == (0, 1, 2, 3)

    def test_path_eliminates_endpoint_first(self):
        inst = graph(3, ((0, 1), (1, 2)))
        order = elimination_order_minfill(inst)
        assert order[0] in (0, 2)

    def test_triangle_width_two(self):
        inst = graph(3, ((0, 1), (1, 2), (0, 2)))
        nd = decompose(inst)
        assert nd.width == 2


class TestBuild:
    def test_single_vertex_pinned(self):
        inst = graph(1, ())
        nd = decompose(inst, pinned={0})
        assert nd.nodes[nd.root].bag == frozenset({0})

    def test_star_pinned_center_width_one(self):
        inst = graph(4, ((0, 1), (0, 2), (0, 3)))
        nd = decompose(inst, pinned={0})
        assert nd.width == 1
        assert all(0 in node.bag for node in nd.nodes)

    def test_path_pinned_both_ends(self):
        inst = graph(3, ((0, 1), (1, 2)))
        nd = decompose(inst, pinned={0, 2})
        assert nd.width <= 3
        assert all({0, 2} <= node.bag for node in nd.nodes)

    def test_pinned_too_large(self):
        with pytest.raises(errors.PinnedTooLarge):
            build_nice_decomposition(graph(3, ()), (0, 1, 2), {0, 1, 2})

    def test_tree_width_one(self):
        inst = random_instance(Variant.CONNECTED, "tree", 9, 5)
        assert decompose(inst).width == 1

    def test_clique_width(self):
        k = 4
        inst = graph(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
        assert decompose(inst).width == k - 1

    def test_rebuild_same_seed_identical(self):
        inst = random_instance(Variant.CONNECTED, "gnp", 9, 11, p=0.5)
        order = elimination_order_minfill(inst)
        a = build_nice_decomposition(inst, order, {0})
        b = build_nice_decomposition(inst, order, {0})
        assert a == b

    def test_deep_elimination_tree_builds(self):
        # eliminating a path end to end nests every raw bag under the next
        n = sys.getrecursionlimit() + 100
        inst = graph(n, [(v, v + 1) for v in range(n - 1)])
        nd = build_nice_decomposition(inst, tuple(range(n)), ())
        assert validate_nice_decomposition(inst, nd)

    def test_union_of_bags_covers_vertices(self):
        inst = random_instance(Variant.CONNECTED, "gnp", 10, 13, p=0.4)
        nd = decompose(inst)
        covered = set()
        for node in nd.nodes:
            covered |= node.bag
        assert covered == set(range(inst.n))


class TestValidate:
    def test_random_graphs_validate(self):
        for seed in range(100):
            kind = ("tree", "gnp", "grid")[seed % 3]
            inst = random_instance(Variant.CONNECTED, kind, 2 + seed % 11,
                                   seed, p=0.4)
            pinned = {seed % inst.n} if seed % 2 else set()
            order = elimination_order_minfill(inst)
            nd = build_nice_decomposition(inst, order, pinned)
            assert validate_nice_decomposition(inst, nd)

    def test_random_orders_and_pins_validate(self):
        # any elimination order and up to two pinned vertices, not only
        # the min-fill order with at most one pin the solvers use
        rng = random.Random(0)
        for seed in range(180):
            kind = ("tree", "gnp", "grid")[seed % 3]
            inst = random_instance(Variant.CONNECTED, kind, 2 + seed % 13,
                                   seed, p=0.4)
            order = list(range(inst.n))
            rng.shuffle(order)
            pinned = rng.sample(range(inst.n), seed // 3 % 3)
            nd = build_nice_decomposition(inst, tuple(order), pinned)
            assert validate_nice_decomposition(inst, nd)
            # run_dp fills the nodes in id order
            assert nd.root == len(nd.nodes) - 1
            assert all(c < nid for nid, node in enumerate(nd.nodes)
                       for c in node.children)

    def test_dropped_introduce_edge_caught(self):
        inst = random_instance(Variant.CONNECTED, "gnp", 8, 21, p=0.5)
        nd = decompose(inst)
        target = next(i for i, node in enumerate(nd.nodes)
                      if node.kind == INTRODUCE_EDGE)
        mutated = reroute(nd, drop=target)
        with pytest.raises(errors.EdgeNeverIntroduced):
            validate_nice_decomposition(inst, mutated)

    def test_duplicated_introduce_edge_caught(self):
        inst = random_instance(Variant.CONNECTED, "gnp", 8, 21, p=0.5)
        nd = decompose(inst)
        target = next(i for i, node in enumerate(nd.nodes)
                      if node.kind == INTRODUCE_EDGE)
        mutated = reroute(nd, duplicate=target)
        with pytest.raises(errors.EdgeIntroducedTwice):
            validate_nice_decomposition(inst, mutated)

    def test_vertex_in_two_join_branches_caught(self):
        # 0 is introduced and forgotten on both sides of the join
        inst = graph(1, ())
        nodes = []
        for _ in range(2):
            nodes += [DecompNode(LEAF, frozenset(), ()),
                      DecompNode(INTRODUCE_VERTEX, frozenset({0}),
                                 (len(nodes),), vertex=0),
                      DecompNode(FORGET_VERTEX, frozenset(),
                                 (len(nodes) + 1,), vertex=0)]
        nodes.append(DecompNode(JOIN, frozenset(), (2, 5)))
        nd = NiceDecomposition(tuple(nodes), 6, frozenset(), 0)
        with pytest.raises(errors.BrokenSubtreeConnectivity):
            validate_nice_decomposition(inst, nd)

    def test_vertex_in_no_bag_caught(self):
        inst = graph(2, ())
        nodes = (DecompNode(LEAF, frozenset(), ()),
                 DecompNode(INTRODUCE_VERTEX, frozenset({0}), (0,), vertex=0),
                 DecompNode(FORGET_VERTEX, frozenset(), (1,), vertex=0))
        nd = NiceDecomposition(nodes, 2, frozenset(), 0)
        with pytest.raises(errors.BrokenSubtreeConnectivity):
            validate_nice_decomposition(inst, nd)

    def test_child_after_parent_caught(self):
        # valid but for the introduce node 0, whose child is node 1
        inst = graph(1, ())
        nodes = (DecompNode(INTRODUCE_VERTEX, frozenset({0}), (1,), vertex=0),
                 DecompNode(LEAF, frozenset(), ()),
                 DecompNode(FORGET_VERTEX, frozenset(), (0,), vertex=0))
        nd = NiceDecomposition(nodes, 2, frozenset(), 0)
        with pytest.raises(errors.BadNodeArity):
            validate_nice_decomposition(inst, nd)

    @pytest.mark.parametrize("shape", [
        [(LEAF, (), ()), (LEAF, (), ()), (INTRODUCE_VERTEX, {0}, (1,)),
         (FORGET_VERTEX, (), (2,))],
        [(LEAF, (), ()), (INTRODUCE_VERTEX, {0}, (0,)), (JOIN, {0}, (1, 1)),
         (FORGET_VERTEX, (), (2,))],
        [],
        [(LEAF, (), ()), ("bogus", {0}, (0,)), (FORGET_VERTEX, (), (1,))],
        [(LEAF, (), ()), (JOIN, (), (0,)), (INTRODUCE_VERTEX, {0}, (1,)),
         (FORGET_VERTEX, (), (2,))]],
        ids=["orphan", "two-parents", "empty", "unknown-kind",
             "join-one-child"])
    def test_bad_shape_caught(self, shape):
        # valid on the one-vertex graph but for the named fault
        nodes = tuple(DecompNode(kind, frozenset(bag), kids, vertex=0)
                      for kind, bag, kids in shape)
        nd = NiceDecomposition(nodes, len(nodes) - 1, frozenset(), 0)
        with pytest.raises(errors.BadNodeArity):
            validate_nice_decomposition(graph(1, ()), nd)

    @pytest.mark.parametrize("pinned, shape", [
        ((), [(LEAF, (), (), None), (INTRODUCE_VERTEX, {0}, (0,), 0),
              (FORGET_VERTEX, (), (1,), 0), (INTRODUCE_VERTEX, {99}, (2,), 99),
              (FORGET_VERTEX, (), (3,), 99)]),
        ((-1,), [(LEAF, {-1}, (), None), (INTRODUCE_VERTEX, {-1, 0}, (0,), 0),
                 (FORGET_VERTEX, {-1}, (1,), 0)])],
        ids=["introduced", "pinned"])
    def test_vertex_outside_instance_caught(self, pinned, shape):
        # valid on the one-vertex graph but for a vertex it does not have
        nodes = tuple(DecompNode(kind, frozenset(bag), kids, vertex=v)
                      for kind, bag, kids, v in shape)
        nd = NiceDecomposition(nodes, len(nodes) - 1, frozenset(pinned),
                               max(len(node.bag) for node in nodes) - 1)
        with pytest.raises(errors.BadNodeArity):
            validate_nice_decomposition(graph(1, ()), nd)

    def test_pin_outside_instance_refused_by_build(self):
        with pytest.raises(errors.IdOutOfRange):
            decompose(graph(3, ((0, 1),)), {99})
        with pytest.raises(errors.IdOutOfRange):
            decompose(graph(3, ((0, 1),)), {-1})

    @pytest.mark.parametrize("pinned", [{9}, {-1}, {-1, 9}])
    def test_each_stage_refuses_a_pin_outside_instance(self, pinned):
        inst = graph(3, ((0, 1),))
        message = re.escape(f"pinned set {sorted(pinned)} out of range")
        with pytest.raises(errors.IdOutOfRange, match=message):
            elimination_order_minfill(inst, pinned)
        with pytest.raises(errors.IdOutOfRange, match=message):
            build_nice_decomposition(inst, (0, 1, 2), pinned)
        # the build counts the pins before it checks them
        with pytest.raises(errors.PinnedTooLarge):
            build_nice_decomposition(inst, (0, 1, 2), {0, 1, *pinned})

    def test_wrong_root_bag_caught(self):
        inst = graph(3, ((0, 1), (1, 2)))
        nd = decompose(inst)
        broken = NiceDecomposition(nd.nodes, nd.root, frozenset({1}),
                                   nd.width)
        with pytest.raises((errors.RootNotPinnedBag, errors.BadNodeArity)):
            validate_nice_decomposition(inst, broken)


class TestUnionBlocks:
    """Blocks are vertex bitmasks: 0b0011 is the block {0, 1}."""

    def test_edge_merges_two_blocks(self):
        assert union_blocks((0b0011, 0b0100), (0b0110,)) == (0b0111,)

    def test_endpoint_in_no_block_ignored(self):
        assert union_blocks((0b0011, 0b0100), (0b1010,)) == (0b0011, 0b0100)

    def test_three_way_merge_through_one_block(self):
        assert union_blocks((0b001, 0b010, 0b100), (0b111,)) == (0b111,)

    def test_result_sorted(self):
        assert union_blocks((0b0010, 0b0100, 0b1000), (0b0110,)) == (
            0b0110, 0b1000)

    def test_block_count_drop_detects_cycle(self):
        # the path join keeps a merge only when the block count is
        # len1 + len2 - |key|, i.e. the two sides' segments close no cycle
        cycle = union_blocks((0b011,), (0b011,))  # 0-1 segment on both sides
        assert len(cycle) != 1 + 1 - 2
        chain = union_blocks((0b011, 0b100), (0b001, 0b110))  # 0-1 then 1-2
        assert chain == (0b111,) and len(chain) == 2 + 2 - 3

    # vertex v's block index on each side, or None when v is in no block
    @given(st.lists(st.tuples(st.none() | st.integers(0, 3),
                              st.none() | st.integers(0, 3)), max_size=10))
    def test_equals_union_find_closure(self, labels):
        def blocks(side):
            masks = {}
            for v, pair in enumerate(labels):
                if pair[side] is not None:
                    masks[pair[side]] = masks.get(pair[side], 0) | 1 << v
            return tuple(sorted(masks.values()))

        # reference: union-find over the vertices in a block of blocks1,
        # linking two of them when they share a block on either side
        parent = {v: v for v, pair in enumerate(labels) if pair[0] is not None}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        for side in (0, 1):
            first = {}
            for v in parent:
                label = labels[v][side]
                if label is not None:
                    parent[find(v)] = find(first.setdefault(label, v))
        classes = {}
        for v in parent:
            classes[find(v)] = classes.get(find(v), 0) | 1 << v
        assert union_blocks(blocks(0), blocks(1)) == tuple(
            sorted(classes.values()))


class TestSharedDriver:
    """Pins what the CLI prints for the two solvers on ``run_dp`` and
    the frontier tests cannot see: which witness a tie yields, and how
    many nodes and states the DP visits.  The Path rows run on the
    min-fill order of the whole graph, x and y included, so that they
    pin the driver and not the solver's pin-aware order.  Odd seeds are
    decision instances: the walk stops at the first finished solution
    that reaches d, and ``pairs_cut`` counts the pairs the bound cut.
    Any walk also stops at its first empty table: the Path 3x3 grid of
    seed 4 has 38 nodes, and its table empties at node 34."""

    @pytest.mark.parametrize("variant, kind, n, seed, witness, counts", [
        (Variant.CONNECTED, "tree", 12, 5, {1, 2, 3}, (52, 191, 9)),
        (Variant.CONNECTED, "gnp", 16, 0, {0, 4, 5, 6, 7, 11, 13, 14},
         (82, 2009)),
        (Variant.PATH, "grid", 9, 1, {0, 1, 4, 5}, (14, 56, 0)),
        (Variant.PATH, "grid", 9, 4, {0, 1, 2, 3, 5, 6, 7, 8}, (35, 168)),
    ])
    def test_witness_and_counters_pinned(self, variant, kind, n, seed,
                                         witness, counts):
        inst = random_instance(variant, kind, n, seed, max_weight=8,
                               max_value=8, p=0.3, decision=bool(seed % 2))
        if variant is Variant.CONNECTED:
            report = solve_connected(inst)
        else:
            nd = build_nice_decomposition(
                inst, elimination_order_minfill(inst), {inst.x, inst.y})
            report = path_dp(inst, nd)
        assert report.witness == frozenset(witness)
        assert report.stats == dict(zip(
            ("nodes_expanded", "states_touched", "pairs_cut"), counts))
        if inst.d is not None:
            assert verify_solution(inst, report.witness).alpha >= inst.d


class TestRootWitnesses:
    """Once the walk reaches the root, ``run_dp`` returns the finished
    cell, every solution a rule returned as ``DONE``, each pair with its
    witness's vertex bitmask; ``build_report`` prunes it.  Each family
    runs at sizes past the oracles' limits, where a verified witness per
    frontier pair is what shows the frontier sound, and on the
    oracle-size seeded stream, where the cell must prune to the oracle's
    frontier; Connected adds the empty solution ``(0, 0)`` first.  Path
    also runs a y = x copy of every fifth oracle-size instance."""

    @pytest.mark.parametrize("variant, kind, n, p", [
        (Variant.CONNECTED, "grid", 25, 0.4),
        (Variant.CONNECTED, "gnp", 24, 0.2),
        (Variant.CONNECTED, "tree", 40, 0.4),
        (Variant.PATH, "grid", 20, 0.4),
        (Variant.PATH, "gnp", 16, 0.3),
        (Variant.PATH, "tree", 30, 0.4),
    ])
    def test_every_root_pair_witness_verifies(self, variant, kind, n, p):
        large = [random_instance(variant, kind, n, seed, p=p)
                 for seed in range(6)]
        small = [inst for i, inst in enumerate(
                     instance_stream(variant, 66, 1900, 12))
                 if GRAPH_KINDS[i % 4] == kind]
        if variant is Variant.PATH:
            small += [dataclasses.replace(inst, y=inst.x)
                      for inst in small[::5]]
        checked = 0
        for i, inst in enumerate(large + small):
            if variant is Variant.CONNECTED:
                cell = run_dp(inst, decompose(inst), _ConnectedRules(),
                              {"nodes_expanded": 0, "states_touched": 0})
                pairs = [(0, 0), *cell]
            else:
                cell = run_dp(inst, decompose(inst, {inst.x, inst.y}),
                              _PathRules(inst),
                              {"nodes_expanded": 0, "states_touched": 0})
                pairs = list(cell)
            for pair in prune_pairs(cell):
                assert 0 < cell[pair] < 1 << inst.n, (inst, pair)
                witness = _vertex_set(cell[pair], inst.n)
                result = verify_solution(inst, witness)
                assert result.ok, (inst, pair, result.reason)
                assert (result.w, result.alpha) == pair, inst
                checked += 1
            if i >= len(large):
                assert prune_pairs(pairs) == oracle_for(inst).pairs, inst
        assert checked > 0


def edges_to_come(inst, nd):
    """Per node, ``{bag vertex: its edges not introduced at or below the
    node}``, recounted from the set of edges each subtree introduces."""
    below = []
    for node in nd.nodes:
        edges = set().union(*(below[c] for c in node.children))
        if node.edge:
            edges.add(node.edge)
        below.append(edges)
    return [{v: sum(v in e for e in inst.edges) - sum(v in e for e in edges)
             for v in node.bag} for node, edges in zip(nd.nodes, below)]


class TestDoomedStates:
    """``run_dp`` asks ``alive`` where a state can newly lose the edges
    it needs: at a join, at a leaf whose bag holds a vertex left with at
    most one edge to come, at the introduce of a vertex with no edges
    about the states that take it, and at an introduce-edge node about
    each state that takes an end left with at most one edge to come.
    So under a recount of the edges to come, no such state may be
    refused in the tables the walk filled before it stopped, and the
    states it dropped must cost no solution: the frontier stays the
    oracle's."""

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    def test_checked_tables_hold_no_doomed_state(self, variant):
        checked = 0
        for kind in ("grid", "gnp"):
            for n in (5, 9, 12):
                for seed in range(4):
                    inst = random_instance(variant, kind, n, seed, p=0.3)
                    if variant is Variant.CONNECTED:
                        nd, rules = decompose(inst), _ConnectedRules()
                    else:
                        nd = decompose(inst, {inst.x, inst.y})
                        rules = _PathRules(inst)
                    found, tables, _ = node_tables(inst, nd, rules)
                    counts = edges_to_come(inst, nd)
                    for nid, node in enumerate(nd.nodes):
                        left = counts[nid]
                        none_left = sum(1 << v for v, c in left.items()
                                        if c == 0)
                        one_left = sum(1 << v for v, c in left.items()
                                       if c == 1)
                        if node.kind == JOIN:
                            low = -1  # every state that takes a vertex
                        elif node.kind == LEAF:
                            low = none_left | one_left
                        elif node.kind == INTRODUCE_EDGE:
                            low = (none_left | one_left) & sum(
                                1 << v for v in node.edge)
                        elif (node.kind == INTRODUCE_VERTEX
                              and not inst.adjacency()[node.vertex]):
                            low = 1 << node.vertex
                        else:
                            continue
                        # no table past the node where the walk stopped
                        for state in tables.get(nid, ()):
                            if sum(state[0]) & low:
                                assert rules.alive(
                                    state, none_left, one_left), (
                                    inst, nid, state)
                                checked += 1
                    pairs = [*found]
                    if variant is Variant.CONNECTED:
                        pairs.append((0, 0))  # the empty solution
                    assert prune_pairs(pairs) == oracle_for(inst).pairs, inst
        assert checked > 0


class TestEarlyStop:
    """``run_dp`` ends its walk at the first empty table and returns what
    has finished.  On a seeded stream, optimize and decision, at the
    generated budget s and at s // 4, with a y = x copy of each Path
    instance, the frontier and the feasibility must equal the oracle's.
    Some "no" walks must stop early, and on Path some optimize walks
    must stop after a path has finished, so that a walk that dropped
    its finished cell at the stop fails here."""

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    def test_reports_match_the_oracle(self, variant):
        solve = (solve_connected if variant is Variant.CONNECTED
                 else solve_path_treewidth)
        stopped_no = stopped_found = 0
        for base in instance_stream(variant, 60, 8800, 10, decision=True):
            copies = [base]
            if variant is Variant.PATH:
                copies.append(dataclasses.replace(base, y=base.x))
            for inst in copies:
                pins = () if variant is Variant.CONNECTED else {inst.x, inst.y}
                for s in (inst.s, inst.s // 4):
                    optimize = dataclasses.replace(inst, s=s, d=None)
                    pairs = oracle_for(optimize).pairs
                    walk = len(decompose(optimize, pins).nodes)
                    for d in (None, inst.d):
                        report = solve(dataclasses.replace(optimize, d=d))
                        early = report.stats["nodes_expanded"] < walk
                        if d is None:
                            assert report.frontier.pairs == pairs, inst
                            stopped_found += early and bool(pairs)
                        else:
                            yes = bool(pairs) and pairs[-1][1] >= d
                            assert report.feasible == yes, inst
                            stopped_no += early and not yes
        assert stopped_no > 0
        if variant is Variant.PATH:
            assert stopped_found > 0


class TestDecisionMode:
    """With d set, ``run_dp`` cuts every pair that the fractional
    knapsack bound shows cannot reach d and returns at the first
    finished pair that does.  The cut must never lose a "yes": the
    answers must equal the oracle's with d the generator's, an eighth
    of the total value and one over the optimum, and each report must
    follow the decision contract."""

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    @pytest.mark.parametrize("kind", ["tree", "gnp", "grid"])
    def test_answer_matches_oracle(self, variant, kind):
        solve = (solve_connected if variant is Variant.CONNECTED
                 else solve_path_treewidth)
        cut = stopped = 0
        for seed in range(40):
            base = random_instance(variant, kind, 2 + seed % 10, 4200 + seed,
                                   p=0.4, decision=True)
            optimize = dataclasses.replace(base, d=None)
            pairs = oracle_for(optimize).pairs
            opt = pairs[-1][1] if pairs else -1
            walk = solve(optimize).stats["nodes_expanded"]
            for d in (base.d, sum(base.value) // 8, opt + 1):
                inst = dataclasses.replace(base, d=d)
                report = solve(inst)
                assert report.feasible == (opt >= d), inst
                if report.feasible:
                    result = verify_solution(inst, report.witness)
                    assert result.ok and result.alpha >= d, inst
                    assert report.frontier.pairs == ((result.w,
                                                      result.alpha),)
                    assert report.best_value == result.alpha
                    stopped += report.stats["nodes_expanded"] < walk
                else:
                    assert not report.frontier, inst
                    assert report.best_value is None, inst
                cut += report.stats["pairs_cut"]
        assert cut > 0 and stopped > 0

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    def test_answer_on_shuffled_orders(self, variant):
        # decompositions that min-fill does not build: wider bags and
        # join shapes whose decided masks the cut must still get right
        rng = random.Random(23)
        cut = joins = 0
        for seed in range(60):
            base = random_instance(variant, ("tree", "gnp", "grid")[seed % 3],
                                   2 + seed % 10, 5300 + seed, p=0.4,
                                   decision=True)
            order = list(range(base.n))
            rng.shuffle(order)
            pinned = () if variant is Variant.CONNECTED else {base.x, base.y}
            nd = build_nice_decomposition(base, tuple(order), pinned)
            joins += sum(node.kind == JOIN for node in nd.nodes)
            pairs = oracle_for(dataclasses.replace(base, d=None)).pairs
            opt = pairs[-1][1] if pairs else -1
            for d in (base.d, sum(base.value) // 8, opt + 1):
                inst = dataclasses.replace(base, d=d)
                if variant is Variant.CONNECTED:
                    stats = {"nodes_expanded": 0, "states_touched": 0}
                    report = build_report(
                        inst, {**run_dp(inst, nd, _ConnectedRules(), stats),
                               (0, 0): 0}, stats)
                else:
                    report = path_dp(inst, nd)
                assert report.feasible == (opt >= d), (inst, order)
                if report.feasible:
                    result = verify_solution(inst, report.witness)
                    assert result.ok and result.alpha >= d, (inst, order)
                cut += report.stats["pairs_cut"]
        assert cut > 0 and joins > 0

    @pytest.mark.parametrize("variant", [Variant.CONNECTED, Variant.PATH])
    def test_walk_record_matches_recounts(self, variant):
        # each node's record (edges to come, decided mask) against a
        # recount; a decided mask that misses vertices only loosens the
        # cut, so no answer would show it
        rng = random.Random(31)
        checked = joins = 0
        for seed in range(60):
            base = random_instance(variant, ("tree", "gnp", "grid")[seed % 3],
                                   2 + seed % 11, 6100 + seed, p=0.4,
                                   decision=True)
            pinned = () if variant is Variant.CONNECTED else {base.x, base.y}
            order = [v for v in range(base.n) if v not in pinned]
            rng.shuffle(order)
            rules = (_ConnectedRules() if variant is Variant.CONNECTED
                     else _PathRules(base))
            for nd in (decompose(base, pinned), build_nice_decomposition(
                    base, (*order, *sorted(pinned)), pinned)):
                counts = edges_to_come(base, nd)
                seen = []  # per node: the vertices in a bag at or below it
                for node in nd.nodes:
                    seen.append(node.bag.union(*(seen[c]
                                                 for c in node.children)))
                for d in (base.d, sum(base.value) // 8):
                    inst = dataclasses.replace(base, d=d)
                    bit = _Bound(inst).bit
                    _, _, records = node_tables(inst, nd, rules)
                    for nid, (left, decided) in records.items():
                        assert left == counts[nid], (inst, nid)
                        assert decided == sum(bit[v] for v in seen[nid]), (
                            inst, nid)
                        checked += 1
                        joins += nd.nodes[nid].kind == JOIN
        assert checked > 500 and joins > 5

    def test_bound_is_the_fractional_knapsack(self):
        # against an exact Fraction greedy over the undecided vertices,
        # zero weights and values included
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(0, 7)
            inst = dataclasses.replace(
                graph(n, ()), weight=tuple(rng.randint(0, 5) for _ in range(n)),
                value=tuple(rng.randint(0, 5) for _ in range(n)),
                s=rng.randint(0, 15), d=rng.randint(0, 20))
            bound = _Bound(inst)
            decided = [v for v in range(n) if rng.random() < 0.4]
            mask = sum(bound.bit[v] for v in decided)
            keep = bound.test(mask)
            items = sorted(((Fraction(inst.value[v], inst.weight[v])
                             if inst.weight[v] else None, v)
                            for v in range(n) if v not in decided),
                           key=lambda item: (item[0] is not None,
                                             -(item[0] or 0)))
            for w in range(inst.s + 1):
                room, best = inst.s - w, Fraction(0)
                for _, v in items:
                    take = min(Fraction(1), Fraction(room, inst.weight[v])
                               if inst.weight[v] else Fraction(1))
                    best += take * inst.value[v]
                    room -= take * inst.weight[v]
                for a in range(inst.d + 1):
                    assert keep(w, a) == (a + best >= inst.d), (inst, w, a)
