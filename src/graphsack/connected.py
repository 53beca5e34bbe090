"""Exact Connected Knapsack solver: one partition-state DP pass over an
unpinned nice edge tree decomposition.

A DP state at node t is (outside, blocks, closed): the bag vertices not
in the partial solution, one block per connected component trace of
the partial solution, and whether the partial solution is already one
finished component.  Forgetting the last bag vertex of the only block
closes the state; a closed state admits no more solution vertices.  So
the root (empty bag) holds the empty solution in its open state and
every non-empty connected subset in its closed state.  Cell payloads
are undominated (weight, value) frontiers; each pair keeps one
back-reference for witness reconstruction.
"""
from __future__ import annotations

import time

from .decomposition import (FORGET_VERTEX, INTRODUCE_EDGE, INTRODUCE_VERTEX,
                            JOIN, LEAF, NiceDecomposition,
                            build_nice_decomposition,
                            elimination_order_minfill, trace_witness)
from .model import (Instance, ParetoSet, SolveReport, Variant, build_report,
                    prune_pairs)

State = tuple[frozenset, tuple, bool]


def _canon_blocks(blocks) -> tuple:
    return tuple(sorted((b for b in blocks if b), key=min))


def _merge_blocks(blocks: tuple, i: int, j: int) -> tuple:
    merged = blocks[i] | blocks[j]
    rest = [b for k, b in enumerate(blocks) if k not in (i, j)]
    return _canon_blocks(rest + [merged])


def _union_partitions(insol: frozenset, parts1: tuple, parts2: tuple) -> tuple:
    """Transitive closure of two partitions of the same vertex set."""
    parent = {v: v for v in insol}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for blocks in (parts1, parts2):
        for block in blocks:
            it = iter(block)
            first = find(next(it))
            for v in it:
                parent[find(v)] = first
    classes: dict[int, set] = {}
    for v in insol:
        classes.setdefault(find(v), set()).add(v)
    return _canon_blocks(frozenset(c) for c in classes.values())


def _tables(inst: Instance, nd: NiceDecomposition, stats: dict):
    """Fill the DP tables bottom-up; returns {node: {state: {pair: ref}}}."""
    s = inst.s
    weight, value = inst.weight, inst.value
    tables: dict[int, dict[State, dict]] = {}

    for nid in nd.postorder():
        node = nd.nodes[nid]
        stats["nodes_expanded"] += 1
        out: dict[State, dict] = {}

        if node.kind == LEAF:
            # leaf bags of an unpinned decomposition are empty
            out[(frozenset(), (), False)] = {(0, 0): ("leaf",)}

        elif node.kind == INTRODUCE_VERTEX:
            child = node.children[0]
            u = node.vertex
            wu, au = weight[u], value[u]
            for state, cell in tables[child].items():
                outside, blocks, closed = state
                out[(outside | {u}, blocks, closed)] = {
                    p: ("copy", child, state, p) for p in cell}
                if closed:
                    continue
                shifted = {(w + wu, a + au): ("add", child, state, (w, a), u)
                           for (w, a) in cell if w + wu <= s}
                if shifted:
                    st_in = (outside,
                             _canon_blocks(blocks + (frozenset({u}),)), False)
                    out[st_in] = shifted

        elif node.kind == FORGET_VERTEX:
            child = node.children[0]
            u = node.vertex
            for state, cell in tables[child].items():
                outside, blocks, closed = state
                if u in outside:
                    new_state = (outside - {u}, blocks, closed)
                else:
                    idx = next(i for i, b in enumerate(blocks) if u in b)
                    if len(blocks[idx]) > 1:
                        rest = (blocks[:idx] + (blocks[idx] - {u},)
                                + blocks[idx + 1:])
                        new_state = (outside, _canon_blocks(rest), False)
                    elif len(blocks) == 1:
                        new_state = (outside, (), True)
                    else:
                        # this component left the bag apart from the
                        # others and can never reach them any more
                        continue
                dst = out.setdefault(new_state, {})
                for p in cell:
                    dst.setdefault(p, ("copy", child, state, p))

        elif node.kind == INTRODUCE_EDGE:
            child = node.children[0]
            u, v = node.edge
            for state, cell in tables[child].items():
                outside, blocks, closed = state
                if u in outside or v in outside:
                    new_state = state
                else:
                    iu = next(i for i, b in enumerate(blocks) if u in b)
                    iv = next(i for i, b in enumerate(blocks) if v in b)
                    if iu == iv:
                        new_state = state
                    else:
                        new_state = (outside, _merge_blocks(blocks, iu, iv),
                                     closed)
                dst = out.setdefault(new_state, {})
                for p in cell:
                    dst.setdefault(p, ("copy", child, state, p))

        elif node.kind == JOIN:
            c1, c2 = node.children
            by_outside: dict[frozenset, list] = {}
            for state, cell in tables[c2].items():
                by_outside.setdefault(state[0], []).append((state, cell))
            insol_all = node.bag
            for state1, cell1 in tables[c1].items():
                outside, blocks1, closed1 = state1
                partners = by_outside.get(outside)
                if not partners:
                    continue
                insol = insol_all - outside
                w_off = sum(weight[v] for v in insol)
                a_off = sum(value[v] for v in insol)
                for state2, cell2 in partners:
                    if closed1 and state2[2]:
                        continue  # two finished components never connect
                    merged = (outside,
                              _union_partitions(insol, blocks1, state2[1]),
                              closed1 or state2[2])
                    dst = out.setdefault(merged, {})
                    for p1 in cell1:
                        for p2 in cell2:
                            w = p1[0] + p2[0] - w_off
                            if w > s:
                                continue
                            pair = (w, p1[1] + p2[1] - a_off)
                            dst.setdefault(pair, ("join", c1, state1, p1,
                                                  c2, state2, p2))
        else:
            raise AssertionError(node.kind)

        out = {st: {p: cell[p] for p in prune_pairs(cell.keys(), s)}
               for st, cell in out.items() if cell}
        stats["states_touched"] += sum(len(c) for c in out.values())
        tables[nid] = out
    return tables


def solve_connected(inst: Instance, early_stop: bool = False) -> SolveReport:
    """Frontier over all connected vertex subsets within the budget, the
    empty set included, from one DP pass.

    ``early_stop`` is accepted for compatibility and ignored: the single
    pass always computes the full frontier.
    """
    if inst.variant is not Variant.CONNECTED:
        raise ValueError("solve_connected requires the connected variant")
    t0 = time.perf_counter()
    stats = {"nodes_expanded": 0, "states_touched": 0}
    nd = build_nice_decomposition(inst, elimination_order_minfill(inst), ())
    tables = _tables(inst, nd, stats)
    # the root bag is empty: its open state holds the empty solution and
    # its closed state every non-empty connected subset
    root = tables[nd.root]
    frontier = ParetoSet(prune_pairs(
        [p for cell in root.values() for p in cell], inst.s))

    def witness_for(pair):
        state = next(st for st, cell in root.items() if pair in cell)
        return trace_witness(tables, nd.root, state, pair)

    stats["wall_time"] = time.perf_counter() - t0
    return build_report(inst, frontier, witness_for, stats)
