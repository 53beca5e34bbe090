"""Rooted nice edge tree decompositions with a pinned vertex set.

The width heuristic is greedy min-fill; DP correctness downstream is
width-agnostic, so no attempt is made at exact treewidth.  The pinned
vertices sit in every bag, so the order is min-fill on G - pinned with
the pins last, and the width is at most that order's width plus
|pinned|.  The build is one loop over elimination positions.  Each edge
is introduced exactly once, right above the first introduce-vertex node
that adds one of its ends to a bag already holding the other, or above
the first leaf when both ends are pinned.
``run_dp`` is the Pareto DP over these decompositions that both exact
solvers share: it walks the nodes in id order, owns the pairs, the
introduce step and each state's key (the union of its blocks), and each
solver supplies only the rules for its solution vertices.  The walk
also counts each bag vertex's edges still to come, and drops a state
that its rules say can no longer finish, as a vertex of it cannot get
the edges it needs, at the node where that first becomes so.  A walk
ends at its first empty table: no later solution can finish.  Every
stored pair carries the vertex bitmask of the first partial solution
that reached it, so no child table outlives its parent.  Stored cells are
frontiers and never change, so a state that one cell feeds shares it,
and only a state where two cells meet is pruned.  A rule marks a
finished solution by returning ``DONE``; it leaves the walk for one
finished cell, which ``run_dp`` returns as ``{pair: mask}`` for
``build_report`` to prune and decode.  A state keeps
each block of bag vertices as an int bitmask (bit v = vertex v), and
``union_blocks`` merges two partitions of them.  In decision mode
``run_dp`` drops every pair that a fractional knapsack bound shows
cannot reach d, and returns the first finished pair that does, if any.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, compress
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import errors
from .model import Instance, prune_pairs

LEAF = "leaf"
INTRODUCE_VERTEX = "introduce_vertex"
INTRODUCE_EDGE = "introduce_edge"
FORGET_VERTEX = "forget_vertex"
JOIN = "join"
DONE = "done"
_ARITY = {LEAF: 0, INTRODUCE_VERTEX: 1, FORGET_VERTEX: 1,
          INTRODUCE_EDGE: 1, JOIN: 2}


class DecompNode(NamedTuple):
    kind: str
    bag: frozenset[int]
    children: tuple[int, ...]
    vertex: Optional[int] = None
    edge: Optional[tuple[int, int]] = None


@dataclass(frozen=True)
class NiceDecomposition:
    """A rooted nice decomposition.  ``nodes`` lists every child before
    its parent and the root last, so a walk in id order is bottom-up."""
    nodes: tuple[DecompNode, ...]
    root: int
    pinned: frozenset[int]
    width: int

    def to_doc(self) -> dict:
        nodes = []
        for node in self.nodes:
            entry = {"kind": node.kind, "bag": sorted(node.bag),
                     "children": list(node.children)}
            if node.vertex is not None:
                entry["vertex"] = node.vertex
            if node.edge is not None:
                entry["edge"] = list(node.edge)
            nodes.append(entry)
        return {"nodes": nodes, "root": self.root,
                "pinned": sorted(self.pinned), "width": self.width}


def union_blocks(blocks1: tuple, blocks2: Iterable[int]) -> tuple:
    """Merge the blocks of ``blocks1`` that each block of ``blocks2``
    meets; vertices in no block of ``blocks1`` are ignored.  A block is a
    vertex bitmask (bit v = vertex v) and the result is sorted, the
    canonical order of disjoint blocks.  For two partitions of one
    vertex set this is their transitive closure."""
    merged = list(blocks1)
    for block in blocks2:
        union, rest = 0, []
        for b in merged:
            if b & block:
                union |= b
            else:
                rest.append(b)
        if union:
            rest.append(union)
            merged = rest
    return tuple(sorted(merged))


def _bits(mask: int) -> Iterator[int]:
    """The vertices whose bits are set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _left_masks(left: dict) -> tuple[int, int]:
    """``none_left`` and ``one_left``: the masks of the vertices with
    no edge and with one edge to come in ``{vertex: edges to come}``."""
    none_left = one_left = 0
    for v, count in left.items():
        if count == 0:
            none_left |= 1 << v
        elif count == 1:
            one_left |= 1 << v
    return none_left, one_left


# maps the binary digits of a decided mask to undecided flags
_UNDECIDED = bytes.maketrans(b"01", b"\x01\x00")


class _Bound:
    """Decision mode's cut: a pair (w, a) at a node can reach d only if
    a plus the fractional knapsack over the vertices in no bag at or
    below the node, with capacity s - w (the Dantzig bound), is at
    least d.  It ranks the vertices once by falling value/weight
    density, zero-weight vertices first, the greedy order of the
    fractional knapsack; ``bit[v]`` is v's rank bit.  The bound never
    falls as w falls or a rises, so a pair that dominates a kept pair is
    kept, and it never rises up the walk, so a pair cut stays cut."""

    def __init__(self, inst: Instance):
        weight, value = inst.weight, inst.value
        order = sorted(range(inst.n), key=lambda v: (1, Fraction(
            -value[v], weight[v])) if weight[v] else (0, 0))
        self.bit = [0] * inst.n
        for i, v in enumerate(order):
            self.bit[v] = 1 << i
        self.weight = [weight[v] for v in order]
        self.value = [value[v] for v in order]
        self.n, self.s, self.d = inst.n, inst.s, inst.d

    def test(self, decided: int) -> Callable[[int, int], bool]:
        """``keep(w, a)``: whether a + the bound with capacity s - w is
        at least d.  ``bisect`` on prefix sums over the undecided ranks
        finds the greedy prefix that fits, and the next vertex, of
        positive weight, fills the rest fractionally; the test
        cross-multiplies, so it stays in integers."""
        s, d = self.s, self.d
        # one byte per rank, low rank first, nonzero when undecided
        flags = f"{decided:0{self.n}b}".encode().translate(_UNDECIDED)[::-1]
        prefix_w = [*accumulate(compress(self.weight, flags), initial=0)]
        prefix_a = [*accumulate(compress(self.value, flags), initial=0)]
        last = len(prefix_w) - 1

        def keep(w: int, a: int) -> bool:
            room = s - w
            k = bisect_right(prefix_w, room) - 1
            gap = a + prefix_a[k] - d
            if gap >= 0 or k == last:
                return gap >= 0
            return (gap * (prefix_w[k + 1] - prefix_w[k])
                    + (room - prefix_w[k]) * (prefix_a[k + 1] - prefix_a[k])
                    >= 0)
        return keep


def run_dp(inst: Instance, nd: NiceDecomposition, rules, stats: dict) -> dict:
    """Fill a (weight, value) Pareto DP over ``nd`` bottom-up and return
    the finished solutions as ``{pair: vertex bitmask}``, as
    ``build_report`` takes them.

    A state's first entry is its sorted tuple of block masks (bit v =
    vertex v); their union, the state's key, is the set of bag vertices
    in the partial solution.  ``rules`` holds the rest of one problem's
    states.  Each rule but ``leaf`` returns the list of states its node
    leads to, ``[]`` to drop the state, and any rule may give ``DONE``
    for a finished solution, which takes no more vertices:

    - ``leaf() -> state``: the state of a leaf;
    - ``forget(state, u) -> states``: once u, a solution vertex, leaves
      the bag;
    - ``edge(state, u, v) -> states``: once edge uv between two solution
      vertices is in;
    - ``join(state1, state2) -> states``: the merged states of two
      states with the same key;
    - ``alive(state, none_left, one_left) -> bool``: whether the state
      can still finish, where ``none_left`` and ``one_left`` mask the
      bag vertices with no edge and with one edge to come.

    The walk counts, for each bag vertex, its edges not yet introduced
    below the node: deg(v) at a leaf or at the introduce of v, one less
    for each end at an introduce-edge node, left1 + left2 - deg(v) at a
    join, and a forget drops the vertex, whose edges are then all in.
    Beside them, each node's record in ``lefts`` holds its decided
    mask, the rank bits (``_Bound.bit``, 0 in optimize mode) of the
    vertices in some bag at or below it: the leaf's bag, plus u at the
    introduce of u, the union at a join.  A state that ``alive``
    refuses is dropped, and every state made from it would be refused
    too, so no finished cell changes.  It is
    asked only where a state can newly lose the edges it needs: about a
    leaf state whose bag meets either mask, about the take state of an
    introduce of a vertex with no edges at all, about each state
    leaving an introduce-edge node that takes an end now at one edge to
    come or none, and about each merged join state whose key meets
    either mask, before its pairs are made.

    Forget and introduce-edge nodes share one loop, which runs the rule
    on a state whose key holds every vertex it names and passes any
    other state on as it is.  The driver owns introduce and the pairs:
    u left out keeps the state and its cell, u taken adds the block
    ``1 << u`` and u's weight and value, the whole leaf bag is in the
    partial solution, a join pairs the states of its children on their
    keys and subtracts the key's vertices counted on both sides, and
    pairs over the budget are dropped where they are made.  Each pair
    maps to the vertex bitmask of the first partial solution that reached
    it: a leaf's bag, plus u when u is taken, or the union of the two
    sides at a join.  Every stored cell is a frontier listed by weight,
    so a join row stops at its first pair over s.  A leaf cell is one
    pair and an introduce cell the child's, shifted when u is taken.  A
    forget or introduce-edge state fed by one cell stores that cell
    object, and a join product with a one-pair side is the other side
    shifted, so only a state fed twice, or a join product of two
    multi-pair cells, is pruned, ``DONE``'s too; a second feed makes a
    fresh dict in which the earlier mask wins a tie.  In optimize mode
    the ``DONE`` cell then joins the finished cell, the first finished
    in node order winning a tie.  Nodes are filled in id order, a child
    table is dropped once its parent is filled, and no stored cell
    changes.  It counts ``nodes_expanded`` and ``states_touched`` (pairs
    kept in node tables) in ``stats``.

    The walk ends at the first node whose table is empty once its
    ``DONE`` cell, its prune and the bound's cut are done, and returns
    what has finished: the finished cell, ``{}`` in decision mode.  The
    outputs cannot change:

    - every state made later is dead: each node's table is made from
      its children's, a join pairing states of both, so an empty table
      at t makes every ancestor's table empty, the root's too;
    - Path: x and y lie in every bag, so a path that would finish at a
      node not below t restricts to a partial solution of t's subtree.
      ``alive`` keeps its state at t, as the path finishes, and the
      bound keeps its pair, as the path reaches d, or a pair that
      dominates it is kept, so t's table would not be empty;
    - Connected, optimize mode: the all-skip state with pair (0, 0)
      survives every node, so no table empties;
    - Connected, decision mode: an empty table means the all-skip pair
      was cut too, so no solution outside t's subtree reaches d, and
      every solution inside it either finished below t, where the
      ``DONE`` check already returned it, or has a live state at t.

    Decision mode (``inst.d`` set) keeps no finished cell.  After a
    node's prune, the first pair of its ``DONE`` cell with value >= d
    is returned at once, alone with its mask; a walk that finds
    none returns an empty dict.  And at each leaf, introduce-vertex and
    join node, the only nodes that decide vertices, ``_Bound`` tests
    each distinct pair of the pruned table once against the node's
    decided mask, and the pairs it shows cannot reach d are dropped from
    every cell that holds one and counted in ``stats["pairs_cut"]``.
    The kept pairs keep their masks, and a cell that loses none is kept
    as it is.
    """
    s, d = inst.s, inst.d
    weight, value = inst.weight, inst.value
    deg = [0] * inst.n  # edges to come at a leaf or an introduce
    for u, v in inst.edges:
        deg[u] += 1
        deg[v] += 1
    tables: dict[int, dict] = {}
    lefts: dict[int, tuple] = {}  # per node: (edges to come, decided)
    finished: dict = {}  # {pair: mask} of every finished solution
    rule_of = {FORGET_VERTEX: rules.forget, INTRODUCE_EDGE: rules.edge}
    alive = rules.alive
    rank = [0] * inst.n  # optimize mode decides nothing
    if d is not None:
        bound = _Bound(inst)
        rank = bound.bit
        stats["pairs_cut"] = 0

    for nid, node in enumerate(nd.nodes):
        stats["nodes_expanded"] += 1
        out: dict = {}
        meet = set()  # the states where two cells meet: only these prune
        if node.kind == LEAF:
            left = {v: deg[v] for v in node.bag}
            decided = sum(rank[v] for v in node.bag)
            pair = (inst.total_weight(node.bag), inst.total_value(node.bag))
            key, state = sum(1 << v for v in node.bag), rules.leaf()
            none_left, one_left = _left_masks(left)
            low = key & (none_left | one_left)  # its vertices low on edges
            if pair[0] <= s and (not low or state is DONE
                                 or alive(state, none_left, one_left)):
                out = {state: {pair: key}}

        elif node.kind == INTRODUCE_VERTEX:
            u = node.vertex
            left, decided = lefts.pop(node.children[0])
            left[u] = deg[u]
            decided |= rank[u]
            wu, au, bit = weight[u], value[u], 1 << u
            if not deg[u]:  # u taken can newly doom a state
                none_left, one_left = _left_masks(left)
            for state, cell in tables.pop(node.children[0]).items():
                # skip before take: the order of the states in a table
                # decides which of two equal pairs keeps its witness
                out[state] = cell
                shifted = {(w + wu, a + au): mask | bit
                           for (w, a), mask in cell.items() if w + wu <= s}
                if shifted:
                    take = (tuple(sorted(state[0] + (bit,))), *state[1:])
                    if deg[u] or alive(take, none_left, one_left):
                        out[take] = shifted

        elif node.kind == JOIN:
            c1, c2 = node.children
            (left1, decided1), (left2, decided2) = lefts.pop(c1), lefts.pop(c2)
            left = {v: left1[v] + left2[v] - deg[v] for v in left1}
            decided = decided1 | decided2
            none_left, one_left = _left_masks(left)
            by_key: dict[int, list] = {}
            for state, cell in tables.pop(c2).items():
                by_key.setdefault(sum(state[0]), []).append((state, cell))
            offsets = {}  # per key: its vertices' weight and value
            for state1, cell1 in tables.pop(c1).items():
                key = sum(state1[0])
                partners = by_key.get(key)
                if not partners:
                    continue
                if key not in offsets:
                    vs = [*_bits(key)]
                    offsets[key] = (sum(map(weight.__getitem__, vs)),
                                    sum(map(value.__getitem__, vs)))
                w_off, a_off = offsets[key]
                low = key & (none_left | one_left)  # its vertices low on edges
                for state2, cell2 in partners:
                    for merged in rules.join(state1, state2):
                        if low and merged is not DONE and not alive(
                                merged, none_left, one_left):
                            continue  # it can no longer finish
                        # a product with a one-pair side is a shifted
                        # frontier, ascending in weight
                        if merged in out or len(cell1) > 1 and len(cell2) > 1:
                            meet.add(merged)
                        dst = out.setdefault(merged, {})
                        for (w1, a1), m1 in cell1.items():
                            for (w2, a2), m2 in cell2.items():
                                w = w1 + w2 - w_off
                                if w > s:
                                    break  # cell2 ascends in weight
                                dst.setdefault((w, a1 + a2 - a_off), m1 | m2)
            # a join cell is empty when every pair in it overran the budget
            out = {st: cell for st, cell in out.items() if cell}
        else:  # forget u or introduce edge uv
            ends, rule = node.edge or (node.vertex,), rule_of[node.kind]
            left, decided = lefts.pop(node.children[0])
            if node.edge:
                u, v = ends
                need = 1 << u | 1 << v
                left[u] -= 1
                left[v] -= 1
                # only a state that takes an end now low on edges can
                # newly be doomed; an edge keeps a state's key
                low = (left[u] <= 1) << u | (left[v] <= 1) << v
                if low:
                    none_left, one_left = _left_masks(left)
            else:
                need, low = 1 << node.vertex, 0
                del left[node.vertex]  # its edges are all in
            for state, cell in tables.pop(node.children[0]).items():
                key = sum(state[0])
                for new_state in (rule(state, *ends)
                                  if key & need == need else (state,)):
                    if key & low and new_state is not DONE and not alive(
                            new_state, none_left, one_left):
                        continue  # it can no longer finish
                    dst = out.get(new_state)
                    if dst is None:
                        out[new_state] = cell
                    else:  # the earlier mask wins a tie
                        out[new_state] = {**cell, **dst}
                        meet.add(new_state)

        for st in meet & out.keys():
            if len(cell := out[st]) > 1:
                out[st] = {p: cell[p] for p in prune_pairs(cell)}
        for p, mask in out.pop(DONE, {}).items():
            if d is None:
                finished.setdefault(p, mask)
            elif p[1] >= d:
                return {p: mask}
        # only these kinds shrink the undecided vertices
        if out and d is not None and node.kind in (LEAF, INTRODUCE_VERTEX,
                                                    JOIN):
            keep = bound.test(decided)
            pairs = {p for cell in out.values() for p in cell}
            if cut := {p for p in pairs if not keep(*p)}:
                before = sum(len(c) for c in out.values())
                out = {st: kept for st, cell in out.items() if (
                    kept := cell if cut.isdisjoint(cell)
                    else {p: m for p, m in cell.items() if p not in cut})}
                stats["pairs_cut"] += before - sum(
                    len(c) for c in out.values())
        if not out:
            break  # every later table is empty: nothing more can finish
        stats["states_touched"] += sum(map(len, out.values()))
        tables[nid] = out
        lefts[nid] = left, decided
    return finished


def _eliminate(adj: list[int], v: int) -> int:
    """Make v's remaining neighbours a clique, detach v from them and
    return them as a bitmask.  ``adj[u]`` is u's neighbour bitmask."""
    nbrs = adj[v]
    adj[v] = 0
    for a in _bits(nbrs):
        adj[a] = (adj[a] | nbrs) & ~(1 << a | 1 << v)
    return nbrs


def _check_pins(inst: Instance, pinned: Iterable[int]) -> list[int]:
    """The pins sorted; ``IdOutOfRange`` if one is not a vertex."""
    pinned = sorted(set(pinned))
    if any(v not in range(inst.n) for v in pinned):
        raise errors.IdOutOfRange(f"pinned set {pinned} out of range")
    return pinned


def elimination_order_minfill(inst: Instance,
                              pinned: Iterable[int] = ()) -> tuple[int, ...]:
    """Greedy min-fill elimination order of G - pinned, followed by the
    sorted pinned vertices.

    The pinned vertices sit in every bag anyway, so the order ignores
    their edges and eliminates them last: no fill passes through them.
    Each step eliminates the vertex of least fill, ties broken on lowest
    id, popped from a heap of (fill, vertex) entries; an entry whose
    score has since changed is skipped.  Eliminating v changes the
    neighbourhoods of N(v) only, but its clique edges lie inside N(v)
    and so also change the fill of their neighbours: the scores of N(v)
    and N(N(v)) are recomputed, no others.  Raises ``IdOutOfRange`` for
    a pin that is not a vertex.
    """
    pinned = _check_pins(inst, pinned)
    pins = sum(1 << v for v in pinned)
    adj = [sum(1 << a for a in nbrs) & ~pins for nbrs in inst.adjacency()]

    def fill(u: int) -> int:
        nbrs = rest = adj[u]
        linked = 0
        while rest:  # the bits of nbrs, walked inline
            low = rest & -rest
            linked += (adj[low.bit_length() - 1] & nbrs).bit_count()
            rest ^= low
        degree = nbrs.bit_count()
        return (degree * (degree - 1) - linked) // 2

    score = [fill(u) for u in range(inst.n)]
    # a sorted list is a heap; a pin is never pushed
    heap = sorted((score[u], u) for u in range(inst.n) if not pins >> u & 1)
    order: list[int] = []
    while heap:
        f, v = heapq.heappop(heap)
        if score[v] != f:
            continue  # stale entry, or v already eliminated
        score[v] = None
        touched = rest = _eliminate(adj, v)
        while rest:
            low = rest & -rest
            touched |= adj[low.bit_length() - 1]
            rest ^= low
        while touched:
            low = touched & -touched
            u = low.bit_length() - 1
            f = fill(u)
            if score[u] != f:
                score[u] = f
                heapq.heappush(heap, (f, u))
            touched ^= low
        order.append(v)
    return (*order, *pinned)


def build_nice_decomposition(inst: Instance, order: tuple[int, ...],
                             pinned: Iterable[int]) -> NiceDecomposition:
    """Turn an elimination order into a rooted nice edge decomposition
    whose root and leaf bags equal the pinned set.

    One pass over the positions: position i eliminates its vertex,
    takes it and its remaining neighbours as its raw bag, joins the
    chains up from its raw children, which all came earlier, and hangs
    itself under its parent, the earliest later neighbour or else
    position i + 1.  So ``nodes`` lists every child before its parent
    and the root last.  Each edge is introduced once, right above the
    first introduce-vertex node that adds one of its ends to a bag
    already holding the other; an edge between two pinned vertices goes
    right above the first leaf."""
    pinned = frozenset(pinned)
    if len(pinned) > 2:
        raise errors.PinnedTooLarge(f"pinned set {sorted(pinned)} too large")
    _check_pins(inst, pinned)

    nodes: list[DecompNode] = []
    todo = set(inst.edges)  # normalized edges not yet introduced
    neighbours = [*map(frozenset, inst.adjacency())]

    def add(node: DecompNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def add_edges(nid: int, bag: frozenset[int], v: int) -> int:
        # a set intersection walks the smaller side: v's neighbours or
        # the bag
        for w in sorted(bag & neighbours[v]):
            e = (min(v, w), max(v, w))
            if e in todo:
                todo.remove(e)
                nid = add(DecompNode(INTRODUCE_EDGE, bag, (nid,), edge=e))
        return nid

    def chain(nid: int, bag: frozenset[int], want: frozenset[int]) -> int:
        for v in sorted(bag - want):
            bag = bag - {v}
            nid = add(DecompNode(FORGET_VERTEX, bag, (nid,), vertex=v))
        for v in sorted(want - bag):
            bag = bag | {v}
            nid = add(DecompNode(INTRODUCE_VERTEX, bag, (nid,), vertex=v))
            nid = add_edges(nid, bag, v)
        return nid

    pos = {v: i for i, v in enumerate(order)}
    adj = [sum(1 << a for a in nbrs) for nbrs in neighbours]
    children: list[list[int]] = [[] for _ in order]
    tops: list[tuple[int, frozenset[int]]] = []  # (top node, bag)
    for i, v in enumerate(order):
        higher = [*_bits(_eliminate(adj, v))]
        bag = frozenset({v, *higher} | pinned)
        if children[i]:
            kid_tops = [chain(*tops[k], bag) for k in children[i]]
        else:
            nid = add(DecompNode(LEAF, pinned, ()))
            for u in sorted(pinned):
                nid = add_edges(nid, pinned, u)
            kid_tops = [chain(nid, pinned, bag)]
        nid = kid_tops[0]
        for other in kid_tops[1:]:
            nid = add(DecompNode(JOIN, bag, (nid, other)))
        tops.append((nid, bag))
        if higher:
            children[min(pos[a] for a in higher)].append(i)
        elif i + 1 < len(order):
            # isolated remainder: chain onto the next bag
            children[i + 1].append(i)

    # a graph with no vertices is one leaf
    root = (chain(*tops[-1], pinned) if tops
            else add(DecompNode(LEAF, pinned, ())))
    width = max(len(node.bag) for node in nodes) - 1
    return NiceDecomposition(tuple(nodes), root, pinned, width)


def validate_nice_decomposition(inst: Instance,
                                nd: NiceDecomposition) -> bool:
    """Check every structural invariant against the instance.

    The pinned vertices and every introduced vertex must be vertices of
    the instance, which bounds every bag.  One pass in id order checks
    each node against ``_ARITY`` and against the bag of the node below it
    (a leaf's is the pinned set), requires every child id to come before
    its parent's, and counts parents, edge introductions and forgets.
    Then the root must be the last node and every other node must have
    exactly one parent: parent links only climb in id order, so the
    nodes form one tree under the last.  The root bag, edge counts,
    forget counts and width follow.  Raises a ValidationError subclass
    on the first violation.
    """
    nodes, pinned, vertices = nd.nodes, nd.pinned, range(inst.n)
    if not all(v in vertices for v in pinned):
        raise errors.BadNodeArity(f"pinned set {sorted(pinned)} out of range")
    parents = [0] * len(nodes)
    edges = dict.fromkeys(inst.edges, 0)
    forgets = {v: 0 for v in vertices if v not in pinned}
    for nid, node in enumerate(nodes):
        kind, kids, bag, v = node.kind, node.children, node.bag, node.vertex
        if _ARITY.get(kind) != len(kids):
            raise errors.BadNodeArity(
                f"node {nid} of kind {kind!r} has {len(kids)} children")
        for c in kids:
            if not 0 <= c < nid:
                raise errors.BadNodeArity(
                    f"child {c} of node {nid} is not listed before it")
            parents[c] += 1
        below = nodes[kids[-1]].bag if kids else pinned
        if kind == INTRODUCE_VERTEX:
            ok = v in vertices and v not in below and bag == below | {v}
        elif kind == FORGET_VERTEX:
            ok = v in below and bag == below - {v}
            if v in forgets:
                forgets[v] += 1
        else:
            ok = bag == below and (kind != JOIN or nodes[kids[0]].bag == bag)
        if not ok:
            raise errors.BadNodeArity(f"{kind} node {nid} bag mismatch")
        if kind == INTRODUCE_EDGE:
            e = node.edge
            key = (min(e), max(e)) if e else None
            if key not in edges or not bag.issuperset(e):
                raise errors.BadNodeArity(
                    f"introduce-edge {nid}: {e} is not a graph edge in its bag")
            edges[key] += 1
        if not pinned <= bag:
            raise errors.RootNotPinnedBag(
                f"pinned vertices missing from bag of node {nid}")

    # children come first, so the last node is nobody's child
    if (not nodes or nd.root != len(nodes) - 1
            or parents.count(1) != len(nodes) - 1):
        raise errors.BadNodeArity(
            "nodes are not one tree listed children first and root last")
    if nodes[-1].bag != pinned:
        raise errors.RootNotPinnedBag("root bag is not the pinned set")
    for e, c in edges.items():
        if c == 0:
            raise errors.EdgeNeverIntroduced(f"edge {e} never introduced")
        if c > 1:
            raise errors.EdgeIntroducedTwice(f"edge {e} introduced {c} times")
    # Given the node rules above, each maximal run of bags holding an
    # unpinned vertex has a forget node right above its top, as the root
    # bag is the pinned set: one forget node means one connected run.
    for v, c in forgets.items():
        if c != 1:
            raise errors.BrokenSubtreeConnectivity(
                f"bags containing vertex {v} form {c} subtrees")
    actual_width = max(len(node.bag) for node in nodes) - 1
    if nd.width != actual_width:
        raise errors.BadNodeArity(
            f"recorded width {nd.width} != actual {actual_width}")
    return True


def decompose(inst: Instance,
              pinned: Iterable[int] = ()) -> NiceDecomposition:
    """The min-fill order of G - pinned built into a nice decomposition
    pinned at ``pinned``, unvalidated: both solvers call it, Connected
    with no pins and Path with {x, y}; ``cmd_decompose`` validates it."""
    pinned = frozenset(pinned)
    order = elimination_order_minfill(inst, pinned=pinned)
    return build_nice_decomposition(inst, order, pinned)
