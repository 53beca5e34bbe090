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
solver supplies only the rules for its solution vertices.  Every stored
pair carries the vertex bitmask of the first partial solution that
reached it, so no child table outlives its parent.  Stored cells are
frontiers, so only nodes where two cells meet prune.  A rule marks a
finished solution by returning ``DONE``; it leaves the walk for one
finished cell, which ``run_dp`` prunes and returns as ``{pair: vertex
frozenset}``, so no witness bitmask leaves this module.  A state keeps
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
from typing import Callable, Iterable, Iterator, Optional

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


@dataclass(frozen=True)
class DecompNode:
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
        touching = [b for b in merged if b & block]
        if len(touching) > 1:
            merged = [b for b in merged if not b & block]
            merged.append(sum(touching))  # disjoint: sum is union
    return tuple(sorted(merged))


def _bits(mask: int) -> Iterator[int]:
    """The vertices whose bits are set in ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _key(state) -> int:
    """The bitmask of the bag vertices in a state's partial solution: a
    state's first entry is its sorted tuple of block masks, and the
    blocks are disjoint, so their sum is their union."""
    return sum(state[0])


# maps the binary digits of a decided mask to undecided flags
_UNDECIDED = bytes.maketrans(b"01", b"\x01\x00")


class _Bound:
    """Decision mode's cut: a pair (w, a) at a node can reach d only if
    a plus the fractional knapsack over the vertices in no bag at or
    below the node, with capacity s - w (the Dantzig bound), is at
    least d.  It ranks the vertices once by falling value/weight
    density, zero-weight vertices first, the greedy order of the
    fractional knapsack.  ``decided[nid]``, an int mask over those
    ranks, holds the vertices in some bag at or below node nid: a
    leaf's bag, the child's plus u at introduce-vertex u, the union at
    a join, the child's elsewhere.  The bound never falls as w falls or
    a rises, so a pair that dominates a kept pair is kept, and it never
    rises up the walk, so a pair cut stays cut."""

    def __init__(self, inst: Instance, nd: NiceDecomposition):
        weight, value = inst.weight, inst.value
        order = sorted(range(inst.n), key=lambda v: (1, Fraction(
            -value[v], weight[v])) if weight[v] else (0, 0))
        self.bit = [0] * inst.n
        for i, v in enumerate(order):
            self.bit[v] = 1 << i
        self.weight = [weight[v] for v in order]
        self.value = [value[v] for v in order]
        self.n, self.s, self.d = inst.n, inst.s, inst.d
        decided = self.decided = []  # per node id
        for node in nd.nodes:
            if node.kind == LEAF:
                mask = sum(self.bit[v] for v in node.bag)
            else:
                mask = decided[node.children[0]] | decided[node.children[-1]]
                if node.kind == INTRODUCE_VERTEX:
                    mask |= self.bit[node.vertex]
            decided.append(mask)

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
    the finished solutions as ``{pair: vertex frozenset}``, pruned to
    their frontier in ascending weight, as ``build_report`` takes them.

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
      states with the same key.

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
    sides at a join.  Every stored cell is a frontier listed by weight
    (leaf and introduce cells are so already), so a join row stops at
    its first pair over s, and only forget, introduce-edge and join
    nodes, where cells meet, prune, ``DONE``'s too; in optimize mode
    it then joins the finished cell, the first finished in node order
    winning a tie.  Nodes are filled in id order, a child table is
    dropped once its parent is filled, and a cell that gains pairs is a
    fresh dict, so no stored cell changes.  After the root the finished
    cell is pruned and each witness mask becomes its vertex set.  It
    counts ``nodes_expanded`` and ``states_touched`` (pairs kept in
    node tables) in ``stats``.

    Decision mode (``inst.d`` set) keeps no finished cell.  After a
    node's prune, the first pair of its ``DONE`` cell with value >= d
    is returned at once, alone with its vertex set; a walk that finds
    none returns an empty dict.  And at each leaf, introduce-vertex and
    join node, the only nodes that decide vertices, every pair of the
    pruned table that ``_Bound`` shows cannot reach d is dropped and
    counted in ``stats["pairs_cut"]``.  The kept pairs keep their masks.
    """
    s, d = inst.s, inst.d
    weight, value = inst.weight, inst.value
    tables: dict[int, dict] = {}
    finished: dict = {}  # {pair: mask} of every finished solution
    rule_of = {FORGET_VERTEX: rules.forget, INTRODUCE_EDGE: rules.edge}
    if d is not None:
        bound = _Bound(inst, nd)
        stats["pairs_cut"] = 0

    for nid, node in enumerate(nd.nodes):
        stats["nodes_expanded"] += 1
        out: dict = {}
        if node.kind == LEAF:
            pair = (inst.total_weight(node.bag), inst.total_value(node.bag))
            if pair[0] <= s:
                out = {rules.leaf(): {pair: sum(1 << v for v in node.bag)}}

        elif node.kind == INTRODUCE_VERTEX:
            u = node.vertex
            wu, au, bit = weight[u], value[u], 1 << u
            for state, cell in tables.pop(node.children[0]).items():
                # skip before take: the order of the states in a table
                # decides which of two equal pairs keeps its witness
                out[state] = cell
                shifted = {(w + wu, a + au): mask | bit
                           for (w, a), mask in cell.items() if w + wu <= s}
                if shifted:
                    take = (tuple(sorted(state[0] + (bit,))), *state[1:])
                    out[take] = shifted

        elif node.kind == JOIN:
            c1, c2 = node.children
            by_key: dict[int, list] = {}
            for state, cell in tables.pop(c2).items():
                by_key.setdefault(_key(state), []).append((state, cell))
            for state1, cell1 in tables.pop(c1).items():
                key = _key(state1)
                partners = by_key.get(key)
                if not partners:
                    continue
                w_off = sum(weight[v] for v in node.bag if key >> v & 1)
                a_off = sum(value[v] for v in node.bag if key >> v & 1)
                for state2, cell2 in partners:
                    for merged in rules.join(state1, state2):
                        dst = out.setdefault(merged, {})
                        for (w1, a1), m1 in cell1.items():
                            for (w2, a2), m2 in cell2.items():
                                w = w1 + w2 - w_off
                                if w > s:
                                    break  # cell2 ascends in weight
                                dst.setdefault((w, a1 + a2 - a_off), m1 | m2)
        else:  # forget u or introduce edge uv
            ends, rule = node.edge or (node.vertex,), rule_of[node.kind]
            need = sum(1 << v for v in ends)
            for state, cell in tables.pop(node.children[0]).items():
                for new_state in (rule(state, *ends)
                                  if _key(state) & need == need else (state,)):
                    dst = out.setdefault(new_state, {})
                    for p, mask in cell.items():
                        dst.setdefault(p, mask)

        if node.kind in (FORGET_VERTEX, INTRODUCE_EDGE, JOIN):
            # a join cell is empty when every pair in it overran the budget
            out = {st: cell if len(cell) == 1
                   else {p: cell[p] for p in prune_pairs(cell.keys())}
                   for st, cell in out.items() if cell}
        for p, mask in out.pop(DONE, {}).items():
            if d is None:
                finished.setdefault(p, mask)
            elif p[1] >= d:
                return {p: frozenset(_bits(mask))}
        # only these kinds shrink the undecided vertices
        if d is not None and node.kind in (LEAF, INTRODUCE_VERTEX, JOIN):
            keep = bound.test(bound.decided[nid])
            before = sum(len(c) for c in out.values())
            out = {st: kept for st, cell in out.items()
                   if (kept := {p: m for p, m in cell.items() if keep(*p)})}
            stats["pairs_cut"] += before - sum(len(c) for c in out.values())
        stats["states_touched"] += sum(len(c) for c in out.values())
        tables[nid] = out
    return {p: frozenset(_bits(finished[p])) for p in prune_pairs(finished)}


def _adjacency_masks(inst: Instance) -> list[int]:
    return [sum(1 << a for a in nbrs) for nbrs in inst.adjacency()]


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
    adj = [nbrs & ~pins for nbrs in _adjacency_masks(inst)]

    def fill(u: int) -> int:
        nbrs = adj[u]
        linked = sum((adj[a] & nbrs).bit_count() for a in _bits(nbrs))
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
        touched = nbrs = _eliminate(adj, v)
        for a in _bits(nbrs):
            touched |= adj[a]
        for u in _bits(touched):
            f = fill(u)
            if score[u] != f:
                score[u] = f
                heapq.heappush(heap, (f, u))
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

    def add(node: DecompNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def add_edges(nid: int, bag: frozenset[int], v: int) -> int:
        for w in sorted(bag):
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
    adj = _adjacency_masks(inst)
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
