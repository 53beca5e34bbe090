"""Seeded random instance generators (trees, G(n,p), grids).

Used by the CLI's ``generate --random`` command and by the test
suite's property harnesses.  All randomness flows through one
``random.Random(seed)`` so a fixed seed is byte-reproducible.
"""
from __future__ import annotations

import math
import random

from .model import Instance, Variant, validate_instance


def tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniform-ish random tree: attach each vertex to a random
    earlier one."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if rng.random() < p]


def grid_edges(n: int) -> list[tuple[int, int]]:
    """Edges of a near-square grid truncated to exactly n vertices,
    numbered row-major."""
    if n == 0:
        return []
    cols = max(1, math.isqrt(n))
    edges = []
    for v in range(n):
        r, c = divmod(v, cols)
        if c + 1 < cols and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    return edges


def random_instance(variant: Variant, kind: str, n: int, seed: int,
                    max_weight: int = 8, max_value: int = 8,
                    p: float = 0.4, max_cost: int = 5,
                    decision: bool = False) -> Instance:
    """One seeded random instance of the given graph family.

    ``kind`` is tree | gnp | grid.  The budget s is drawn around half
    the total weight; in decision mode d is drawn up to the total
    value, so yes and no instances both occur.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not 0 <= p <= 1:  # NaN included
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    if kind == "tree":
        edges = tree_edges(n, rng)
    elif kind == "gnp":
        edges = gnp_edges(n, p, rng)
    elif kind == "grid":
        edges = grid_edges(n)
    else:
        raise ValueError(f"unknown graph kind {kind!r}")

    weight = tuple(rng.randint(0, max_weight) for _ in range(n))
    value = tuple(rng.randint(0, max_value) for _ in range(n))
    s = rng.randint(0, max(1, sum(weight)))
    d = rng.randint(0, max(1, sum(value))) if decision else None

    x = y = None
    edge_cost = None
    if variant in (Variant.PATH, Variant.SHORTEST_PATH):
        x = rng.randrange(n)
        y = rng.randrange(n)
        if n > 1:
            while y == x:
                y = rng.randrange(n)
    if variant is Variant.SHORTEST_PATH:
        edge_cost = tuple(rng.randint(1, max_cost) for _ in edges)

    return validate_instance(Instance(
        variant=variant, n=n, edges=tuple(edges), weight=weight,
        value=value, s=s, d=d, x=x, y=y, edge_cost=edge_cost))
