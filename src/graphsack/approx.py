"""Value-scaling FPTAS wrapper around any of the exact solvers.

Values are rescaled to alpha'(u) = floor(n * alpha(u) / (eps * alpha_max)),
the exact solver runs on the scaled instance, and the returned witness
is re-valued in the original instance.  The classic rounding argument
gives alpha(witness) >= (1 - eps) * OPT if alpha_max <= OPT, as for
Connected; for Path and Shortest-Path a light vertex on no x-y path can
set alpha_max above OPT and break it (ROADMAP item 3).
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional

from . import connected, errors, paths, shortest
from .model import (Instance, SolveReport, Variant, build_report,
                    require_variant, validate_instance)


@dataclass(frozen=True)
class ScaledInstance:
    scaled: Instance
    alpha_max: int


_MAX_DIGITS = 1000


def parse_epsilon(value) -> Fraction:
    """Accept a Fraction, an int, or a 'NUM/DEN' / decimal string.

    A numerator or denominator over 1000 digits is refused, so scaled
    values print far under Python's 4300-digit bound; so is a decimal
    exponent over 1000, unparsed: Fraction('1e-10000000') takes seconds."""
    try:
        exp = isinstance(value, str) and re.search(r"e([-+]?[\d_]+)\s*$",
                                                   value, re.IGNORECASE)
        if exp and abs(int(exp[1])) > _MAX_DIGITS:
            raise ValueError(f"epsilon exponent beyond {_MAX_DIGITS}")
        eps = Fraction(value)
        if max(abs(eps.numerator), eps.denominator) >= 10 ** _MAX_DIGITS:
            raise ValueError(f"epsilon terms beyond {_MAX_DIGITS} digits")
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise errors.BadEpsilon(str(exc)) from exc
    if not 0 < eps <= 1:
        raise errors.BadEpsilon(f"epsilon {eps} outside (0, 1]")
    return eps


def scale_values(inst: Instance, epsilon) -> ScaledInstance:
    """Apply the floor(n*alpha/(eps*alpha_max)) value scaling.

    n and alpha_max count only the vertices with w <= s; a heavier
    vertex is in no feasible solution and is scaled to 0, as is every
    vertex when alpha_max is 0.  The scaled instance has no target d:
    the FPTAS always optimizes.
    """
    eps = parse_epsilon(epsilon)
    light = [w <= inst.s for w in inst.weight]
    alpha_max = max((a for a, ok in zip(inst.value, light) if ok), default=0)
    factor = Fraction(sum(light)) / (eps * alpha_max) if alpha_max else 0
    scaled_values = tuple(int(a * factor) if ok else 0
                          for a, ok in zip(inst.value, light))
    scaled = replace(inst, value=scaled_values, d=None)
    return ScaledInstance(scaled, alpha_max)


def prune_overweight(inst: Instance) -> tuple[Instance, Optional[tuple[int, ...]]]:
    """Drop every vertex with w(u) > s; returns (instance, old-id map).

    Safe for connected and path instances: such a vertex cannot appear
    in any feasible solution.  Shortest-Path instances are refused:
    removing a vertex can raise dist(x, y) and so change which paths
    qualify at all.  Returns ``(inst, None)`` when nothing is dropped.
    For path variants an overweight terminal means no feasible solution
    exists; the caller must check terminals first.
    """
    require_variant(inst, Variant.CONNECTED, Variant.PATH)
    keep = [v for v in range(inst.n) if inst.weight[v] <= inst.s]
    if len(keep) == inst.n:
        return inst, None
    remap = {v: i for i, v in enumerate(keep)}
    pruned = replace(
        inst, n=len(keep),
        edges=tuple((remap[u], remap[v]) for u, v in inst.edges
                    if u in remap and v in remap),
        weight=tuple(inst.weight[v] for v in keep),
        value=tuple(inst.value[v] for v in keep),
        x=remap.get(inst.x), y=remap.get(inst.y))
    return validate_instance(pruned), tuple(keep)


def fptas_optimize(inst: Instance, epsilon,
                   exact_solver: Optional[Callable] = None) -> SolveReport:
    """(1 - eps)-optimal if alpha_max <= OPT; witness feasible in ``inst``.

    ``exact_solver`` defaults to the variant's treewidth DP or, for
    Shortest-Path, the label solver.  The report's frontier and values
    are in ORIGINAL units; the scaled run's outcome is recorded under
    stats["scaled_value"].
    """
    eps = parse_epsilon(epsilon)
    if inst.variant in (Variant.PATH, Variant.SHORTEST_PATH):
        if inst.weight[inst.x] > inst.s or inst.weight[inst.y] > inst.s:
            return build_report(inst, (), None, {})
    if inst.variant is Variant.SHORTEST_PATH:
        work, keep_map = inst, None  # pruning would change dist(x, y)
    else:
        work, keep_map = prune_overweight(inst)

    scaling = scale_values(work, eps)
    solver = exact_solver or {
        Variant.CONNECTED: connected.solve_connected,
        Variant.PATH: paths.solve_path_treewidth,
        Variant.SHORTEST_PATH: shortest.solve_shortest_path}[inst.variant]
    report = solver(scaling.scaled)

    stats = dict(report.stats)
    stats["epsilon"] = str(eps)
    stats["alpha_max"] = scaling.alpha_max
    stats["scaled_value"] = report.best_value
    if report.witness is None:
        return build_report(inst, (), None, stats)

    witness = report.witness
    if keep_map is not None:
        witness = frozenset(keep_map[v] for v in witness)
    w = inst.total_weight(witness)
    a = inst.total_value(witness)
    return build_report(inst, [(w, a)] if w <= inst.s else [],
                        lambda _: witness, stats)
