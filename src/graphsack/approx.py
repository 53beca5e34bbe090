"""Value-scaling FPTAS wrapper around any of the exact solvers.

Values are rescaled to alpha'(u) = floor(n * alpha(u) / (eps * alpha_max)),
the exact solver runs on the scaled instance, which keeps every vertex
id, and its witness is re-valued in the original instance.  The classic
rounding argument gives alpha(witness) >= (1 - eps) * OPT if
alpha_max <= OPT, as for Connected; for Path and Shortest-Path a light
vertex on no x-y path can set alpha_max above OPT (ROADMAP item 3).
"""
from __future__ import annotations

import re
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional

from . import connected, errors, paths, shortest
from .model import Instance, SolveReport, Variant, build_report

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


def scale_values(inst: Instance, epsilon) -> tuple[Instance, int]:
    """Apply the floor(n*alpha/(eps*alpha_max)) value scaling and return
    ``(scaled instance, alpha_max)``.

    n and alpha_max count only the vertices with w <= s; a heavier
    vertex is in no feasible solution and is scaled to 0, as is every
    vertex when alpha_max is 0.  On Connected and Path a heavier vertex
    also loses its edges, so no exact solver builds states around it;
    Shortest-Path keeps every edge, as a cut one could raise dist(x, y).
    Every vertex keeps its id.  The scaled instance has no target d:
    the FPTAS always optimizes.
    """
    eps = parse_epsilon(epsilon)
    light = [w <= inst.s for w in inst.weight]
    alpha_max = max((a for a, ok in zip(inst.value, light) if ok), default=0)
    # floor(n * a / (eps * alpha_max)) in integers, eps = num / den; if
    # alpha_max is 0, so is every light value
    top = sum(light) * eps.denominator
    bottom = eps.numerator * alpha_max or 1
    scaled_values = tuple(a * top // bottom if ok else 0
                          for a, ok in zip(inst.value, light))
    edges = inst.edges
    if inst.variant is not Variant.SHORTEST_PATH:
        edges = tuple((u, v) for u, v in edges if light[u] and light[v])
    return replace(inst, edges=edges, value=scaled_values, d=None), alpha_max


def fptas_optimize(inst: Instance, epsilon,
                   exact_solver: Optional[Callable] = None) -> SolveReport:
    """(1 - eps)-optimal if alpha_max <= OPT; witness feasible in ``inst``.

    ``exact_solver`` defaults to the variant's treewidth DP or, for
    Shortest-Path, the label solver; it runs on ``scale_values``'
    instance, so its witness is already in ``inst``'s ids.  A terminal
    heavier than s is reported infeasible without a solve.  The report
    holds the one pair of that witness re-valued in ORIGINAL units; the
    scaled run's outcome is recorded under stats["scaled_value"].
    """
    eps = parse_epsilon(epsilon)
    if inst.variant in (Variant.PATH, Variant.SHORTEST_PATH):
        if inst.weight[inst.x] > inst.s or inst.weight[inst.y] > inst.s:
            return build_report(inst, {}, {})

    scaled, alpha_max = scale_values(inst, eps)
    solver = exact_solver or {
        Variant.CONNECTED: connected.solve_connected,
        Variant.PATH: paths.solve_path_treewidth,
        Variant.SHORTEST_PATH: shortest.solve_shortest_path}[inst.variant]
    report = solver(scaled)
    stats = {**report.stats, "epsilon": str(eps), "alpha_max": alpha_max,
             "scaled_value": report.best_value}
    witness, found = report.witness, {}
    if witness is not None and (w := inst.total_weight(witness)) <= inst.s:
        found[w, inst.total_value(witness)] = sum(1 << v for v in witness)
    return build_report(inst, found, stats)
