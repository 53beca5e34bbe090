"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that the correctness gate counts a corrupted frontier, a witness
that does not verify and an unexpected nonzero CLI exit as failures,
and that two traced runs report identical deterministic counters.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from graphsack import connected, model, shortest  # noqa: E402

SEED = 5


def fail_ratio(ops) -> float:
    tally = run.Tally()
    run.one_pass(ops, tally)
    return tally.failed / tally.attempted


def corrupt_frontier(solve):
    def wrapper(inst, *args, **kwargs):
        report = solve(inst, *args, **kwargs)
        pairs = report.frontier.pairs
        if pairs:
            w, a = pairs[-1]
            report.frontier = model.ParetoSet(pairs[:-1] + ((w, a + 1),))
        return report
    return wrapper


def bad_witness(solve):
    def wrapper(inst, *args, **kwargs):
        report = solve(inst, *args, **kwargs)
        if report.feasible and inst.n > 1:
            # two non-adjacent vertices are never connected
            u, v = next((u, v) for u in range(inst.n)
                        for v in range(u + 1, inst.n)
                        if (u, v) not in inst.edges)
            report.witness = frozenset((u, v))
        return report
    return wrapper


def check(name: str, ok: bool, detail: str) -> bool:
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
    return ok


def counters(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=BENCH.parent)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in doc["metrics"].items()
            if v["unit"] in ("count", "ratio", "B")}


def main() -> int:
    results = []
    wl = workloads.build("random-optimize", SEED, None)
    wl.expect()
    base = fail_ratio(wl.ops)
    results.append(check("clean random-optimize pass", base == 0,
                         f"fail_ratio {base:.3f}"))
    with mock.patch.object(shortest, "solve_shortest_path", corrupt_frontier(
            shortest.solve_shortest_path)):
        ratio = fail_ratio(wl.ops)
    results.append(check("corrupted frontier is a failure", ratio > 0,
                         f"fail_ratio {ratio:.3f}"))
    with mock.patch.object(connected, "solve_connected", bad_witness(
            connected.solve_connected)):
        ratio = fail_ratio(wl.ops)
    results.append(check("witness that does not verify is a failure",
                         ratio > 0, f"fail_ratio {ratio:.3f}"))

    workdir = run.make_workdir()
    try:
        wl = workloads.build("cli-subprocess", SEED, workdir)
        wl.expect()
        solve_ops = [op for op in wl.ops if op.family == "solve-conn"]
        broken = [replace(workloads.cli_op(
            op.family, op.variant,
            ["solve", "--input", str(workdir / "missing.json")], op.expect),
            check=op.check) for op in solve_ops]
        ratio = fail_ratio(solve_ops)
        results.append(check("clean CLI solves", ratio == 0,
                             f"fail_ratio {ratio:.3f}"))
        ratio = fail_ratio(broken)
        results.append(check("unexpected nonzero CLI exit is a failure",
                             ratio == 1, f"fail_ratio {ratio:.3f}"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for workload in run.WORKLOADS:
        first, second = counters(workload), counters(workload)
        diff = {k for k in first if first[k] != second.get(k)}
        results.append(check(f"{workload} traced counters repeat",
                             not diff and bool(first),
                             f"{len(first)} counters, differing: "
                             f"{sorted(diff) or 'none'}"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
