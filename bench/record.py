"""Record the reference frontiers of the random-optimize bank families.

    python3 bench/record.py

Solves every bank instance with the current exact solver and writes
bench/reference.json: per family, per generator seed, the instance's
SHA-256 (of its JSON form) and its frontier.  The benchmark checks each
bank operation against this file, so re-record only on purpose, from a
commit whose solvers are trusted.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    banks = [f for f in workloads.RANDOM_FAMILIES
             if f.bank and workloads.bank_name(f) == f.name]
    for index, fam in enumerate(banks):
        entries = {}
        for gen_seed in range(7_000_000 + 1000 * index,
                              7_000_000 + 1000 * index + fam.bank):
            inst = workloads.family_instance(fam, gen_seed)
            report = workloads.exact_solver(fam.variant)(inst)
            entries[str(gen_seed)] = {
                "sha256": workloads.instance_digest(inst),
                "frontier": [list(p) for p in report.frontier.pairs]}
            print(f"{fam.name} seed {gen_seed}: "
                  f"{len(report.frontier)} pairs", flush=True)
        reference[fam.name] = entries
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
