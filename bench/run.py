"""graphsack benchmark: one closed-loop client, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: gadgets-decision, random-optimize, cli-subprocess (see
bench/README.md).  The run builds the workload's instances from
``--seed``, computes the expected answer of every operation, then runs
passes over the operations one at a time until ``--seconds`` have gone
by, checking each outcome outside its timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run makes one untraced and
one traced pass instead and reports the per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
VARIANTS = ("connected", "path", "shortest")
WORKLOADS = ("gadgets-decision", "random-optimize", "cli-subprocess")


def tail_percentile(ops_per_pass: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in
    one pass; a run makes at least one pass."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if ops_per_pass - math.ceil(p / 100 * ops_per_pass) >= 10:
            best = p
    return best


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workdir() -> Path:
    return Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))


def setup_probe(args) -> None:
    """Child process: import graphsack and build the workload once,
    print the elapsed seconds."""
    t0 = time.perf_counter()
    import workloads
    workdir = make_workdir()
    try:
        workloads.build(args.workload, args.seed, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(elapsed))


def measure_setup(args) -> float:
    """Median set-up time over fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latency: list[tuple[str, float]] = []

    def record(self, op, seconds: float, error) -> None:
        self.attempted += 1
        self.latency.append((op.variant, seconds))
        if error is not None:
            self.failed += 1
            if self.failed <= 10:
                print(f"FAIL {op.family}: {error}", file=sys.stderr)


def run_op(op, runner=None):
    """Time one operation and check its outcome outside the timed
    region; returns (seconds, outcome, error or None)."""
    t0 = time.perf_counter()
    try:
        outcome = (runner or op.run)()
    except Exception as exc:  # any exception fails the operation
        return (time.perf_counter() - t0, None,
                f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        return seconds, outcome, op.check(outcome)
    except Exception as exc:
        return seconds, outcome, f"check raised {type(exc).__name__}: {exc}"


def one_pass(ops, tally: Tally, runner=None) -> float:
    """Run every op once; returns the summed operation time."""
    busy = 0.0
    for op in ops:
        seconds, _, error = run_op(op, runner(op) if runner else None)
        tally.record(op, seconds, error)
        busy += seconds
    return busy


def end_to_end(args, wl) -> tuple:
    tally = Tally()
    busy = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < args.seconds:
        busy += one_pass(wl.ops, tally)
        passes += 1
    all_lat = [s for _, s in tally.latency]
    tail_p = tail_percentile(len(wl.ops))
    beyond = len(all_lat) - math.ceil(tail_p / 100 * len(all_lat))
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "ops_per_s": ((tally.attempted - tally.failed) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(all_lat) * 1e3, "ms"),
        "latency_tail_ms": (percentile(all_lat, tail_p) * 1e3, "ms"),
    }
    for variant in VARIANTS:
        lat = [s for v, s in tally.latency if v == variant]
        metrics[f"{variant}_p50_ms"] = (statistics.median(lat) * 1e3, "ms")
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    print(f"# {wl.name} seed={args.seed}: {passes} passes of {len(wl.ops)} "
          f"operations, closed loop, one client")
    print(f"# latency_tail_ms is p{tail_p:g} of {len(all_lat)} operations "
          f"({beyond} beyond it)")
    print(f"# fail_ratio = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed}/{tally.attempted})")
    return tally, metrics


def _cli_in_process(op):
    """Runner that calls graphsack.cli.main on the op's argv in this
    process and returns a CompletedProcess-like result for its check."""
    from graphsack import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        return subprocess.CompletedProcess(op.argv, code,
                                           buf.getvalue().encode(), b"")
    return run


def traced(args, workloads, spans) -> tuple:
    setup_tracer = spans.Tracer()
    tracer = spans.Tracer()
    workdir = make_workdir()
    try:
        with spans.Patches(setup_tracer):
            wl = workloads.build(args.workload, args.seed, workdir)
        wl.expect()
        tally = Tally()
        if args.workload == "cli-subprocess":
            child_wall = 0.0
            stdout_bytes = 0
            for op in wl.ops:
                seconds, proc, error = run_op(op)
                tally.record(op, seconds, error)
                child_wall += seconds
                stdout_bytes += len(proc.stdout) if proc is not None else 0
            untraced_s = one_pass(wl.ops, tally, _cli_in_process)
            with spans.Patches(tracer):
                traced_s = one_pass(wl.ops, tally, _cli_in_process)
            extra = {"cli.main_s": (untraced_s, "s"),
                     "cli.startup_s": (child_wall - untraced_s, "s"),
                     "cli.stdout_bytes": (stdout_bytes, "B")}
        else:
            untraced_s = one_pass(wl.ops, tally)
            with spans.Patches(tracer):
                traced_s = one_pass(wl.ops, tally)
            extra = {"cli.main_s": (0.0, "s"), "cli.startup_s": (0.0, "s"),
                     "cli.stdout_bytes": (0, "B")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"spans-{args.workload}-seed{args.seed}"
    setup_tracer.write(f"{stem}-setup.csv.gz")
    tracer.write(f"{stem}-pass.csv.gz")
    metrics = layer_metrics(tracer, setup_tracer)
    metrics.update(extra)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    print(f"# {wl.name} seed={args.seed}: traced pass {traced_s:.3f} s, "
          f"untraced pass {untraced_s:.3f} s; "
          f"{len(tracer.start)} spans written to {stem}-pass.csv.gz")
    return tally, metrics


def _span_rows(tracer):
    totals = tracer.totals()
    return lambda name: totals.get(name, {"calls": 0, "total": 0.0,
                                          "self": 0.0})


def layer_metrics(tracer, setup_tracer) -> dict:
    """Per-layer metrics: set-up spans give generators.s and
    reductions.s, the traced pass gives the rest."""
    row = _span_rows(tracer)
    setup_row = _span_rows(setup_tracer)
    c = tracer.counters

    offered = c.get("model.pairs_offered", 0)
    return {
        "decomposition.order_calls": (row("decomposition.order")["calls"],
                                      "count"),
        "decomposition.order_s": (row("decomposition.order")["total"], "s"),
        "decomposition.build_calls": (row("decomposition.build")["calls"],
                                      "count"),
        "decomposition.build_s": (row("decomposition.build")["total"], "s"),
        "decomposition.width_max": (tracer.width_max, "count"),
        "decomposition.nodes": (c.get("decomposition.nodes", 0), "count"),
        "connected.calls": (row("connected.solve")["calls"], "count"),
        "connected.self_s": (row("connected.solve")["self"], "s"),
        "connected.states_touched": (
            c.get("connected.solve.states_touched", 0), "count"),
        "connected.nodes_expanded": (
            c.get("connected.solve.nodes_expanded", 0), "count"),
        "paths.treewidth_self_s": (row("paths.treewidth")["self"], "s"),
        "paths.treewidth_states_touched": (
            c.get("paths.treewidth.states_touched", 0), "count"),
        "paths.color_self_s": (row("paths.color")["self"], "s"),
        "paths.trials_run": (c.get("paths.color.trials_run", 0), "count"),
        "paths.tree_self_s": (row("paths.tree")["self"], "s"),
        "shortest.self_s": (row("shortest.solve")["self"], "s"),
        "shortest.states_touched": (
            c.get("shortest.solve.states_touched", 0), "count"),
        "shortest.settled": (c.get("shortest.solve.nodes_expanded", 0),
                             "count"),
        "approx.calls": (row("approx.fptas")["calls"], "count"),
        "approx.self_s": (row("approx.fptas")["self"], "s"),
        "model.prune_calls": (row("model.prune")["calls"], "count"),
        "model.prune_s": (row("model.prune")["total"], "s"),
        "model.prune_keep_ratio": (
            c.get("model.pairs_kept", 0) / offered if offered else 0.0,
            "ratio"),
        "model.verify_calls": (row("model.verify")["calls"], "count"),
        "model.verify_s": (row("model.verify")["total"], "s"),
        "model.json_s": (row("model.json")["total"], "s"),
        "generators.s": (setup_row("generators")["total"], "s"),
        "reductions.s": (setup_row("reductions")["total"], "s"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphsack" / "__init__.py").is_file():
        print(f"error: {SRC / 'graphsack'} not found; run from a graphsack "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args)
        return 0

    setup_s = measure_setup(args) if args.trace == 0 else None
    import spans
    import workloads
    if args.trace:
        tally, metrics = traced(args, workloads, spans)
    else:
        workdir = make_workdir()
        try:
            wl = workloads.build(args.workload, args.seed, workdir)
            wl.expect()
            tally, metrics = end_to_end(args, wl)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        metrics["setup_s"] = (setup_s, "s")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
