"""Benchmark for the aprop engine.

Run from the root of a checkout:

    python3 bench/run.py --workload bundled-sweeps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Each workload runs in its own single-threaded process.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` wraps the
aprop modules and reports the per-layer metrics instead.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Exit
code 0 means every output matched its reference, 1 means some did not, and
2 means the benchmark could not run (for example, no ``src/aprop`` here).
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 7  # before the first round; one more follows every round
MIN_ROUNDS = 3  # so that every per-quadruple latency is a median of three
# The machine speed at which engine times are reported: the CPU time of
# workloads.calibrate() at that speed (about its median on the machine in
# bench/README.md).
NOMINAL_CALIBRATE_S = 0.003

MODULES = ("algebras", "clone", "proportion_rw", "proportion_sim", "similarity",
           "terms", "verdicts", "verify", "cli")


class Modules:
    """The freshly imported aprop modules, by short name."""

    def __init__(self):
        for name in MODULES:
            setattr(self, name, sys.modules[f"aprop.{name}"])


def aprop_modules() -> list:
    return [module for name, module in sorted(sys.modules.items())
            if name == "aprop" or name.startswith("aprop.")]


def fresh_import() -> Modules:
    for module in aprop_modules():
        del sys.modules[module.__name__]
    importlib.import_module("aprop")
    for name in MODULES:
        importlib.import_module(f"aprop.{name}")
    return Modules()


def setup(workloads_mod, name: str, seed: int, tiny: bool):
    """Import aprop afresh and generate the inputs: (workload, seconds)."""
    # Frees the previous round and import first, so that neither peak RSS nor
    # this set-up's collections depend on what ran before it.
    gc.collect()
    start = workloads_mod.clock()
    workload = workloads_mod.WORKLOADS[name](fresh_import(), seed, tiny)
    seconds = workloads_mod.clock() - start
    return workload, seconds


def run_rounds(workload, workloads_mod, seconds: float, resetup):
    """Repeat rounds until another one would end past ``seconds``.

    A timed set-up follows every round, so set-up samples are spread over
    the run like the others; the workload keeps the modules it started with.
    """
    rec = workloads_mod.Recorder()
    setup_times = []
    rounds, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(rec))
        setup_times.append(resetup())
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + statistics.median(walls) > seconds:
            return rec, rounds, setup_times, elapsed


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def shape_line(workload, first) -> str:
    shape = dict(first.shape, contexts=len(list(workload.contexts_spec())))
    if hasattr(workload, "rules"):
        shape["rules"] = workload.rules
        shape["rule_instances"] = first.rule_checks
    return " ".join(f"{k}={v}" for k, v in sorted(shape.items()))


def engine_times(rounds) -> dict:
    """build_s, query_s.p50/p90 and sweep_s of the rounds, in CPU seconds."""
    # Every round runs the same queries in the same order: one latency per
    # quadruple, its median over the rounds.
    latencies = [statistics.median(q) for q in zip(*(r.query_s for r in rounds))]
    return {
        "build_s": statistics.median(b for r in rounds for b in r.build_s),
        "query_s.p50": percentile(latencies, 0.5),
        "query_s.p90": percentile(latencies, 0.9),
        "sweep_s": statistics.median(r.sweep_s for r in rounds),
    }


def end_to_end(workload, workloads_mod, setup_times, seconds, resetup):
    rec, rounds, more_setups, elapsed = run_rounds(workload, workloads_mod, seconds, resetup)
    setup_times = setup_times + more_setups
    for r in rounds[1:]:
        if r.shape != rounds[0].shape:
            rec.fail("shape", f"round shape {r.shape} != first round {rounds[0].shape}")
    # Every time at the nominal machine speed (see bench/README.md).
    calibrate_s = statistics.median(c for r in rounds for c in r.calibrate_s)
    scale = NOMINAL_CALIBRATE_S / calibrate_s
    engine = engine_times(rounds)
    metrics = {
        "setup_s": (statistics.median(setup_times) * scale, "s"),
        **{name: (value * scale, "s") for name, value in engine.items()},
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    sweep_s = metrics["sweep_s"][0]
    print(f"# rounds {len(rounds)} in {elapsed:.2f} s, {len(rounds[0].query_s)} quadruples"
          f" queried in each")
    print(f"# shape {shape_line(workload, rounds[0])}")
    print(f"# calibrate {calibrate_s:.6g} s (median of {sum(len(r.calibrate_s) for r in rounds)}),"
          f" nominal {NOMINAL_CALIBRATE_S} s: times below are CPU times x {scale:.4f}")
    unscaled = {"setup_s": statistics.median(setup_times), **engine}
    print("# unscaled CPU times: " + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items()))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    if rounds[0].rule_checks:
        print(f"metric rule_checks_per_s {rounds[0].rule_checks / sweep_s:.6g} 1/s")
    print(f"metric failed_share {rec.failed / max(rec.attempted, 1):.6g} ratio"
          f" ({rec.failed}/{rec.attempted})")
    return rec, metrics


def load_spec():
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else None


def traced(workload, workloads_mod, tracing_mod, args, spec):
    """Alternate untraced and traced rounds; per-layer metrics from the traced."""
    modules = aprop_modules()
    rec = workloads_mod.Recorder()
    untraced, traced_walls, layers, first = [], [], [], None
    start = time.perf_counter()
    while not traced_walls or (
        time.perf_counter() - start
        + statistics.median(untraced) + statistics.median(traced_walls) <= args.seconds
    ):
        t0 = time.perf_counter()
        workload.run_round(rec)
        untraced.append(time.perf_counter() - t0)
        tracer = tracing_mod.Tracer()
        rec.tracer = tracer
        tracer.install(modules)
        try:
            t0 = time.perf_counter()
            workload.run_round(rec)
            traced_walls.append(time.perf_counter() - t0)
        finally:
            tracer.uninstall()
            rec.tracer = None
        layers.append(tracer.layer_metrics())
        if first is None:
            first = tracer
            path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(path, {"workload": args.workload, "seed": args.seed})
            print(f"# spans written to {path.relative_to(ROOT)}")
        elif tracer.count_signature() != first.count_signature():
            rec.fail("trace", "per-layer counts differ between two traced rounds of one input")
    overhead = statistics.median(traced_walls) - statistics.median(untraced)
    metrics = {}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        value = statistics.median(values) if units[name] == "s" else values[0]
        metrics[name] = (value, units[name])
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (first.span_count, "count")
    print(f"# traced rounds {len(traced_walls)}: traced {statistics.median(traced_walls):.3f} s,"
          f" untraced {statistics.median(untraced):.3f} s")
    wall = traced_walls[0]
    print(f"# self time by wrapped function (first traced round, {wall:.3f} s):")
    for name, s in first.self_s.most_common():
        print(f"#   {name:45s} {s:9.4f} s {100 * s / wall:5.1f}%  calls={first.calls[name]}")
    print(f"#   {'(outside aprop)':45s} {wall - sum(first.self_s.values()):9.4f} s")
    for name, (value, unit) in metrics.items():
        print(f"layer {name} {value:.6g} {unit}")
    return rec, metrics


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import tracing
    import workloads

    def resetup():
        return setup(workloads, args.workload, args.seed, args.size == "tiny")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload, seconds = resetup()
        setup_times.append(seconds)
    origin = Path(sys.modules["aprop"].__file__).resolve()
    if SRC not in origin.parents:
        print(f"error: imported aprop from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}")
    if args.trace:
        rec, metrics = traced(workload, workloads, tracing, args, spec)
    else:
        rec, metrics = end_to_end(workload, workloads, setup_times, args.seconds,
                                  lambda: resetup()[1])
    for failure in rec.failures:
        print(f"# FAILED {failure}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if rec.failed == 0 else 1


def run_all(args, spec) -> int:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own smoke tests")
    args = parser.parse_args(argv)
    spec = load_spec()
    for missing in (ROOT / "BENCHMARK.json", SRC / "aprop" / "__init__.py"):
        if not missing.is_file():
            print(f"error: no {missing.relative_to(ROOT)} to benchmark", file=sys.stderr)
            return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)} or all")
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
