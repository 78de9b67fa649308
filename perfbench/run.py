"""Benchmark for multires: end-to-end and per-layer metrics of its workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compute --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Workloads (see BENCHMARK.json for why each was chosen, PREDICTIONS.md for
what each layer metric should move):

  compute        dimension() for all six variants on six graphs with 9-20
                 vertices, in the generators' labelling; the seed changes
                 nothing (see workloads.Compute).
  verify         every theorem of the harness, corpus up to n = 5, the
                 way `multires verify` runs them; the seed changes nothing.
  certify-large  lower_bounds() and certify() for all six variants on
                 graphs with 100-400 vertices; the seed draws the random
                 graphs and every landmark set.
  compute-jobs2  compute with SolverOptions(parallel_shards=2).

Each pass runs in a fresh interpreter (one_pass.py), so no module cache of
the program carries over. Passes repeat until --seconds have gone by and the
pass count gives at least 100 timed items. Times are scaled to a reference
host speed by a calibration loop run between items (one_pass.py); raw
times are printed beside them. With --trace 0 the run reports the
end-to-end metrics as medians over its passes; with --trace 1 it
alternates traced and untraced passes and reports the per-layer metrics
(medians over the traced passes), the tracing overhead and the host
calibration. Every output is checked; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPANS_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

MIN_ITEMS = 100  # p90 then has at least ten samples beyond it
TAIL_PERCENTILE = 90
LAST_PASS_START_S = 120  # keeps a run well inside three minutes
PASS_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def run_pass(name, seed, traced):
    spans = None
    if traced:
        SPANS_DIR.mkdir(exist_ok=True)
        spans = str(SPANS_DIR / f"spans-{name}-seed{seed}.jsonl")
    cfg = {"workload": name, "seed": seed, "traced": traced, "spans": spans}
    # a session of its own, so a pass that hangs is killed with its pool workers
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "one_pass.py"), json.dumps(cfg)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{name}: a pass ran past {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: pass exited with {proc.returncode}\n{stderr[-3000:]}")
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchmarkError(f"{name}: pass printed no result\n{stderr[-3000:]}") from None


def run_workload(name, seed, seconds, trace):
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        done = elapsed >= seconds and (
            len(traced) >= 1 and len(plain) >= 1
            if trace
            else sum(r["attempted"] for r in plain) >= MIN_ITEMS
        )
        if done or (elapsed >= LAST_PASS_START_S and plain):
            break
        as_traced = trace and len(traced) <= len(plain)
        result = run_pass(name, seed, as_traced)
        (traced if as_traced else plain).append(result)
        kind = "traced" if as_traced else "untraced"
        print(
            f"  pass {len(plain) + len(traced)} ({kind}): setup {result['setup_s']:.4f} s"
            f" (raw {result['raw_setup_s']:.4f}), wall {result['wall_s']:.4f} s"
            f" (raw {result['raw_wall_s']:.4f}), calib {result['calib_ms']:.3f} ms,"
            f" items {result['attempted']}, failed {len(result['failures'])},"
            f" peak {result['peak_rss_mb']:.1f} MB"
        )
    return plain, traced


def end_to_end(plain, units):
    latencies = sorted(x for r in plain for x in r["latencies_ms"])
    tail = statistics.quantiles(latencies, n=100)[TAIL_PERCENTILE - 1]
    beyond = sum(1 for x in latencies if x > tail)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    how = {
        "setup_s": f"median of {len(plain)} passes; raw median"
        f" {statistics.median(r['raw_setup_s'] for r in plain):.6f} s",
        "wall_s": f"median of {len(plain)} passes; raw median"
        f" {statistics.median(r['raw_wall_s'] for r in plain):.6f} s",
        "latency_p50_ms": f"median of {len(latencies)} items",
        "latency_tail_ms": f"p{TAIL_PERCENTILE} of {len(latencies)} items, {beyond} beyond it",
        "peak_rss_mb": f"median of {len(plain)} per-pass peaks",
    }
    return {k: (v, units.get(k), how[k]) for k, v in values.items()}


def per_layer(plain, traced, units):
    out = {}
    for key in traced[0]["layers"]:
        value = statistics.median(r["layers"][key] for r in traced)
        out[key] = (value, units.get(key), f"median of {len(traced)} traced passes")
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    out["trace.overhead_s"] = (
        overhead,
        "s",
        f"traced minus untraced median wall_s ({len(traced)} vs {len(plain)} passes)",
    )
    calib = [r["calib_ms"] for r in plain + traced]
    out["host.calib_ms"] = (
        statistics.median(calib),
        "ms",
        f"median of {len(calib)} passes, range {min(calib):.2f}-{max(calib):.2f}",
    )
    return out


def report(name, seed, seconds, trace, spec):
    print(f"workload {name}, seed {seed}, {seconds} s, trace {trace}")
    plain, traced = run_workload(name, seed, seconds, trace)
    passes = plain + traced
    attempted = sum(r["attempted"] for r in passes)
    failures = [f for r in passes for f in r["failures"]]
    problems = [p for r in passes for p in r["problems"]]
    for line in sorted({f for f in failures + problems})[:20]:
        print(f"  FAILED: {line}")
    for line in sorted({n for r in passes for n in r["notes"]}):
        print(f"  {line}")
    for target in sorted({t for r in passes for t in r["untraced_targets"]}):
        print(f"  not traced, absent from the program: {target}")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = per_layer(plain, traced, units) if trace else end_to_end(plain, units)
    wanted = list(units)
    if sorted(metrics) != sorted(wanted):
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ set(wanted))} differ from BENCHMARK.json"
        )
    for key in wanted:
        value, unit, how = metrics[key]
        print(f"  {key:<42} {value:>14.6f} {unit:<6} ({how})")
    print(
        f"  {'fail_ratio':<42} {len(failures) / attempted:>14.6f} {'ratio':<6}"
        f" ({len(failures)} of {attempted} items)"
    )
    if not trace:
        c = [r["calib_ms"] for r in passes]
        print(
            f"  {'host calibration':<42} {statistics.median(c):>14.6f} {'ms':<6}"
            f" (median of {len(c)} passes, range {min(c):.2f}-{max(c):.2f})"
        )
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: report(n, args.seed, args.seconds, args.trace, spec) for n in names}
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
