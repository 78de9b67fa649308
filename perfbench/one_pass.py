"""One pass of one workload, in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass, so no module cache of the program
(the corpus cache, the spec-parsing cache) survives from one timed pass to
the next. Usage:

    python3 perfbench/one_pass.py '{"workload": "compute", "seed": 0,
                                    "traced": false, "spans": null}'

The program is imported from `src/` of the checkout that holds this
directory, never from an installed copy.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, load_expected  # noqa: E402


# Host speed drifts by up to 2x on a shared machine, in phases of seconds.
# A short fixed loop is timed before the set-up and after every item, and
# each measured time is scaled by CALIB_REF_MS / (median of the two loop
# times before and the two after it; the median drops a loop that was
# itself interrupted): times are reported in seconds at a reference host
# speed. CALIB_REF_MS is near the loop's median time on the 2-core host the
# benchmark was defined on, so scaled and raw times read alike there; raw
# times are reported beside the scaled ones.
CALIB_ITERS = 20_000
CALIB_REF_MS = 5.0


def calibrate():
    """A fixed stdlib-only loop (ms); it drifts with the host, not the program."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(CALIB_ITERS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 1023] = acc
    return (time.perf_counter() - t0) * 1e3


def import_program():
    sys.path.insert(0, str(SRC))
    import multires

    home = Path(multires.__file__).resolve().parent
    if home != SRC / "multires":
        raise SystemExit(f"multires imported from {home}, not from {SRC}")
    return multires


def main():
    cfg = json.loads(sys.argv[1])
    cls, expected_name, options = WORKLOADS[cfg["workload"]]
    expected = None
    if expected_name is not None:
        expected = load_expected(expected_name)
        if expected is None:
            raise SystemExit(f"no recorded answers for {cfg['workload']}")

    calib_before = calibrate()
    t0 = time.perf_counter()
    mr = import_program()
    tracer = None
    if cfg["traced"]:
        tracer = Tracer()
        tracer.install()
    workload = cls(mr, cfg["seed"], expected, **options)
    setup_s = time.perf_counter() - t0

    calib = [calib_before, calibrate()]
    outputs = []
    latencies = []
    for item_id, call in workload.items:
        if tracer is not None:
            tracer.item = item_id
        t = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        latencies.append(time.perf_counter() - t)
        outputs.append(out)
        calib.append(calibrate())
    # calib[k] was timed just before, calib[k + 1] just after the k-th
    # timed region (the set-up first, then each item)
    scales = [
        CALIB_REF_MS / statistics.median(calib[max(0, k - 1) : k + 3])
        for k in range(len(calib) - 1)
    ]
    setup_scale = scales.pop(0)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # pool workers run side by side; each is counted at the largest one's peak
    peak_kb = own + children * options.get("shards", 1)

    if tracer is not None:
        tracer.active = False
    failures = []
    for (item_id, _), out in zip(workload.items, outputs):
        if isinstance(out, Exception):
            failures.append(f"{item_id}: raised {type(out).__name__}: {out}")
            continue
        try:
            problem = workload.check(item_id, out)
        except Exception as exc:  # a malformed output is a wrong output
            problem = f"{item_id}: check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    problems = workload.pass_problems()

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics(list(load_expected("verify")))
        if cfg["workload"] == "verify" and layers["generators.graphs_built"] == 0:
            problems.append("no graph was generated: the corpus came from a cache")
        if cfg.get("spans"):
            tracer.write(cfg["spans"])

    print(
        json.dumps(
            {
                "setup_s": setup_s * setup_scale,
                "wall_s": sum(x * k for x, k in zip(latencies, scales)),
                "latencies_ms": [x * k * 1e3 for x, k in zip(latencies, scales)],
                "raw_setup_s": setup_s,
                "raw_wall_s": sum(latencies),
                "calib_ms": sorted(calib)[len(calib) // 2],
                "peak_rss_mb": peak_kb / 1024,
                "attempted": len(outputs),
                "failures": failures,
                "problems": problems,
                "notes": list(workload.notes),
                "layers": layers,
                "untraced_targets": tracer.missing if tracer else [],
            }
        )
    )


if __name__ == "__main__":
    main()
