"""One workload process: set up, run jobs in a closed loop, report JSON.

Started by run.py with `src` on the path.  One client, no worker
threads: the next job starts only when the previous one has finished.
Each job is timed alone; its output check runs after the clock stops.
A job fails when it raises, when its output cannot be checked, or when
a check finds a violated property; only the last kind counts as wrong.
The last stdout line is one JSON object for run.py to read.

  python3 bench/worker.py WORKLOAD --seed N --seconds S --min-jobs J
                          [--trace] [--small] [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

from spans import NullTracer, Tracer, clock
from workloads import WORKLOADS

IMPORT_SAMPLES = 3


def run_jobs(wl, st, tracer, stats, seconds: float, min_jobs: int,
             count: int | None = None) -> dict:
    """Run jobs 0, 1, ... until `count` are done, or until at least
    `min_jobs` are done and their summed time reaches `seconds`.

    A wall-time guard of 2 * `seconds` + 30 s stops a run whose jobs
    have become too slow to reach `min_jobs` in time.
    """
    lat: list[float] = []
    causes: Counter = Counter()
    wrong = 0
    digest = hashlib.sha256()
    wall_start = clock()
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif sum(lat) >= seconds and i >= min_jobs:
            break
        elif i and clock() - wall_start > 2 * seconds + 30:
            break
        tracer.job_id = i
        err = None
        t0 = clock()
        try:
            with tracer.span("job"):
                out = wl.job(st, i, tracer)
        except Exception as e:  # a failing job is counted, never re-drawn
            out, err = None, f"{type(e).__name__}: {e}"
        lat.append(clock() - t0)
        problems: list[str] = []
        if err is None:
            try:
                problems = wl.check(st, i, out, stats)
            except Exception as e:  # e.g. an output the library cannot read back
                err = f"check raised {type(e).__name__}: {e}"
        if err is not None or problems:
            causes[err or problems[0]] += 1
        wrong += bool(problems)
        if i < wl.digest_jobs:
            digest.update(f"{i}:".encode())
            digest.update(wl.digest(st, i, out) if err is None else b"error")
        i += 1
    return {"latencies": lat, "attempted": i, "failed": sum(causes.values()),
            "wrong": wrong, "causes": dict(causes),
            "digest": digest.hexdigest()[:16]}


def import_seconds() -> float:
    """Median wall time of a fresh `python -c "import lorentzmet"`."""
    times = []
    for _ in range(IMPORT_SAMPLES):
        t0 = clock()
        subprocess.run([sys.executable, "-c", "import lorentzmet"], check=True)
        times.append(clock() - t0)
    return statistics.median(times)


def layer_metrics(tracer: Tracer, stats: dict) -> dict:
    def ratio(num: str, den: str) -> float:
        return stats[num] / stats[den] if stats[den] else 0.0

    return {
        "spans": tracer.aggregate(),
        "gh.exact_completed_frac": ratio("gh.exact_completed", "gh.exact_calls"),
        "gh.lower_over_exact": ratio("gh.lower_over_exact_sum",
                                     "gh.lower_over_exact_n"),
        "curvature.triangles_per_request": ratio("curvature.found",
                                                 "curvature.requested"),
        "curvature.vacuous_frac": ratio("curvature.vacuous", "curvature.checks"),
        "causet.validate.triples": stats["causet.validate.triples"],
        "distinction.gamma.ops": stats["distinction.gamma.ops"],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-jobs", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    st = wl.setup(args.seed, args.small)
    result = {"t_ready": time.monotonic()}
    try:
        if not args.setup_only:
            result.update(run_jobs(wl, st, NullTracer(), defaultdict(float),
                                   args.seconds, args.min_jobs))
            result["peak_rss_mb"] = \
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if args.trace:
                # the traced pass repeats the same jobs, so the difference
                # in wall time is the tracing overhead
                tracer, stats = Tracer(), defaultdict(float)
                traced = run_jobs(wl, st, tracer, stats, args.seconds,
                                  args.min_jobs, count=result["attempted"])
                result["traced"] = {k: traced[k] for k in
                                    ("latencies", "failed", "wrong", "digest")}
                result["layers"] = layer_metrics(tracer, stats)
                result["layers"]["cli.import_s"] = import_seconds()
    finally:
        wl.teardown(st)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
