"""Benchmark of lorentzmet: four seeded closed-loop workloads.

Run from the root of a lorentzmet checkout:

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S   # every workload
  python3 bench/run.py --smoke                               # self-test
  python3 bench/run.py --baseline [--out FILE]               # ROADMAP table

A workload runs in its own process (bench/worker.py), one client and
one job at a time.  With --trace 0 the report holds the end-to-end
metrics; with --trace 1 the per-layer metrics from spans recorded around
the benchmark's calls into each module, and the tracing overhead.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib.metadata import version

WORKLOADS = ("diamond-pipeline", "gh-search", "exact-rational", "cli-pipeline")
SETUP_SAMPLES = 5
MIN_JOBS = 20
SMOKE_JOBS = 8
SPAWN_CAP_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "jobs_per_s": "jobs/s", "job_p50_s": "s",
    "job_tail_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio",
}
LAYER_FUNCS = (
    "diamond.sample_causet",
    "causet.validate", "causet.reverse_triangle_slack", "causet.to_json",
    "causet.from_json", "causet.induced",
    "distinction.gamma",
    "causal.causal_relation", "causal.time_function", "causal.longest_chain",
    "nets.extract_net", "nets.net_to_causet", "nets.rationalize",
    "nets.limit_causet",
    "curvature.check_curvature_bound",
    "gh.gh_exact", "gh.gh_upper_greedy", "gh.gh_lower_bounds",
)
CLI_SUBCOMMANDS = ("sample", "validate", "gamma", "net", "curvature", "gh")
LAYER_RATIOS = {
    "gh.exact_completed_frac": "ratio", "gh.lower_over_exact": "ratio",
    "curvature.triangles_per_request": "ratio", "curvature.vacuous_frac": "ratio",
    "cli.import_s": "s",
    "causet.validate.triples": "count_computed",
    "distinction.gamma.ops": "count_computed",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Environment of the workload processes: src on the path, BLAS and
    OpenMP capped at nproc, and no LORENTZ_GH_THREADS."""
    env = {k: v for k, v in os.environ.items() if k != "LORENTZ_GH_THREADS"}
    env["PYTHONPATH"] = os.path.abspath("src")
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": nproc(),
            "thread_cap": {var: nproc() for var in THREAD_VARS},
            "commit": git_commit()}


def run_capped(cmd: list[str], env: dict, cap: float) -> str | None:
    """Run a command in its own process group and return its stdout.

    Returns None when it hits the cap; the whole group, any CLI
    subprocess included, is then killed and reaped.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} exited {proc.returncode}")
    return out


def last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def spawn(args: list[str], env: dict) -> tuple[float, dict]:
    """Run one worker process; return its start time and its JSON result."""
    t_spawn = time.monotonic()
    out = run_capped([sys.executable, os.path.join("bench", "worker.py"), *args],
                     env, SPAWN_CAP_S)
    if out is None:
        raise RuntimeError(f"worker {args[0]} exceeded {SPAWN_CAP_S} s")
    return t_spawn, last_json(out)


def baseline(out_path: str | None) -> int:
    """Time each ROADMAP Baseline case once, in its own process, under its cap."""
    from baseline import BASELINE_SEED, CASES
    env_info = environment()
    print(f"== baseline  seed={BASELINE_SEED}  {json.dumps(env_info)}")
    rows = []
    for name, (cap, _) in CASES.items():
        out = run_capped([sys.executable, os.path.join("bench", "baseline.py"),
                          name], worker_env(), cap)
        if out is None:
            row = {"case": name, "status": "exceeded cap", "seconds": None,
                   "peak_rss_mb": None, "counters": {}}
        else:
            row = last_json(out)
        row["cap_s"] = cap
        rows.append(row)
        secs = "-" if row["seconds"] is None else f"{row['seconds']:.4f} s"
        print(f"{name:<50} {secs:>12}  cap {cap:>3} s  {row['status']}  "
              f"{json.dumps(row['counters'])}", flush=True)
    result = {"seed": BASELINE_SEED, "environment": env_info, "cases": rows}
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(result, fh, indent=2)
    print(json.dumps(result))
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, min_jobs: int = MIN_JOBS,
                 setups: int = SETUP_SAMPLES) -> dict:
    """Set up `setups` times (the last one runs the jobs); collect results."""
    env = worker_env()
    base = [name, "--seed", str(seed), "--seconds", str(seconds),
            "--min-jobs", str(min_jobs)] + (["--small"] if small else [])
    setup_times = []
    for _ in range(setups - 1):
        t_spawn, res = spawn(base + ["--setup-only"], env)
        setup_times.append(res["t_ready"] - t_spawn)
    t_spawn, res = spawn(base + (["--trace"] if trace else []), env)
    setup_times.append(res["t_ready"] - t_spawn)
    res["setup_times"] = setup_times
    return res


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten jobs beyond it, and its value.

    With ten jobs or fewer no percentile qualifies; the maximum is given
    as the 100th percentile.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def end_to_end(res: dict) -> dict:
    lat = res["latencies"]
    return {
        "setup_s": statistics.median(res["setup_times"]),
        "jobs_per_s": len(lat) / sum(lat),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail(lat)[1],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": 1.0 - res["failed"] / res["attempted"],
    }


def per_layer(res: dict) -> tuple[dict, dict]:
    """Per-layer metric values and units from a traced run."""
    layers = res["layers"]
    spans = layers["spans"]
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    values, units = {}, {}
    for fn in LAYER_FUNCS + ("job",):
        agg = spans.get(fn, zero)
        for key, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s")):
            values[f"{fn}.{key}"], units[f"{fn}.{key}"] = agg[key], unit
    for sub in CLI_SUBCOMMANDS:
        agg = spans.get(f"cli.{sub}", zero)
        values[f"cli.{sub}.calls"], units[f"cli.{sub}.calls"] = agg["calls"], "count"
        values[f"cli.{sub}.wall_s"], units[f"cli.{sub}.wall_s"] = agg["busy_s"], "s"
    for key, unit in LAYER_RATIOS.items():
        values[key], units[key] = layers[key], unit
    values["trace.overhead_s"] = \
        sum(res["traced"]["latencies"]) - sum(res["latencies"])
    units["trace.overhead_s"] = "s"
    return values, units


def report(name: str, seed: int, res: dict, trace: bool) -> dict:
    """Print the human-readable report; return the result object."""
    n = res["attempted"]
    print(f"== {name}  seed={seed}  {json.dumps(environment())}")
    wrong = res["wrong"]
    if trace:
        values, units = per_layer(res)
        wrong += res["traced"]["wrong"]
        spans = res["layers"]["spans"]
        layer_self = sum(a["self_s"] for k, a in spans.items() if k != "job")
        job = spans.get("job", {"busy_s": 0.0, "self_s": 0.0})
        print(f"   traced {n} jobs: layer self time {layer_self:.4f} s + "
              f"benchmark glue {job['self_s']:.4f} s = job wall "
              f"{job['busy_s']:.4f} s (checks excluded)")
    else:
        values, units = end_to_end(res), END_TO_END
        pct, _ = tail(res["latencies"])
        fails = res["failed"]
        print(f"   jobs {n}  failed {fails}  fail_frac {fails / n:.4f} ratio  "
              f"job_tail_s = p{pct:.1f} ({n} jobs, {10 if n > 10 else 0} beyond)")
    for key, val in values.items():
        print(f"   {key:<40} {val:>14.6g} {units[key]}")
    for cause, count in res["causes"].items():
        print(f"   failure x{count}: {cause}")
    print(f"   setup samples (s): "
          + " ".join(f"{t:.4f}" for t in res["setup_times"]))
    digest_ok = not trace or res["traced"]["digest"] == res["digest"]
    differs = "" if digest_ok else f"  TRACED PASS DIFFERS: {res['traced']['digest']}"
    print(f"   digest {res['digest']}{differs}")
    return {"correct": wrong == 0 and digest_ok, "attempted": n,
            "failed": res["failed"],
            "metrics": {k: {"value": val, "unit": units[k]}
                        for k, val in values.items()}}


def smoke() -> int:
    """Every workload at tiny sizes with all checks on, traced and not."""
    declared = None
    if os.path.exists("BENCHMARK.json"):
        with open("BENCHMARK.json") as fh:
            spec = json.load(fh)
        declared = ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                    {m["name"]: m["unit"] for m in spec["per_layer"]})
    ok = True
    for name in WORKLOADS:
        res = run_workload(name, seed=1, seconds=0, trace=True, small=True,
                           min_jobs=SMOKE_JOBS, setups=1)
        out = report(name, 1, res, trace=True)
        problems = []
        if not out["correct"] or out["failed"]:
            problems.append("failed or wrong jobs")
        if declared is not None:
            layer_units = {k: m["unit"] for k, m in out["metrics"].items()}
            if (END_TO_END, layer_units) != declared:
                problems.append("metrics differ from BENCHMARK.json")
        print(f"smoke {name}: {'; '.join(problems) or 'ok'}")
        ok = ok and not problems
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--baseline", action="store_true")
    ap.add_argument("--out", help="with --baseline: also write the JSON here")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "lorentzmet", "__init__.py")):
        print("error: src/lorentzmet not found; run from the root of a "
              "lorentzmet checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.baseline:
        return baseline(args.out)
    if args.workload is None:
        ap.error("--workload, --smoke or --baseline is required")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = report(name, args.seed, res, bool(args.trace))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
