"""The four benchmark workloads: inputs, jobs, output checks and digests.

A job is one task a user would run.  `job` makes every library call of
the task inside a span named `<module>.<function>`; `check` then tests
the outputs, outside the timed region, against properties that a faster
but wrong change would break.  `digest` returns the outputs of a job
that are mathematically unique (validate verdicts, gamma and J
matrices, exact GH values), so two commits run on one seed hash alike.

Job sizes follow a seeded Kronecker sequence over a tuple of sizes:
every prefix of the job stream covers the sizes evenly, so runs of
different lengths and seeds see the same mix.  Points are drawn afresh
for every job.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np

from lorentzmet import (Causet, Correspondence, DiamondSpace, SampleSpec,
                        causal_relation, check_curvature_bound, distortion,
                        extract_net, gamma, gh_exact, gh_lower_bounds,
                        gh_upper_greedy, induced, limit_causet, longest_chain,
                        net_to_causet, rationalize, reverse_triangle_slack,
                        sample_causet, time_function, validate)

SPACE = DiamondSpace()
FLOAT_TOL = 1e-9
# Kronecker steps: the golden ratio for one size, the R2 pair for two
GOLDEN = 0.6180339887498949
R2 = (0.7548776662466927, 0.5698402909980532)
CURVATURE_STATUSES = {"ok", "violation", "vacuous"}


def spread(u0: float, i: int, step: float, sizes: tuple[int, ...]) -> int:
    """Size of job i: a seeded low-discrepancy draw from `sizes`."""
    return sizes[int(((u0 + i * step) % 1.0) * len(sizes))]


def job_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def job_seed(seed: int, i: int) -> int:
    return int(job_rng(seed, i).integers(2**31))


def gap_gamma(d: np.ndarray, x: int, y: int) -> float:
    """Distinction distance of one pair by direct sup, the oracle for gamma."""
    return float(max(np.abs(d[x] - d[y]).max(), np.abs(d[:, x] - d[:, y]).max()))


def check_gamma(d: np.ndarray, g: np.ndarray, rng: np.random.Generator,
                bad: list[str], prefix: str) -> None:
    n = d.shape[0]
    if g.shape != (n, n) or not np.array_equal(g, g.T) or np.diag(g).any():
        bad.append(f"{prefix}: gamma not symmetric with a zero diagonal")
        return
    for x, y in rng.integers(0, n, size=(8, 2)):
        if g[x, y] != gap_gamma(d, int(x), int(y)):
            bad.append(f"{prefix}: gamma({x}, {y}) differs from the direct sup")
            return


def planted_violation_found(d: np.ndarray) -> bool | None:
    """Validate a small copy with one reverse-triangle defect planted.

    Returns None when the copy holds no chronological triple to break.
    """
    m = np.array(d[:24, :24], dtype=float)
    for i, j in np.argwhere(m > 0):
        ks = np.flatnonzero(m[j] > 0)
        if len(ks):
            k = int(ks[0])
            m[i, k] = 0.5 * (m[i, j] + m[j, k])
            return "reverse-triangle" in validate(m).kinds()
    return None


def limit_inputs(d: np.ndarray, max_tol: float, length: int) -> tuple[float, int]:
    """tol and first m for limit_causet over d * (1 + 1/m), m = m0, m0 + 1, ...

    tol is at most half the smallest gamma between two points of d, so the
    quotient inside limit_causet has nothing to merge: merging is where its
    known 'distinguishing' defect lies, which the baseline mode reproduces.
    m0 >= 20 is the first start at which the whole sequence is Cauchy
    within tol.
    """
    n = d.shape[0]
    rowgap = np.abs(d[:, None, :] - d[None, :, :]).max(axis=2, initial=0.0)
    colgap = np.abs(d.T[:, None, :] - d.T[None, :, :]).max(axis=2, initial=0.0)
    gaps = np.maximum(rowgap, colgap)[np.triu_indices(n, 1)]
    tol = min(max_tol, 0.5 * gaps.min()) if len(gaps) else max_tol
    m0 = 20
    while d.max(initial=0.0) * (1 / m0 - 1 / (m0 + length - 1)) > tol:
        m0 += 1
    return tol, m0


def curvature_stats(stats: dict, requested: int, records: list[dict]) -> None:
    statuses = [ch["status"] for r in records for ch in r["checks"]]
    stats["curvature.requested"] += requested
    stats["curvature.found"] += len(records)
    stats["curvature.checks"] += len(statuses)
    stats["curvature.vacuous"] += statuses.count("vacuous")


class Workload:
    """Inputs from a seed, one job per call, checks and digest per job."""

    name: str
    digest_jobs: int

    def teardown(self, st: dict) -> None:
        pass


class DiamondPipeline(Workload):
    """One job analyses one fresh uniform diamond sample, float path only."""

    name = "diamond-pipeline"
    digest_jobs = 4
    EPS = 0.2
    MAX_TRIANGLES = 100
    MIN_SIDES = (0.2, 0.2, 0.05)

    def setup(self, seed: int, small: bool) -> dict:
        return {"seed": seed, "u0": np.random.default_rng(seed).random(),
                "sizes": tuple(range(30, 61) if small else range(200, 401))}

    def job(self, st: dict, i: int, t) -> dict:
        n = spread(st["u0"], i, GOLDEN, st["sizes"])
        spec = SampleSpec(count=n, seed=job_seed(st["seed"], i))
        with t.span("diamond.sample_causet"):
            c = sample_causet(SPACE, spec)
        with t.span("causet.validate"):
            rep = validate(c)
        with t.span("distinction.gamma"):
            g = gamma(c)
        with t.span("causal.causal_relation"):
            j = causal_relation(c)
        with t.span("causal.time_function"):
            tf = time_function(c)
        with t.span("nets.extract_net"):
            net = extract_net(c, self.EPS, g=g)
        with t.span("nets.net_to_causet"):
            nc = net_to_causet(net)
        x, y = (int(v) for v in np.unravel_index(np.argmax(c.d), c.d.shape))
        with t.span("causal.longest_chain"):
            chain = longest_chain(c, x, y)
        with t.span("curvature.check_curvature_bound"):
            curv = check_curvature_bound(c, max_triangles=self.MAX_TRIANGLES,
                                         min_sides=self.MIN_SIDES)
        return {"c": c, "rep": rep, "g": g.g, "j": j.matrix, "tau": tf.values,
                "members": net.members, "nc": nc, "pair": (x, y),
                "chain": chain.points, "curv": curv}

    def check(self, st: dict, i: int, o: dict, stats: dict) -> list[str]:
        c, d, g, jm = o["c"], o["c"].d, o["g"], o["j"]
        n = c.n
        bad: list[str] = []
        stats["causet.validate.triples"] += n**3
        stats["distinction.gamma.ops"] += 2 * n**3
        if not o["rep"].valid:
            bad.append("validate: a diamond sample reported invalid")
        if planted_violation_found(d) is False:
            bad.append("validate: missed a planted reverse-triangle defect")
        check_gamma(d, g, job_rng(st["seed"], i), bad, "gamma")
        if not (jm.diagonal().all() and jm[d > 0].all()
                and (jm & jm.T).sum() == n):
            bad.append("causal_relation: J is not a partial order containing I")
        strict = jm & ~np.eye(n, dtype=bool)
        tau = o["tau"]
        if strict.any() and not (tau[None, :] - tau[:, None])[strict].min() > 0:
            bad.append("time_function: not strictly increasing along J")
        members = list(o["members"])
        if g[:, members].min(axis=1).max() > self.EPS:
            bad.append("extract_net: a point is farther than eps from the net")
        nc = o["nc"]
        if not set(nc.labels) <= {c.labels[m] for m in members}:
            bad.append("net_to_causet: labels outside the net")
        x, y = o["pair"]
        pts = o["chain"]
        steps = [d[p, q] for p, q in zip(pts, pts[1:])]
        if pts[0] != x or pts[-1] != y or min(steps) <= 0:
            bad.append("longest_chain: not a chronological chain from x to y")
        elif abs(sum(steps) - d[x, y]) > FLOAT_TOL:
            # d(x, y) bounds every chain and the single link attains it
            bad.append("longest_chain: length differs from d(x, y)")
        records = o["curv"].to_json()["records"]
        if len(records) > self.MAX_TRIANGLES:
            bad.append("check_curvature_bound: more triangles than requested")
        for r in records:
            a, b, cc = r["sides"]
            if a < self.MIN_SIDES[0] or b < self.MIN_SIDES[1] \
                    or cc - a - b <= self.MIN_SIDES[2]:
                bad.append("check_curvature_bound: triangle outside min_sides")
                break
            if not {ch["status"] for ch in r["checks"]} <= CURVATURE_STATUSES:
                bad.append("check_curvature_bound: unknown check status")
                break
        curvature_stats(stats, self.MAX_TRIANGLES, records)
        return bad

    def digest(self, st: dict, i: int, o: dict) -> bytes:
        return b"".join((bytes([o["rep"].valid]), o["g"].tobytes(),
                         np.packbits(o["j"]).tobytes()))


class GHSearch(Workload):
    """One job answers one GH question between two induced subspaces.

    Three jobs in four are `gh_exact` on 4-6 point pairs, the fourth is
    `gh_upper_greedy` on 8-10 point pairs.  Each block of four jobs takes
    its subspaces from the next of HOSTS seeded diamond hosts, so the cost
    of a run depends less on the geometry of one host.  Exact search is
    exponential, and without a budget one pair in a few dozen runs for
    minutes, so `gh_exact` gets a node budget; `gh.exact_completed_frac`
    reports how many searches finish inside it.
    """

    name = "gh-search"
    digest_jobs = 16
    NODE_BUDGET = 1000
    GREEDY_RESTARTS = 4
    HOSTS = 8

    def setup(self, seed: int, small: bool) -> dict:
        hosts = [sample_causet(SPACE, SampleSpec(count=40 if small else 200,
                                                 seed=seed * self.HOSTS + h))
                 for h in range(self.HOSTS)]
        return {"seed": seed, "hosts": hosts,
                "u0": np.random.default_rng(seed).random(2),
                "exact_sizes": (3, 4) if small else (4, 5, 6),
                "greedy_sizes": (5, 6) if small else (8, 9, 10)}

    def job(self, st: dict, i: int, t) -> dict:
        exact = i % 4 != 3
        sizes = st["exact_sizes"] if exact else st["greedy_sizes"]
        m = spread(st["u0"][0], i, R2[0], sizes)
        n = spread(st["u0"][1], i, R2[1], sizes)
        host = st["hosts"][(i // 4) % self.HOSTS]
        rng = job_rng(st["seed"], i)
        ia = rng.choice(host.n, m, replace=False)
        ib = rng.choice(host.n, n, replace=False)
        with t.span("causet.induced"):
            a = induced(host, ia)
        with t.span("causet.induced"):
            b = induced(host, ib)
        if exact:
            with t.span("gh.gh_exact"):
                r = gh_exact(a, b, node_budget=self.NODE_BUDGET)
        else:
            with t.span("gh.gh_upper_greedy"):
                r = gh_upper_greedy(a, b, restarts=self.GREEDY_RESTARTS)
        with t.span("gh.gh_lower_bounds"):
            lb = gh_lower_bounds(a, b)
        return {"a": a, "b": b, "r": r, "lb": lb, "exact": exact}

    def check(self, st: dict, i: int, o: dict, stats: dict) -> list[str]:
        r, lb = o["r"], o["lb"]
        bad: list[str] = []
        if not (lb <= r.upper + FLOAT_TOL and r.lower <= r.upper):
            bad.append("gh: a lower bound exceeds the upper bound")
        if distortion(r.witness, o["a"], o["b"]) != r.upper:
            bad.append("gh: distortion(witness) differs from the reported upper")
        if not o["exact"]:
            if r.method != "greedy":
                bad.append(f"gh_upper_greedy: method '{r.method}'")
            return bad
        stats["gh.exact_calls"] += 1
        if r.method == "exact":
            stats["gh.exact_completed"] += 1
            if not r.exact == r.lower == r.upper:
                bad.append("gh_exact: exact, lower and upper disagree")
            if r.exact > 0:
                stats["gh.lower_over_exact_sum"] += lb / r.exact
                stats["gh.lower_over_exact_n"] += 1
        elif r.method != "branch-bound":
            bad.append(f"gh_exact: method '{r.method}'")
        return bad

    def digest(self, st: dict, i: int, o: dict) -> bytes:
        r = o["r"]
        return repr(r.exact).encode() if r.method == "exact" else b"-"


class ExactRational(Workload):
    """One job rationalizes a small sample and works on the Fraction matrix."""

    name = "exact-rational"
    digest_jobs = 8
    EPS = 1e-3
    # how close the limit must come to the sample, the check's bound
    LIMIT_ACCURACY = 0.05
    LIMIT_LEN = 8

    def setup(self, seed: int, small: bool) -> dict:
        return {"seed": seed, "u0": np.random.default_rng(seed).random(),
                "sizes": tuple(range(5, 11) if small else range(10, 41))}

    def job(self, st: dict, i: int, t) -> dict:
        n = spread(st["u0"], i, GOLDEN, st["sizes"])
        spec = SampleSpec(count=n, seed=job_seed(st["seed"], i))
        with t.span("diamond.sample_causet"):
            c = sample_causet(SPACE, spec)
        with t.span("nets.rationalize"):
            r = rationalize(c, self.EPS)
        with t.span("causet.validate"):
            rep = validate(r)
        with t.span("causal.time_function"):
            tf = time_function(r)
        with t.span("causet.reverse_triangle_slack"):
            slack = reverse_triangle_slack(r)
        with t.span("causet.to_json"):
            obj = r.to_json()
        with t.span("causet.from_json"):
            back = Causet.from_json(obj)
        tol, m0 = limit_inputs(c.d, self.LIMIT_ACCURACY, self.LIMIT_LEN)
        seq = [Causet(c.labels, c.d * (1 + 1 / m))
               for m in range(m0, m0 + self.LIMIT_LEN)]
        with t.span("nets.limit_causet"):
            lim = limit_causet(seq, tol=tol)
        return {"c": c, "r": r, "rep": rep, "tau": tf.values, "slack": slack,
                "back": back, "lim": lim}

    def check(self, st: dict, i: int, o: dict, stats: dict) -> list[str]:
        c, r = o["c"], o["r"]
        bad: list[str] = []
        stats["causet.validate.triples"] += r.n**3
        if not o["rep"].valid:
            bad.append("validate: rationalized causet reported invalid")
        if not (r.is_rational and all(isinstance(v, Fraction) for v in r.d.flat)):
            bad.append("rationalize: output is not rational")
            return bad
        exact_c = np.array([[Fraction(float(v)) for v in row] for row in c.d],
                           dtype=object).reshape(c.n, c.n)
        if c.n and np.abs(r.d - exact_c).max() > Fraction(self.EPS):
            bad.append("rationalize: an entry moved by more than eps")
        if not o["slack"] > 0:
            bad.append("rationalize: reverse-triangle slack is not strict")
        tau = o["tau"]
        ref = time_function(Causet(r.labels, r.as_float())).values
        if not all(isinstance(v, Fraction) for v in tau) or \
                np.abs(np.array(tau, dtype=float) - ref).max(initial=0) > FLOAT_TOL:
            bad.append("time_function: Fraction values differ from the float path")
        back = o["back"]
        if back.labels != r.labels or back.boundary != r.boundary \
                or not back.is_rational or not (back.d == r.d).all():
            bad.append("to_json/from_json: round trip is not exact")
        lim = o["lim"]
        if lim.labels != c.labels:
            bad.append("limit_causet: merged points set apart by more than 2 tol")
        elif np.abs(lim.d - c.d).max(initial=0) > self.LIMIT_ACCURACY:
            bad.append("limit_causet: limit is farther than 0.05 from the sample")
        return bad

    def digest(self, st: dict, i: int, o: dict) -> bytes:
        return bytes([o["r"].n, o["rep"].valid, o["slack"] > 0])


class CliPipeline(Workload):
    """One job is one `python -m lorentzmet.cli` subcommand run as a subprocess.

    The subprocess inherits the worker's environment: src on the path,
    BLAS threads capped and no LORENTZ_GH_THREADS.

    Jobs cycle through the pipeline sample -> validate -> gamma -> net ->
    curvature, then two small samples -> gh.  The gh step asks for the
    greedy bound: `gh --exact` has no node budget on the command line and
    one pair of 6-point samples in a few dozen runs for minutes.  The two
    small samples adjoin the spacelike boundary point (`--boundary`), so
    they are never empty: an all-spacelike draw, one in 720 at n = 6,
    would otherwise write an empty causet that cannot be read back.
    """

    name = "cli-pipeline"
    digest_jobs = 8
    STAGES = ("sample", "validate", "gamma", "net", "curvature",
              "sample", "sample", "gh")
    EPS = 0.2
    MAX_TRIANGLES = 50
    JOB_CAP_S = 60

    def setup(self, seed: int, small: bool) -> dict:
        work = os.path.join("bench", f".work-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        return {"seed": seed, "work": work,
                "host_n": 20 if small else 100, "gh_n": 4 if small else 6}

    def _args(self, st: dict, i: int) -> list[str]:
        stage, q = i % len(self.STAGES), i // len(self.STAGES)
        seeds = [str(s) for s in job_rng(st["seed"], q).integers(2**31, size=3)]
        host, a, b = (os.path.join(st["work"], f)
                      for f in ("c.json", "a.json", "b.json"))
        return [
            ["sample", "diamond", "--n", str(st["host_n"]), "--seed", seeds[0],
             "--out", host],
            ["validate", host],
            ["gamma", host],
            ["net", host, "--eps", str(self.EPS)],
            ["curvature", host, "--max-triangles", str(self.MAX_TRIANGLES)],
            ["sample", "diamond", "--n", str(st["gh_n"]), "--seed", seeds[1],
             "--boundary", "--out", a],
            ["sample", "diamond", "--n", str(st["gh_n"]), "--seed", seeds[2],
             "--boundary", "--out", b],
            ["gh", a, b],
        ][stage]

    def job(self, st: dict, i: int, t) -> dict:
        args = self._args(st, i)
        with t.span(f"cli.{args[0]}"):
            proc = subprocess.run([sys.executable, "-m", "lorentzmet.cli", *args],
                                  capture_output=True, text=True,
                                  timeout=self.JOB_CAP_S)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RuntimeError(f"cli {args[0]} exit {proc.returncode}: {tail[0]}")
        return {"args": args, "stdout": proc.stdout}

    def check(self, st: dict, i: int, o: dict, stats: dict) -> list[str]:
        stage, q = i % len(self.STAGES), i // len(self.STAGES)
        if stage == 0:
            st["cycle"] = {"q": q}
        cyc = st.get("cycle", {})
        if cyc.get("q") != q:
            return ["cli: the sample of this cycle is missing"]
        args = o["args"]
        if args[0] == "sample":
            with open(args[-1]) as fh:
                c = Causet.from_json(json.load(fh))
            cyc[{0: "c", 5: "a", 6: "b"}[stage]] = c
            if c.n > int(args[3]) + ("--boundary" in args):
                return ["cli sample: more points than requested"]
            return []
        out = json.loads(o["stdout"])
        need = "ab" if args[0] == "gh" else "c"
        if not all(k in cyc for k in need):
            return [f"cli {args[0]}: input from an earlier stage is missing"]
        c = cyc.get("c")
        if args[0] == "validate":
            stats["causet.validate.triples"] += c.n**3
            cyc["valid"] = out.get("valid")
            if out != {"valid": True}:
                return ["cli validate: sample reported invalid"]
            return []
        if args[0] == "gamma":
            stats["distinction.gamma.ops"] += 2 * c.n**3
            g = np.array(out["d"], dtype=float).reshape(c.n, c.n)
            cyc["g"] = g
            bad: list[str] = []
            check_gamma(c.d, g, job_rng(st["seed"], i), bad, "cli gamma")
            return bad
        if args[0] == "net":
            g = cyc.get("g")
            members = out["members"]
            if out["host_n"] != c.n or g is None or \
                    g[:, members].min(axis=1).max() > self.EPS:
                return ["cli net: a point is farther than eps from the net"]
            return []
        if args[0] == "curvature":
            records = out["records"]
            curvature_stats(stats, self.MAX_TRIANGLES, records)
            if len(records) > self.MAX_TRIANGLES:
                return ["cli curvature: more triangles than requested"]
            return []
        a, b = cyc["a"], cyc["b"]
        witness = Correspondence(a.n, b.n, tuple(map(tuple, out["witness_pairs"])))
        bad = []
        if not out["lower"] <= out["upper"]:
            bad.append("cli gh: lower bound exceeds upper bound")
        if distortion(witness, a, b) != out["upper"]:
            bad.append("cli gh: distortion(witness) differs from the reported upper")
        return bad

    def digest(self, st: dict, i: int, o: dict) -> bytes:
        cyc = st.get("cycle", {})
        stage = i % len(self.STAGES)
        if stage == 1:
            return repr(cyc.get("valid")).encode()
        if stage == 2 and "g" in cyc:
            return cyc["g"].tobytes()
        return b"-"

    def teardown(self, st: dict) -> None:
        shutil.rmtree(st["work"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (DiamondPipeline(), GHSearch(),
                                 ExactRational(), CliPipeline())}
