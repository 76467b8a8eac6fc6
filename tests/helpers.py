"""Shared generators and independent oracles for the test suite.

Random causets come from transitively closing a weighted random DAG:
the max-plus closure makes every chained triple satisfy the reverse
triangle inequality with equality or better, and a validate-and-retry
loop removes the rare distinguishing collision.  Oracles here are
written in plain Python loops on purpose, so they share no code path
with the vectorized library internals they are checked against.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist, pdist

from lorentzmet import Causet, Violation, validate
from lorentzmet.causet import TWIN_BLOCK
from lorentzmet.curvature import (SideParams, SidePoint,
                                  comparison_triangle_m0, realizable)


def closure(d: np.ndarray) -> np.ndarray:
    """Max-plus transitive closure: d(i,j) >= d(i,k)+d(k,j) along chains."""
    n = len(d)
    for k in range(n):
        via = d[:, [k]] + d[[k], :]
        mask = (d[:, [k]] > 0) & (d[[k], :] > 0)
        d = np.where(mask, np.maximum(d, via), d)
    return d


def random_valid_matrix(rng, n, p_edge=0.45, values=None) -> Causet:
    """A random valid causet on n points; retries on axiom failure."""
    while True:
        d = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_edge:
                    d[i, j] = (rng.choice(values) if values is not None
                               else rng.uniform(0.2, 1.0))
        d = closure(d)
        c = Causet.from_matrix(d)
        if validate(c).valid:
            return c


def make_corpus(seed=42, count=200, n_lo=2, n_hi=13) -> list:
    rng = np.random.default_rng(seed)
    return [random_valid_matrix(rng, int(rng.integers(n_lo, n_hi)))
            for _ in range(count)]


# -- validation oracle ---------------------------------------------------

def oracle_violations(d: np.ndarray, tol=1e-9) -> set:
    """(kind, witness) pairs from naive per-entry float checks.

    NaN deliberately fails every comparison, so a NaN entry is a
    negative-entry violation, never equal to anything, and never zero.
    """
    n = len(d)
    found = set()
    for i in range(n):
        for j in range(n):
            v = d[i, j]
            if np.isnan(v) or v < 0:
                found.add(("negative-entry", (i, j)))
    for i in range(n):
        if d[i, i] > tol:
            found.add(("diagonal", (i,)))
    for i in range(n):
        for j in range(n):
            if not d[i, j] > 0:
                continue
            for k in range(n):
                if d[j, k] > 0 and d[i, k] < d[i, j] + d[j, k] - tol:
                    found.add(("reverse-triangle", (i, j, k)))
    for i in range(n):
        for j in range(i + 1, n):
            same = all(abs(d[i, z] - d[j, z]) <= tol for z in range(n)) and \
                   all(abs(d[z, i] - d[z, j]) <= tol for z in range(n))
            if same:
                found.add(("distinguishing", (i, j)))
    zeros = tuple(i for i in range(n)
                  if all(abs(d[i, z]) <= tol for z in range(n))
                  and all(abs(d[z, i]) <= tol for z in range(n)))
    if len(zeros) >= 2:
        found.add(("multiple-boundary", zeros))
    return found


# The full profile comparisons causal_relation, gamma and validate's
# distinguishing pass made before they were restricted to light cones,
# unordered pairs and filtered pairs: the reference for their bytes.

def wild_matrix(rng, n, density=0.5) -> np.ndarray:
    """A float matrix of ties (values from a small set), NaN, +-inf,
    negatives and 1e308 entries, with up to two planted twin points, whose
    rows and columns match and may carry the special values.  About a
    fraction `density` of the plain entries is nonzero."""
    d = rng.choice([0.0, 0.5, 1.0, 2.0], size=(n, n))
    d *= rng.random((n, n)) < density
    d += (rng.random((n, n)) < 0.4 * density) * rng.uniform(0, 2, (n, n))
    for val, p in ((np.nan, .03), (np.inf, .03), (-np.inf, .02),
                   (-0.5, .03), (1e308, .02)):
        d[rng.random((n, n)) < p * rng.random()] = val
    for _ in range(int(rng.integers(0, 3)) if n > 1 else 0):
        i, j = (int(v) for v in rng.choice(n, 2, replace=False))
        d[j] = d[i]
        d[:, j] = d[:, i]
    return d


def tame(d: np.ndarray) -> np.ndarray:
    """wild_matrix's d with NaN, +inf and -inf replaced by three of its
    finite specials, 1.0, 1e308 and -0.5: a matrix every Causet
    computation accepts."""
    return np.nan_to_num(d, nan=1.0, posinf=1e308, neginf=-0.5)


def first_non_finite(d: np.ndarray) -> str:
    """The index of d's first non-finite entry, as a regex for the
    ValueError that refuses it."""
    i, j = np.argwhere(~np.isfinite(d))[0]
    return rf"entry \({i}, {j}\)"


def oracle_causal_relation(d: np.ndarray, tol=0.0) -> np.ndarray:
    """J from two dense n x n comparisons per point, over every p."""
    n = len(d)
    j = np.empty((n, n), dtype=bool)
    for x in range(n):
        past_ok = (d >= d[:, [x]] - tol).all(axis=0)
        fut_ok = (d[[x], :] >= d - tol).all(axis=1)
        j[x] = past_ok & fut_ok
    return j


def oracle_chebyshev_gaps(d: np.ndarray):
    """Sup-norm gaps between rows and between columns over ordered pairs."""
    return cdist(d, d, "chebyshev"), cdist(d.T, d.T, "chebyshev")


def oracle_gamma(d: np.ndarray) -> np.ndarray:
    """gamma from the ordered-pair gaps, symmetrized by mirroring."""
    g = np.triu(np.maximum(*oracle_chebyshev_gaps(d)), 1)
    return g + g.T


def oracle_noldus(d: np.ndarray) -> np.ndarray:
    """Noldus strong metric D(x, y) = sup_z |d(z,x) + d(x,z) - d(z,y) - d(y,z)|,
    the sup-norm gap between rows of d + d^T."""
    s = d.T + d
    return cdist(s, s, "chebyshev")


def nan_gaps(d: np.ndarray) -> np.ndarray:
    """Pairwise sup-norm gaps between rows of d in which a NaN difference
    counts as +inf, one row at a time, so memory stays O(n^2)."""
    out = np.empty((len(d), len(d)))
    for i, row in enumerate(d):
        g = np.abs(row - d)
        out[i] = np.where(np.isnan(g), np.inf, g).max(axis=1)
    return out


def oracle_distinguishing(f: np.ndarray, tol) -> list:
    """validate's float distinguishing violations from the full gap
    matrices: NaN differences count as +inf when f holds a NaN, otherwise
    cdist skips them."""
    with np.errstate(invalid="ignore"):
        if np.isnan(f).any():
            rowgap, colgap = nan_gaps(f), nan_gaps(f.T)
        else:
            rowgap, colgap = oracle_chebyshev_gaps(f)
    indist = (rowgap <= tol) & (colgap <= tol)
    return [Violation("distinguishing", (int(i), int(j)),
                      float(max(rowgap[i, j], colgap[i, j])))
            for i, j in np.argwhere(np.triu(indist, 1))]


def oracle_twins(f: np.ndarray, tol: float):
    """causet._twins as a pdist filter on the first TWIN_BLOCK row and
    column coordinates (NaN differences skipped), then the full gap of
    each surviving pair, a NaN difference +inf when f holds a NaN."""
    n = len(f)
    both = np.hstack([f, f.T])
    low = pdist(np.hstack([f[:, :TWIN_BLOCK], f.T[:, :TWIN_BLOCK]]),
                "chebyshev")
    i, j = (v[low <= tol] for v in np.triu_indices(n, 1))
    nan = np.inf if np.isnan(f).any() else 0.0
    gap = np.empty(len(i))
    step = n // 4 + 1
    with np.errstate(invalid="ignore"):
        for s in range(0, len(i), step):
            g = np.abs(both[i[s:s + step]] - both[j[s:s + step]])
            g[np.isnan(g)] = nan
            gap[s:s + step] = g.max(axis=1, initial=0.0)
    near = gap <= tol
    return i[near], j[near], gap[near]


def oracle_quotient_map(c: Causet) -> list:
    """distance_quotient's class map at tol = 0 from a dict keyed on each
    point's row and column: Fraction tuples on an exact payload, bytes on
    a float one (so -0.0 and 0.0 differ, and equal NaN bytes match).
    Classes are numbered by their first point."""
    seen: dict = {}
    out = []
    for i in range(c.n):
        if c.is_rational:
            key = (tuple(c.d[i]), tuple(c.d[:, i]))
        else:
            key = (c.d[i].tobytes(), c.d[:, i].tobytes())
        out.append(seen.setdefault(key, len(seen)))
    return out


def corrupt(rng, d: np.ndarray) -> np.ndarray:
    """Inject one random defect; the result may violate several axioms."""
    d = d.copy()
    n = len(d)
    kind = int(rng.integers(0, 6))
    i, j = (int(v) for v in rng.integers(0, n, size=2))
    if kind == 0:
        d[i, j] = -rng.uniform(0.1, 1.0)
    elif kind == 1:
        d[i, j] = np.nan
    elif kind == 2:
        d[i, i] = rng.uniform(0.1, 1.0)
    elif kind == 3:
        trips = [(a, b, c) for a in range(n) for b in range(n)
                 for c in range(n) if d[a, b] > 0 and d[b, c] > 0]
        if trips:
            a, b, c = trips[int(rng.integers(0, len(trips)))]
            d[a, c] = max(0.0, d[a, b] + d[b, c] - rng.uniform(0.5, 1.0))
        else:
            d[i, i] = 1.0
    elif kind == 4 and i != j:
        d[j, :] = d[i, :]
        d[:, j] = d[:, i]
        d[i, j] = d[j, i] = 0.0
        d[j, j] = 0.0
    else:
        d[i, :] = 0.0
        d[:, i] = 0.0
        d[j, :] = 0.0
        d[:, j] = 0.0
    return d


# -- curvature triangle oracle -------------------------------------------

def oracle_triangles(host: Causet, min_sides=(0.0, 0.0, 0.0),
                     max_triangles=200, seed=0, stats=None) -> list:
    """Vertices of the triangles check_curvature_bound should pick.

    The triple loop for small hosts and the one-draw-per-iteration
    rejection sampler for large ones, written with per-triple scalar
    tests.  The sampler puts its draw count in `stats["attempts"]`.
    """
    d = host.as_float()
    n = host.n
    a_min, b_min, gap_min = min_sides

    def qualifies(x, y, z):
        a, b, c = d[x, y], d[y, z], d[x, z]
        if a <= 0 or b <= 0 or a < a_min or b < b_min:
            return None
        if c - a - b <= gap_min or not a + b < c:
            return None
        return (x, y, z)

    triangles = []
    if max_triangles is None or n <= 64:
        pos = d > 0
        for x in range(n):
            for y in np.flatnonzero(pos[x]):
                for z in np.flatnonzero(pos[y] & pos[x]):
                    tri = qualifies(x, int(y), int(z))
                    if tri is not None:
                        triangles.append(tri)
        if max_triangles is not None and len(triangles) > max_triangles:
            rng = np.random.default_rng(seed)
            keep = rng.choice(len(triangles), size=max_triangles, replace=False)
            triangles = [triangles[i] for i in sorted(keep)]
    else:
        rng = np.random.default_rng(seed)
        seen = set()
        attempts = 0
        budget = max(200_000, 400 * max_triangles)
        while len(triangles) < max_triangles and attempts < budget:
            attempts += 1
            x, y, z = (int(v) for v in rng.integers(0, n, size=3))
            if (x, y, z) in seen:
                continue
            seen.add((x, y, z))
            tri = qualifies(x, y, z)
            if tri is not None:
                triangles.append(tri)
        if stats is not None:
            stats["attempts"] = attempts
    return triangles


def oracle_comparison_distance(a, b, c, d1, d2) -> float:
    """comparison_distance_m0 with each side's ends spelled out per side."""
    SideParams(SidePoint(*d1), SidePoint(*d2))  # validates both
    ends = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}

    def vertex(sp):
        lo, hi = ends[sp[0]]
        return lo if sp[1] == 0.0 else hi if sp[1] == 1.0 else None

    v1, v2 = vertex(d1), vertex(d2)
    if v1 is not None and v2 is not None:
        if not realizable(a, b, c, 0.0):
            raise ValueError(
                f"sides ({a}, {b}, {c}) are not realizable in the flat model")
        if "xyz".index(v1) >= "xyz".index(v2):
            return 0.0
        return {("x", "y"): a, ("y", "z"): b, ("x", "z"): c}[(v1, v2)]
    xbar, ybar, zbar = comparison_triangle_m0(a, b, c)

    def place(side, t):
        if side == "xy":
            o, e = xbar, ybar
        elif side == "yz":
            o, e = ybar, zbar
        else:
            o, e = xbar, zbar
        return (o[0] + t * (e[0] - o[0]), o[1] + t * (e[1] - o[1]))

    p, q = place(d1[0], d1[1]), place(d2[0], d2[1])
    dt, dx = q[0] - p[0], q[1] - p[1]
    return math.sqrt(dt * dt - dx * dx) if dt >= abs(dx) else 0.0


def oracle_curvature_checks(host: Causet, triangles, bound, tol,
                            params) -> list:
    """to_json() of each TriangleRecord for the given vertex triples.

    Candidates come from a per-side if/elif, twice per side pair, and the
    lower and upper bounds take min and max in separate branches.
    """
    d = host.as_float()

    def candidates(tri, sp):
        x, y, z = tri
        if sp.side == "xy":
            o, e = x, y
        elif sp.side == "yz":
            o, e = y, z
        else:
            o, e = x, z
        length = float(d[o, e])
        from_o = np.abs(d[o, :] / length - sp.t) <= tol
        from_e = np.abs(d[:, e] / length - (1.0 - sp.t)) <= tol
        return np.flatnonzero(from_o & from_e)

    records = []
    for x, y, z in triangles:
        a, b, c = float(d[x, y]), float(d[y, z]), float(d[x, z])
        checks = []
        for sp in params:
            cand1 = candidates((x, y, z), sp.d1)
            cand2 = candidates((x, y, z), sp.d2)
            check = {"d1": list(sp.d1), "d2": list(sp.d2)}
            checks.append(check)
            if len(cand1) == 0 or len(cand2) == 0:
                check["status"] = "vacuous"
                continue
            model = oracle_comparison_distance(a, b, c, sp.d1, sp.d2)
            vals = d[np.ix_(cand1, cand2)]
            if bound == "lower":
                hit = float(vals.min()) <= model + tol
                flat = int(np.argmin(vals))
            else:
                hit = float(vals.max()) >= model - tol
                flat = int(np.argmax(vals))
            check["status"] = "ok" if hit else "violation"
            if not hit:
                p = int(cand1[flat // len(cand2)])
                q = int(cand2[flat % len(cand2)])
                check["witness"] = {"p": p, "q": q, "d": float(d[p, q]),
                                    "model": model}
        records.append({"vertices": [x, y, z], "sides": [a, b, c],
                        "checks": checks})
    return records


# -- Gromov-Hausdorff oracle ---------------------------------------------

_MASK_CACHE: dict = {}


def covering_masks(m: int, n: int) -> list:
    """Bitmasks over the m*n pair grid whose relation covers both sides."""
    key = (m, n)
    if key in _MASK_CACHE:
        return _MASK_CACHE[key]
    masks = []
    for mask in range(1, 1 << (m * n)):
        rows = cols = 0
        mm = mask
        while mm:
            bit = mm & -mm
            p = bit.bit_length() - 1
            rows |= 1 << (p // n)
            cols |= 1 << (p % n)
            mm ^= bit
        if rows == (1 << m) - 1 and cols == (1 << n) - 1:
            masks.append(mask)
    _MASK_CACHE[key] = masks
    return masks


def oracle_isometries(a: Causet, b: Causet, tol) -> list:
    """Every permutation p with |d_a(x, x') - d_b(p x, p x')| <= tol for
    all x, x', by enumeration, in lexicographic order."""
    da, db = a.as_float(), b.as_float()
    if a.n != b.n:
        return []
    return [p for p in itertools.permutations(range(a.n))
            if all(abs(da[x, xp] - db[p[x], p[xp]]) <= tol
                   for x in range(a.n) for xp in range(a.n))]


def oracle_gh(a: Causet, b: Causet) -> float:
    """Minimum distortion over every covering relation, by enumeration."""
    da, db = a.as_float(), b.as_float()
    m, n = a.n, b.n
    pairs = [(x, y) for x in range(m) for y in range(n)]
    npairs = len(pairs)
    gap = np.empty((npairs, npairs))
    for p, (x1, y1) in enumerate(pairs):
        for q, (x2, y2) in enumerate(pairs):
            gap[p, q] = abs(da[x1, x2] - db[y1, y2])
    best = np.inf
    for mask in covering_masks(m, n):
        idx = [p for p in range(npairs) if mask >> p & 1]
        val = gap[np.ix_(idx, idx)].max()
        if val < best:
            best = val
    return float(best)


# -- diamond gamma oracle ------------------------------------------------

def grid_sup_gamma(x, y, size=400) -> float:
    """sup over an axis grid of the defining distinction expression.

    Each axis mixes uniform grid points with the four pair coordinates,
    so the probe set contains the exact corner projections of the pair;
    a plain uniform grid misses the sup near the lightcone, where the
    square root has unbounded slope.
    """
    def axis(vals):
        base = np.linspace(0.0, 1.0, size - len(vals))
        return np.unique(np.concatenate([base, vals]))

    u = axis(np.array([x[0], y[0]]))
    v = axis(np.array([x[1], y[1]]))
    uu, vv = np.meshgrid(u, v, indexing="ij")

    def dist(p1, p2, q1, q2):
        du = q1 - p1
        dv = q2 - p2
        ok = (du >= 0) & (dv >= 0)
        return np.where(ok, np.sqrt(np.clip(du * dv, 0.0, None)), 0.0)

    gaps = [
        np.abs(dist(x[0], x[1], uu, vv) - dist(y[0], y[1], uu, vv)),
        np.abs(dist(uu, vv, x[0], x[1]) - dist(uu, vv, y[0], y[1])),
    ]
    return float(max(g.max() for g in gaps))


# -- exact-arithmetic oracles --------------------------------------------

def random_fraction_matrix(rng, n) -> np.ndarray:
    """A random object-Fraction matrix that the float filters find hard.

    A closed random DAG with mixed denominators, at times scaled past the
    float range (10**310) or into the subnormals (10**-325), then up to
    three planted defects: a negative entry, a diagonal entry, a duplicate
    point (at times off by 1/10**30 of the scale), two boundary points, a
    reverse-triangle near-tie off by +-1/10**30 of the scale or exact, an
    entry above 1e308 or one below 1e-320.
    """
    scale = Fraction(1)
    if rng.random() < 0.5:
        scale = [Fraction(10**310), Fraction(1, 10**325),
                 Fraction(1, 10**6)][int(rng.integers(0, 3))]

    def entry():
        den = int(rng.choice([1, 2, 3, 7, 10, 97, 2**40, 10**12 + 39]))
        return (Fraction(int(rng.integers(0, 10**6)), den)
                + Fraction(1, 1000)) * scale

    d = np.full((n, n), Fraction(0), dtype=object)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                d[i, j] = entry()
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i, k] > 0 and d[k, j] > 0:
                    d[i, j] = max(d[i, j], d[i, k] + d[k, j])
    for _ in range(int(rng.integers(0, 4))):
        kind = int(rng.integers(0, 7))
        i, j = (int(v) for v in rng.integers(0, n, size=2))
        if kind == 0:
            d[i, j] = -entry()
        elif kind == 1:
            d[i, i] = entry()
        elif kind == 2 and i != j:
            d[j, :] = d[i, :]
            d[:, j] = d[:, i]
            d[i, j] = d[j, i] = d[j, j] = d[i, i]
            if rng.random() < 0.5:  # a pair the float image cannot tell apart
                z = int(rng.integers(0, n))
                off = Fraction(1, 10**30) * scale
                if rng.random() < 0.5:
                    d[j, z] += off
                else:
                    d[z, j] += off
        elif kind == 3:
            d[[i, j], :] = Fraction(0)
            d[:, [i, j]] = Fraction(0)
        elif kind == 4:
            trips = [(a, b, c) for a in range(n) for b in range(n)
                     for c in range(n) if d[a, b] > 0 and d[b, c] > 0]
            if trips:
                a, b, c = trips[int(rng.integers(0, len(trips)))]
                off = Fraction(int(rng.integers(-1, 2)), 10**30)
                d[a, c] = d[a, b] + d[b, c] + off * scale
        elif kind == 5:
            d[i, j] = Fraction(10**309 + int(rng.integers(0, 5)))
        else:
            d[i, j] = Fraction(1, 10**321 + int(rng.integers(0, 5)))
    return d


def underflow_payload() -> np.ndarray:
    """A fixed Fraction matrix whose signs the float image cannot show.

    d(0, 1) = 1/10**400 and d(3, 4) = -1/10**400 have float images +0.0
    and -0.0; d(1, 2) = d(0, 2) = 2**1024 are past 2**1023.  Read as zeros,
    the two tiny entries would hide a reverse-triangle defect of
    1/10**400 at (0, 1, 2), the negative entry, and make points 3 and 4
    two boundary points that share their rows and columns.
    """
    tiny = Fraction(1, 10**400)
    d = np.full((5, 5), Fraction(0), dtype=object)
    d[0, 1], d[3, 4] = tiny, -tiny
    d[1, 2] = d[0, 2] = Fraction(2**1024)
    return d


# Plain Fraction loops: the reference for the float-filtered exact kernels
# of validate, reverse_triangle_slack and rationalize.

def _float_or_inf(v) -> float:
    """float(v); a Fraction past the float64 range is +-inf."""
    if abs(v) >= 2**1024 - 2**970:  # rounds past the largest float
        return math.inf if v > 0 else -math.inf
    return float(v)


def oracle_validate_exact(d: np.ndarray) -> list:
    """Axiom checks in exact Fraction arithmetic, witnesses in loop order;
    magnitudes past the float64 range are +-inf."""
    n = d.shape[0]
    out = []
    for i in range(n):
        for j in range(n):
            if d[i, j] < 0:
                out.append(Violation("negative-entry", (i, j),
                                     _float_or_inf(d[i, j])))
    for i in range(n):
        if d[i, i] > 0:
            out.append(Violation("diagonal", (i,), _float_or_inf(d[i, i])))
    for i in range(n):
        for j in range(n):
            if d[i, j] <= 0:
                continue
            for k in range(n):
                if d[j, k] > 0 and d[i, k] < d[i, j] + d[j, k]:
                    out.append(Violation(
                        "reverse-triangle", (i, j, k),
                        _float_or_inf(d[i, j] + d[j, k] - d[i, k])))
    for i in range(n):
        for j in range(i + 1, n):
            if all(d[i, z] == d[j, z] for z in range(n)) and \
               all(d[z, i] == d[z, j] for z in range(n)):
                out.append(Violation("distinguishing", (i, j), 0.0))
    zero = [i for i in range(n)
            if all(d[i, z] == 0 for z in range(n))
            and all(d[z, i] == 0 for z in range(n))]
    if len(zero) >= 2:
        out.append(Violation("multiple-boundary", tuple(zero), 0.0))
    return out


def oracle_cone_slacks(f: np.ndarray, pos: np.ndarray):
    """causet._cone_slacks with each j's past and future found on its own
    column and row, and each block gathered with np.ix_."""
    for j in range(len(f)):
        ii, kk = np.flatnonzero(pos[:, j]), np.flatnonzero(pos[j])
        if len(ii) and len(kk):
            s = f[np.ix_(ii, kk)]
            with np.errstate(invalid="ignore", over="ignore"):
                s -= f[ii, j][:, None]
                s -= f[j, kk]
            yield j, ii, kk, s


def oracle_cone_floors(f: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Each j's least slack over its oracle_cone_slacks block: -inf when
    the block holds a NaN or +-inf, +inf when j has no block."""
    out = np.full(len(f), np.inf)
    for j, _, _, s in oracle_cone_slacks(f, pos):
        out[j] = min(s.flat) if np.isfinite(s).all() else -np.inf
    return out


def oracle_slack(d: np.ndarray):
    """min d(i,k) - d(i,j) - d(j,k) over d(i,j), d(j,k) > 0; None if none."""
    n = d.shape[0]
    best = None
    for i in range(n):
        for j in range(n):
            if d[i, j] <= 0:
                continue
            for k in range(n):
                if d[j, k] > 0:
                    s = d[i, k] - d[i, j] - d[j, k]
                    if best is None or s < best:
                        best = s
    return best


def oracle_min_gamma(d: np.ndarray):
    """Smallest exact distinction distance between two distinct points."""
    n = d.shape[0]
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            worst = Fraction(0)
            for z in range(n):
                worst = max(worst, abs(d[i, z] - d[j, z]),
                            abs(d[z, i] - d[z, j]))
            g[i][j] = g[j][i] = worst
    return min(g[i][j] for i in range(n) for j in range(i + 1, n))


def oracle_link_counts(pos: np.ndarray) -> np.ndarray:
    """t[i][j]: maximal number of links of a chronological chain i -> j."""
    n = pos.shape[0]
    t = np.where(pos, 1, 0)
    for k in range(n):
        for i in range(n):
            if not t[i, k]:
                continue
            for j in range(n):
                if t[k, j] and t[i, k] + t[k, j] > t[i, j]:
                    t[i, j] = t[i, k] + t[k, j]
    return t


def oracle_simplest_rational_between(lo, hi):
    """Stern-Brocot descent on Fractions, one call per partial quotient."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    if lo < 0:
        shift = -math.floor(lo)
        return oracle_simplest_rational_between(lo + shift, hi + shift) - shift
    floor_lo = lo.numerator // lo.denominator
    candidate = Fraction(floor_lo + 1)
    if candidate < hi:
        return candidate
    if lo == floor_lo:
        q = (1 / (hi - lo)).__floor__() + 1
        return lo + Fraction(1, q)
    inner = oracle_simplest_rational_between(1 / (hi - floor_lo),
                                             1 / (lo - floor_lo))
    return floor_lo + 1 / inner


def oracle_rationalize(c: Causet, eps) -> np.ndarray:
    """The Fraction matrix rationalize returns, from the loops above."""
    n = c.n
    if c.is_rational:
        d = c.d.copy()
    else:
        d = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                d[i, j] = Fraction(float(c.d[i, j]))
    pos = np.array([[d[i, j] > 0 for j in range(n)] for i in range(n)])
    if n < 2:
        return d
    eps_f = Fraction(eps) if not isinstance(eps, Fraction) else eps
    alpha = oracle_min_gamma(d)
    if alpha <= 0:
        raise ValueError("input causet is not distinguishing")
    if not pos.any():
        return d
    delta = min(alpha / 4, eps_f / 2) / Fraction(n * (n - 1), 2) ** 2
    t = oracle_link_counts(pos)
    d1 = d.copy()
    for i in range(n):
        for j in range(n):
            if pos[i, j]:
                d1[i, j] = d[i, j] + delta * int(t[i, j]) ** 2
    p_min = min(d1[i, j] for i in range(n) for j in range(n) if pos[i, j])
    margin = min(eps_f / 2, alpha / 8, p_min / 2)
    slack = None
    for i in range(n):
        for j in range(n):
            if not pos[i, j]:
                continue
            for k in range(n):
                if pos[j, k]:
                    s = d1[i, k] - d1[i, j] - d1[j, k]
                    if slack is None or s < slack:
                        slack = s
    if slack is not None:
        if slack <= 0:
            raise ValueError("input causet breaks the reverse triangle "
                             "inequality")
        margin = min(margin, slack / 4)
    out = d1.copy()
    for i in range(n):
        for j in range(n):
            if pos[i, j]:
                out[i, j] = oracle_simplest_rational_between(
                    d1[i, j] - margin, d1[i, j] + margin)
    return out


# -- GH search oracles ---------------------------------------------------
# The pair loops gh.py used before its numpy kernel: same candidate order
# and tie-breaks, so every value, witness and node count must agree.

def oracle_profile_mismatch(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """Sorted-profile sup gaps by an O(m n k) broadcast."""
    m, n = da.shape[0], db.shape[0]
    k = max(m, n)
    pad = []
    for d in (da, db, da.T, db.T):
        p = np.zeros((len(d), k))
        p[:, k - len(d):] = np.sort(d, axis=1)
        pad.append(p)
    ra, rb, ca, cb = pad
    gap_r = np.abs(ra[:, None, :] - rb[None, :, :]).max(axis=2)
    gap_c = np.abs(ca[:, None, :] - cb[None, :, :]).max(axis=2)
    return np.maximum(gap_r, gap_c)


def oracle_profile_mismatch_cdist(da: np.ndarray, db: np.ndarray
                                  ) -> np.ndarray:
    """Sorted-profile sup gaps from two cdist(chebyshev) calls on the
    zero-padded profiles."""
    k = max(len(da), len(db))

    def profiles(d):
        p = np.zeros((2, len(d), k))
        p[0, :, k - len(d):] = np.sort(d, axis=1)
        p[1, :, k - len(d):] = np.sort(d.T, axis=1)
        return p

    pa, pb = profiles(da), profiles(db)
    return np.maximum(cdist(pa[0], pb[0], "chebyshev"),
                      cdist(pa[1], pb[1], "chebyshev"))


def oracle_pairs_distortion(pairs, da, db):
    worst = 0.0
    for i in range(len(pairs)):
        x, y = pairs[i]
        for j in range(i, len(pairs)):
            xp, yp = pairs[j]
            v = abs(da[x, xp] - db[y, yp])
            w = abs(da[xp, x] - db[yp, y])
            if v > worst:
                worst = v
            if w > worst:
                worst = w
    return worst


def _oracle_marginal(pairs, da, db, x, y, current=0.0):
    """Distortion after adding (x, y): its self term and its gaps to pairs."""
    worst = max(current, abs(da[x, x] - db[y, y]))
    for xp, yp in pairs:
        v = abs(da[x, xp] - db[y, yp])
        if v > worst:
            worst = v
        v = abs(da[xp, x] - db[yp, y])
        if v > worst:
            worst = v
    return worst


def oracle_greedy_once(da, db, x_order, y_order, mismatch):
    """Greedy (f, g) construction, then first-improvement local search that
    re-scores the whole pair list for every candidate; returns (value, f,
    g, rounds, moves), a move being a slot that ends a pass re-imaged."""
    m, n = da.shape[0], db.shape[0]
    pairs = []
    f = [-1] * m
    for x in x_order:
        _, _, y = min((_oracle_marginal(pairs, da, db, x, y),
                        mismatch[x, y], y)
                      for y in range(n))
        f[x] = y
        pairs.append((x, y))
    g = [-1] * n
    for y in y_order:
        _, _, x = min((_oracle_marginal(pairs, da, db, x, y),
                        mismatch[x, y], x)
                      for x in range(m))
        g[y] = x
        pairs.append((x, y))

    def full_dis():
        ps = [(x, f[x]) for x in range(m)] + [(g[y], y) for y in range(n)]
        return oracle_pairs_distortion(ps, da, db)

    best = full_dis()
    improved, rounds, moves = True, 0, 0
    max_rounds = 8 if m + n <= 80 else 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for fv, size in ((f, n), (g, m)):
            for slot in range(len(fv)):
                cur = start = fv[slot]
                for cand in range(size):
                    if cand == cur:
                        continue
                    fv[slot] = cand
                    v = full_dis()
                    if v < best - 1e-15:
                        best, cur, improved = v, cand, True
                    else:
                        fv[slot] = cur
                moves += cur != start
    return best, f, g, rounds, moves


def oracle_lower_bound(da: np.ndarray, db: np.ndarray) -> float:
    va, vb = np.unique(da), np.unique(db)
    gaps = []
    for u, v in ((va, vb), (vb, va)):
        gaps.append(max(min(abs(s - t) for t in v) for s in u))
    diam_gap = abs(float(da.max()) - float(db.max()))
    return max(diam_gap, float(max(gaps)))


def oracle_greedy(da, db, restarts=32, seed=0, stats=None):
    """(upper, witness pairs, f, g) of gh_upper_greedy from the loops above;
    a stats Counter adds up the runs, rounds and moves."""
    m, n = da.shape[0], db.shape[0]
    mismatch = oracle_profile_mismatch(da, db)
    base_x = list(np.argsort(-da.var(axis=1), kind="stable"))
    base_y = list(np.argsort(-db.var(axis=1), kind="stable"))
    if m * n > 10000:
        restarts = min(restarts, 2)
    best = None
    rng = np.random.default_rng(seed)
    for trial in range(max(1, restarts)):
        if trial == 0:
            xo, yo = base_x, base_y
        else:
            xo, yo = list(rng.permutation(m)), list(rng.permutation(n))
        val, f, g, rounds, moves = oracle_greedy_once(da, db, xo, yo,
                                                      mismatch)
        if stats is not None:
            stats.update(runs=1, rounds=rounds, moves=moves)
        if best is None or val < best[0]:
            best = (val, f, g)
        if best[0] == 0.0:
            break
    val, f, g = best
    pairs = {(x, f[x]) for x in range(m)} | {(g[y], y) for y in range(n)}
    return val, tuple(sorted((int(x), int(y)) for x, y in pairs)), f, g


def oracle_branch_and_bound(da, db, x_order, y_order, incumbent, inc_fg,
                            node_budget):
    """DFS over f then g, children in profile-mismatch order, pruning at
    the incumbent; returns (value, (f, g), completed, nodes)."""
    m, n = da.shape[0], db.shape[0]
    mismatch = oracle_profile_mismatch(da, db)
    y_by_pref = [list(np.argsort(mismatch[x], kind="stable")) for x in range(m)]
    x_by_pref = [list(np.argsort(mismatch[:, y], kind="stable"))
                 for y in range(n)]
    f, g, pairs = [-1] * m, [-1] * n, []
    state = {"best": incumbent, "fg": inc_fg, "nodes": 0, "over": False}

    def dfs(depth, current):
        if state["over"] or state["best"] == 0.0:
            return
        state["nodes"] += 1
        if node_budget is not None and state["nodes"] > node_budget:
            state["over"] = True
            return
        if depth == m + n:
            if current < state["best"]:
                state["best"] = current
                state["fg"] = (f.copy(), g.copy())
            return
        if depth < m:
            x = x_order[depth]
            options = [(x, y, f, x) for y in y_by_pref[x]]
        else:
            y = y_order[depth - m]
            options = [(x, y, g, y) for x in x_by_pref[y]]
        for x, y, fv, slot in options:
            cand = _oracle_marginal(pairs, da, db, x, y, current)
            if cand >= state["best"]:
                continue
            fv[slot] = y if fv is f else x
            pairs.append((x, y))
            dfs(depth + 1, cand)
            pairs.pop()
            fv[slot] = -1
            if state["over"]:
                return

    dfs(0, 0.0)
    return state["best"], state["fg"], not state["over"], state["nodes"]


def oracle_gh_exact(da, db, max_exact_size=6, node_budget=None):
    """(lower, upper, exact, method, witness pairs) of gh_exact."""
    m, n = da.shape[0], db.shape[0]
    if max(m, n) > max_exact_size:
        upper, pairs, _, _ = oracle_greedy(da, db)
        return oracle_lower_bound(da, db), upper, None, "greedy", pairs
    # the greedy (f, g) itself is the incumbent
    upper, _, inc_f, inc_g = oracle_greedy(da, db, restarts=8)
    x_order = list(np.argsort(-da.var(axis=1), kind="stable"))
    y_order = list(np.argsort(-db.var(axis=1), kind="stable"))
    value, (f, g), completed, _ = oracle_branch_and_bound(
        da, db, x_order, y_order, upper, (inc_f, inc_g), node_budget)
    pairs = {(x, f[x]) for x in range(m)} | {(g[y], y) for y in range(n)}
    pairs = tuple(sorted((int(x), int(y)) for x, y in pairs))
    if completed:
        return value, value, value, "exact", pairs
    return oracle_lower_bound(da, db), value, None, "branch-bound", pairs


# -- time function and limit oracles ---------------------------------------
# The code these replaced: a per-dtype time function and a per-entry fit.

def oracle_tau_base(c: Causet, ordering=None):
    """time_function's values at alpha = 1, beta = 0: a Fraction sum per
    point on a rational payload, two float products otherwise."""
    n = c.n
    ordering = list(range(n)) if ordering is None else list(ordering)
    if c.is_rational:
        w = [Fraction(1, 2 ** (k + 1)) for k in range(n)]
        return np.array([Fraction(1, 2) * sum(
            (w[k] * (c.d[s, x] - c.d[x, s]) for k, s in enumerate(ordering)),
            Fraction(0)) for x in range(n)], dtype=object)
    d = c.as_float()
    w = 0.5 ** np.arange(1, n + 1)
    s = np.asarray(ordering, dtype=int)
    return 0.5 * (w @ d[s, :] - d[:, s] @ w)


def oracle_limit_matrix(seq) -> np.ndarray:
    """limit_causet's fitted matrix before the quotient: per entry, the tail
    value if constant, else max(a, 0) of one least-squares fit a + b/m."""
    stack = np.stack([c.as_float() for c in seq])
    m_count, n = len(seq), stack.shape[1]
    tail_start = m_count // 2 if m_count >= 6 else 0
    tail = stack[tail_start:]
    positions = np.arange(tail_start + 1, m_count + 1, dtype=float)
    design = np.column_stack([np.ones_like(positions), 1.0 / positions])
    limit = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            vals = tail[:, i, j]
            if vals.max() == vals.min():
                limit[i, j] = vals[0]
                continue
            coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
            limit[i, j] = max(coef[0], 0.0)
    return limit


def oracle_from_json(obj) -> Causet:
    """Causet.from_json with one Fraction(p[0], p[1]) per rational entry,
    every check made before any entry is converted; a rational pair must
    hold two ints, JSON booleans not counted."""
    for key in ("n", "d"):
        if key not in obj:
            raise KeyError(f"causet JSON is missing field '{key}'")
    n = obj["n"]
    rows = obj["d"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ValueError(f"field 'd' must be a list of {n} rows")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValueError(f"field 'd' row {i} has length {len(row)}")
    if obj.get("rational"):
        if not all(isinstance(p, list) and len(p) == 2 and p[1] != 0
                   for row in rows for p in row):
            raise ValueError("rational entries must be [numerator, "
                             "nonzero denominator] pairs")
        for i, row in enumerate(rows):
            for j, p in enumerate(row):
                if type(p[0]) is not int or type(p[1]) is not int:
                    raise ValueError(f"field 'd' entry ({i}, {j}) is not a "
                                     f"pair of integers: {p!r}")
        m = np.array([Fraction(p[0], p[1]) for row in rows for p in row],
                     dtype=object).reshape(n, n)
    else:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise ValueError(f"field 'd' entry ({i}, {j}) is not a "
                                     f"number: {v!r}")
        m = np.asarray(rows, dtype=float).reshape(n, n)
    labels = obj.get("labels")
    if labels is None:
        labels = [f"p{i}" for i in range(n)]
    if not (isinstance(labels, list)
            and all(isinstance(s, str) for s in labels)):
        raise ValueError("field 'labels' must be a list of strings")
    if len(labels) != n:
        raise ValueError(f"field 'labels' has length {len(labels)}, "
                         f"expected {n}")
    return Causet(tuple(labels), m, boundary=obj.get("boundary"),
                  meta=obj.get("meta"))
