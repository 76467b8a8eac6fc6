"""Shared generators and independent oracles for the test suite.

Random causets come from transitively closing a weighted random DAG:
the max-plus closure makes every chained triple satisfy the reverse
triangle inequality with equality or better, and a validate-and-retry
loop removes the rare distinguishing collision.  Oracles here are
written in plain Python loops on purpose, so they share no code path
with the vectorized library internals they are checked against.
"""

import math
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist

from lorentzmet import Causet, Violation, validate


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
                     max_triangles=200, seed=0) -> list:
    """Vertices of the triangles check_curvature_bound should pick.

    The triple loop for small hosts and the one-draw-per-iteration
    rejection sampler for large ones, written with per-triple scalar
    tests.
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
    return triangles


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


# Plain Fraction loops: the reference for the float-filtered exact kernels
# of validate, reverse_triangle_slack and rationalize.

def oracle_validate_exact(d: np.ndarray) -> list:
    """Axiom checks in exact Fraction arithmetic, witnesses in loop order."""
    n = d.shape[0]
    out = []
    for i in range(n):
        for j in range(n):
            if d[i, j] < 0:
                out.append(Violation("negative-entry", (i, j), float(d[i, j])))
    for i in range(n):
        if d[i, i] > 0:
            out.append(Violation("diagonal", (i,), float(d[i, i])))
    for i in range(n):
        for j in range(n):
            if d[i, j] <= 0:
                continue
            for k in range(n):
                if d[j, k] > 0 and d[i, k] < d[i, j] + d[j, k]:
                    out.append(Violation(
                        "reverse-triangle", (i, j, k),
                        float(d[i, j] + d[j, k] - d[i, k])))
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
    re-scores the whole pair list for every candidate."""
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
    improved, rounds = True, 0
    max_rounds = 8 if m + n <= 80 else 0
    while improved and rounds < max_rounds:
        improved = False
        rounds += 1
        for fv, size in ((f, n), (g, m)):
            for slot in range(len(fv)):
                cur = fv[slot]
                for cand in range(size):
                    if cand == cur:
                        continue
                    fv[slot] = cand
                    v = full_dis()
                    if v < best - 1e-15:
                        best, cur, improved = v, cand, True
                    else:
                        fv[slot] = cur
    return best, f, g


def oracle_lower_bound(da: np.ndarray, db: np.ndarray) -> float:
    va, vb = np.unique(da), np.unique(db)
    gaps = []
    for u, v in ((va, vb), (vb, va)):
        gaps.append(max(min(abs(s - t) for t in v) for s in u))
    diam_gap = abs(float(da.max()) - float(db.max()))
    return max(diam_gap, float(max(gaps)))


def oracle_greedy(da, db, restarts=32, seed=0):
    """(upper, witness pairs, f, g) of gh_upper_greedy from the loops above."""
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
        val, f, g = oracle_greedy_once(da, db, xo, yo, mismatch)
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
