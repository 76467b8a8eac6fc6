"""Shared generators and independent oracles for the test suite.

Random causets come from transitively closing a weighted random DAG:
the max-plus closure makes every chained triple satisfy the reverse
triangle inequality with equality or better, and a validate-and-retry
loop removes the rare distinguishing collision.  Oracles here are
written in plain Python loops on purpose, so they share no code path
with the vectorized library internals they are checked against.
"""

import numpy as np

from lorentzmet import Causet, validate


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
