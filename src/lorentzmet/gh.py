"""Gromov-Hausdorff distance between finite Lorentzian distance matrices.

d_GH(X, Y) is the infimum of the distortion

    dis R = sup |d_X(x, x') - d_Y(y, y')|   over (x, y), (x', y') in R

over correspondences R, i.e. relations covering both factors.  For finite
spaces the infimum is attained on unions graph(f) u graph(g)^T with
f: X -> Y and g: Y -> X, because every correspondence contains such a
union, and a subset never has larger distortion.  The exact solver runs
branch and bound over these function pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .causet import Causet, diameter, find_isometries

__all__ = [
    "Correspondence",
    "GHResult",
    "distortion",
    "compose",
    "gh_exact",
    "gh_upper_greedy",
    "gh_lower_bounds",
    "epsilon_isometry_from",
    "map_distortion",
    "gh_zero_is_isometry",
]


@dataclass(frozen=True, eq=False)
class Correspondence:
    """Relation between index sets {0..m-1} and {0..n-1} covering both."""

    m: int
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = tuple(sorted({(int(x), int(y)) for x, y in self.pairs}))
        object.__setattr__(self, "pairs", pairs)
        xs = {x for x, _ in pairs}
        ys = {y for _, y in pairs}
        for x, y in pairs:
            if not (0 <= x < self.m and 0 <= y < self.n):
                raise ValueError(f"pair ({x}, {y}) out of range")
        if xs != set(range(self.m)) or ys != set(range(self.n)):
            raise ValueError("relation does not cover both factors")

    @classmethod
    def identity(cls, n: int) -> "Correspondence":
        return cls(n, n, tuple((i, i) for i in range(n)))

    def transpose(self) -> "Correspondence":
        return Correspondence(self.n, self.m,
                              tuple((y, x) for x, y in self.pairs))

    def to_json(self) -> list[list[int]]:
        return [[x, y] for x, y in self.pairs]


def distortion(r: Correspondence, a: Causet, b: Causet) -> float:
    """Largest distance mismatch over ordered pairs of related pairs."""
    if r.m != a.n or r.n != b.n:
        raise ValueError("correspondence shape does not match the causets")
    xs, ys = np.array(r.pairs, dtype=int).reshape(-1, 2).T
    return float(_dis(a.as_float(), b.as_float(), xs, ys))


def compose(r1: Correspondence, r2: Correspondence) -> Correspondence:
    """Relational composition: apply r1 (X to Y) then r2 (Y to Z).

    The distortion of the result is at most dis r1 + dis r2.
    """
    if r1.n != r2.m:
        raise ValueError(
            f"inner sizes differ: r1 is {r1.m}x{r1.n}, r2 is {r2.m}x{r2.n}")
    by_y: dict[int, list[int]] = {}
    for x, y in r1.pairs:
        by_y.setdefault(y, []).append(x)
    out = set()
    for y, z in r2.pairs:
        for x in by_y.get(y, ()):
            out.add((x, z))
    return Correspondence(r1.m, r2.n, tuple(out))


@dataclass(frozen=True, eq=False)
class GHResult:
    lower: float
    upper: float
    exact: float | None
    witness: Correspondence | None
    method: str  # exact | branch-bound | greedy

    def to_json(self) -> dict:
        out = {"lower": self.lower, "upper": self.upper, "method": self.method,
               "witness_pairs": self.witness.to_json() if self.witness else None}
        if self.exact is not None:
            out["exact"] = self.exact
        return out


def _checked(c: Causet, name: str) -> np.ndarray:
    """Float matrix of c; a ValueError names an empty c or non-finite entry."""
    if c.n == 0:
        raise ValueError(f"causet {name} has no points")
    d = c.as_float()
    bad = np.argwhere(~np.isfinite(d))
    if len(bad):
        i, j = bad[0]
        raise ValueError(
            f"causet {name} has a non-finite entry at ({i}, {j}): {d[i, j]}")
    return d


def _value_gap(va: np.ndarray, vb: np.ndarray) -> float:
    """Largest distance from a value in va to the nearest one in sorted vb."""
    # with a single value in vb the clip gives 0: both neighbours are vb[0]
    pos = np.searchsorted(vb, va).clip(1, len(vb) - 1)
    return float(np.minimum(np.abs(va - vb[pos - 1]),
                            np.abs(va - vb[pos])).max())


def _lower_bound(da: np.ndarray, db: np.ndarray) -> float:
    va, vb = np.unique(da), np.unique(db)
    diam_gap = abs(float(da.max()) - float(db.max()))
    return max(diam_gap, _value_gap(va, vb), _value_gap(vb, va))


def gh_lower_bounds(a: Causet, b: Causet) -> float:
    """Cheap lower bound: diameter gap and distance-value set mismatch.

    Every value of one matrix must be matched within dis R by some value
    of the other, so the one-dimensional Hausdorff distance between the
    two value sets bounds d_GH from below; so does the diameter gap.
    """
    return _lower_bound(_checked(a, "a"), _checked(b, "b"))


def _profile_mismatch(da: np.ndarray, db: np.ndarray) -> np.ndarray:
    """mismatch[x, y]: sorted-profile sup gap, a heuristic match cost.

    Profiles are padded at the front with zeros to a common length k; the
    gaps come from cdist, so memory stays O(m n + (m + n) k).
    """
    k = max(len(da), len(db))

    def profiles(d):
        p = np.zeros((2, len(d), k))
        p[0, :, k - len(d):] = np.sort(d, axis=1)
        p[1, :, k - len(d):] = np.sort(d.T, axis=1)
        return p

    pa, pb = profiles(da), profiles(db)
    return np.maximum(cdist(pa[0], pb[0], "chebyshev"),
                      cdist(pa[1], pb[1], "chebyshev"))


def _variance_order(d: np.ndarray) -> list:
    return list(np.argsort(-d.var(axis=1), kind="stable"))


def _costs(dp, dq, ps, qs, p) -> np.ndarray:
    """Cost of adding the pair (p, q) to the pairs (ps[k], qs[k]), for every q.

    Entry q is max over k of |dp[p, ps_k] - dq[q, qs_k]| and
    |dp[ps_k, p] - dq[qs_k, q]|, 0.0 without pairs.  Called as (db, da, ys,
    xs, y) it scores every x for a slot y: |u - v| and |v - u| are equal.
    """
    out = np.abs(dp[p, ps] - dq[:, qs])
    back = np.abs(dp[ps, p] - dq[qs].T)
    return np.maximum(out, back).max(axis=1, initial=0.0)


def _dis(da, db, xs, ys):
    """Distortion of the pairs (xs[k], ys[k]), over ordered pairs of pairs.

    Every value the search returns keeps one type: a zero is the Python
    0.0, any other value a numpy float (the results' repr depends on it).
    """
    return np.abs(da[np.ix_(xs, xs)] - db[np.ix_(ys, ys)]).max(initial=0.0) \
        or 0.0


# local search runs, and the pair table is built, only while m + n stays
# within this: the table takes 8 (m n)^2 bytes, 20 MB at 40 x 40
TABLE_MAX_POINTS = 80


def _pair_table(da, db) -> np.ndarray:
    """Distortion of every two pairs: w[x n + y, x' n + y'] is the larger of
    |da[x, x'] - db[y, y']| and |da[x', x] - db[y', y]|.

    Both searches that revisit pairs read it instead of calling _costs; the
    entries are the same floats, as |u - v| and |v - u| are equal and max
    is exact.  Peak memory is twice the table.
    """
    m, n = len(da), len(db)
    w = da[:, None, :, None] - db[None, :, None, :]
    w = np.abs(w, out=w).reshape(m * n, m * n)
    return np.maximum(w, w.T)


def _slot_pairs(m, n, k, p):
    """Table rows of the pairs slot k can hold: (p, q) for an x slot k < m,
    (q, p) for a y slot, over every image q."""
    return slice(p * n, p * n + n, 1) if k < m else slice(p, m * n, n)


def _greedy_once(da, db, x_order, y_order, mismatch, table):
    """One greedy construction of (f, g), then first-improvement polish if
    the pair table is given.

    Slot k < m holds the pair (k, f(k)) and slot m + y the pair (g(y), y);
    the kernel scores a y slot with its arguments swapped.
    """
    m, n = len(da), len(db)
    xs = np.concatenate([np.arange(m), np.zeros(n, dtype=int)])
    ys = np.concatenate([np.zeros(m, dtype=int), np.arange(n)])
    selfc = np.abs(da.diagonal()[:, None] - db.diagonal())  # [x, y]
    sides = ((da, db, xs, ys, mismatch, selfc),
             (db, da, ys, xs, mismatch.T, selfc.T))

    # each slot takes the image cheapest against the slots filled before
    # it and itself; ties go to the smaller profile mismatch, then the
    # smaller index
    slots = np.concatenate([x_order, np.add(y_order, m)]).tolist()
    for t, k in enumerate(slots):
        dp, dq, ps, qs, mis, sc = sides[k >= m]
        done = slots[:t]
        cost = np.maximum(_costs(dp, dq, ps[done], qs[done], ps[k]),
                          sc[ps[k]])
        qs[k] = np.lexsort((mis[ps[k]], cost))[0]

    # local search: re-pick one slot at a time while it helps; the score
    # of every image for slot k is the distortion with slot k set to it,
    # the largest of its table entries against the other slots, its self
    # term and the distortion among the other slots
    best = _dis(da, db, xs, ys)
    if table is None:
        return best, ys[:m].tolist(), xs[m:].tolist()
    pairs = xs * n + ys
    selfw = table.diagonal()
    keep = np.arange(m + n - 1)
    others = keep + (keep >= np.arange(m + n)[:, None])  # row k skips k
    for _ in range(8):
        improved = False
        for k in range(m + n):
            rest = pairs[others[k]]
            # best is the larger of slot k's own terms and the distortion
            # among the other slots; if slot k's terms are below best, the
            # latter equals best and no image can score below it
            if max(table[pairs[k], rest].max(), selfw[pairs[k]]) < best:
                continue
            _, _, ps, qs, _, _ = sides[k >= m]
            cand = _slot_pairs(m, n, k, ps[k])
            score = np.maximum(table[cand][:, rest].max(axis=1), selfw[cand])
            score = np.maximum(score, table[rest][:, rest].max())
            cur = qs[k]
            for q, v in enumerate(score.tolist()):
                if q != cur and v < best - 1e-15:
                    best, cur = score[q] or 0.0, q
                    improved = True
            qs[k] = cur
            pairs[k] = xs[k] * n + ys[k]
        if not improved:
            break
    return best, ys[:m].tolist(), xs[m:].tolist()


def _function_pair_correspondence(m, n, f, g) -> Correspondence:
    pairs = {(x, f[x]) for x in range(m)} | {(g[y], y) for y in range(n)}
    return Correspondence(m, n, tuple(pairs))


def _greedy(da, db, mismatch, orders, restarts, seed, table):
    """Best (distortion, f, g) over the restarts of _greedy_once."""
    m, n = len(da), len(db)
    if m * n > 10000:
        restarts = min(restarts, 2)
    best = None
    rng = np.random.default_rng(seed)
    for trial in range(max(1, restarts)):
        if trial == 0:
            xo, yo = orders
        else:
            xo, yo = rng.permutation(m), rng.permutation(n)
        val, f, g = _greedy_once(da, db, xo, yo, mismatch, table)
        if best is None or val < best[0]:
            best = (val, f, g)
        if best[0] == 0.0:
            break
    return best


def gh_upper_greedy(a: Causet, b: Causet, restarts: int = 32,
                    seed: int = 0) -> GHResult:
    """Heuristic upper bound from greedy function pairs with local search.

    Deterministic for a fixed seed.  The first pass matches points by
    sorted-profile similarity; later restarts shuffle construction order.
    Local search runs only for m + n <= TABLE_MAX_POINTS.
    """
    da, db = _checked(a, "a"), _checked(b, "b")
    m, n = len(da), len(db)
    orders = (_variance_order(da), _variance_order(db))
    table = _pair_table(da, db) if m + n <= TABLE_MAX_POINTS else None
    val, f, g = _greedy(da, db, _profile_mismatch(da, db), orders, restarts,
                        seed, table)
    return GHResult(lower=_lower_bound(da, db), upper=val, exact=None,
                    witness=_function_pair_correspondence(m, n, f, g),
                    method="greedy")


def _branch_and_bound(da, db, x_order, y_order, mismatch, table, incumbent,
                      inc_fg, node_budget):
    """DFS over f then g assignments, pruning at the incumbent distortion.

    Returns (value, (f, g), completed, nodes_used).  The partial
    distortion only grows as pairs are added, so any node at or above the
    incumbent is cut.  Depth t assigns the pair (xs[t], ys[t]); reach[P]
    is the largest table entry between the pair P and the assigned pairs
    or P itself (the self term |da[x, x] - db[y, y]|).
    """
    m, n = len(da), len(db)
    xs = np.concatenate([x_order, np.zeros(n, dtype=int)])
    ys = np.concatenate([np.zeros(m, dtype=int), y_order])
    # children in increasing profile mismatch, ties by index
    sides = ((xs, ys, np.argsort(mismatch, axis=1, kind="stable")),
             (ys, xs, np.argsort(mismatch.T, axis=1, kind="stable")))
    slots = []
    for t in range(m + n):
        ps, qs, order = sides[t >= m]
        cand = _slot_pairs(m, n, t, ps[t])
        slots.append((qs, cand, order[ps[t]].tolist()))
    best, fg, nodes, over = incumbent, inc_fg, 0, False

    def dfs(t, current, reach):
        nonlocal best, fg, nodes, over
        if over or best == 0.0:
            return
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            over = True
            return
        if t == m + n:
            if current < best:
                best = current or 0.0
                f, g = np.empty(m, dtype=int), np.empty(n, dtype=int)
                f[xs[:m]], g[ys[m:]] = ys[:m], xs[m:]
                fg = (f.tolist(), g.tolist())
            return
        qs, cand, order = slots[t]
        cost = np.maximum(reach[cand], current)
        for q in order:
            if cost[q] >= best:
                continue
            qs[t] = q
            dfs(t + 1, cost[q],
                np.maximum(reach, table[cand.start + q * cand.step]))
            if over:
                return

    dfs(0, 0.0, table.diagonal())
    return best, fg, not over, nodes


def gh_exact(a: Causet, b: Causet, max_exact_size: int = 6,
             node_budget: int | None = None) -> GHResult:
    """Exact d_GH by branch and bound over function pairs.

    Points are assigned in decreasing row-variance order.  Instances with
    max(m, n) beyond `max_exact_size`, or m + n beyond TABLE_MAX_POINTS,
    fall back to greedy bounds; an exhausted node budget returns the
    incumbent as bounds only.
    """
    m, n = a.n, b.n
    if max(m, n) > max_exact_size or m + n > TABLE_MAX_POINTS:
        return gh_upper_greedy(a, b)

    da, db = _checked(a, "a"), _checked(b, "b")
    mismatch = _profile_mismatch(da, db)
    orders = (_variance_order(da), _variance_order(db))
    table = _pair_table(da, db)
    # the warm start's own (f, g) is the incumbent, so the witness of an
    # unimproved search has the distortion reported as its upper bound
    upper, f, g = _greedy(da, db, mismatch, orders, 8, 0, table)
    value, (f, g), completed, _ = _branch_and_bound(
        da, db, *orders, mismatch, table, upper, (f, g), node_budget)
    witness = _function_pair_correspondence(m, n, f, g)
    if completed:
        return GHResult(lower=value, upper=value, exact=value,
                        witness=witness, method="exact")
    return GHResult(lower=_lower_bound(da, db), upper=value, exact=None,
                    witness=witness, method="branch-bound")


def epsilon_isometry_from(r: Correspondence, a: Causet, b: Causet
                          ) -> list[int]:
    """Pick f(x) as the smallest y related to x; dis f <= dis R."""
    if r.m != a.n or r.n != b.n:
        raise ValueError("correspondence shape does not match the causets")
    f = [-1] * r.m
    for x, y in r.pairs:
        if f[x] == -1 or y < f[x]:
            f[x] = y
    return f


def map_distortion(f: list[int], a: Causet, b: Causet) -> float:
    """Distortion of a plain map X -> Y over all ordered point pairs."""
    return float(_dis(a.as_float(), b.as_float(), np.arange(a.n),
                      np.asarray(f, dtype=int)))


def gh_zero_is_isometry(a: Causet, b: Causet, tol: float = 1e-9) -> bool:
    """Whether the spaces are isometric (the d_GH = 0 case).

    Both causets must agree on having a boundary point; mixing a space
    that contains its zero-profile point with one that does not is an
    error, and the caller should first apply adjoin_boundary to the
    smaller space.
    """
    if (a.boundary is None) != (b.boundary is None):
        raise ValueError(
            "one causet has a boundary point and the other does not; "
            "apply adjoin_boundary before comparing")
    return bool(find_isometries(a, b, tol=tol))
