"""Gromov-Hausdorff distance between finite Lorentzian distance matrices.

d_GH(X, Y) is the infimum of the distortion

    dis R = sup |d_X(x, x') - d_Y(y, y')|   over (x, y), (x', y') in R

over correspondences R, i.e. relations covering both factors.  For finite
spaces the infimum is attained on unions graph(f) u graph(g)^T with
f: X -> Y and g: Y -> X, because every correspondence contains such a
union, and a subset never has larger distortion.  The exact solver runs
branch and bound over these function pairs, pruned by a per-pair lower
bound and checked against L*, a lower bound from arc consistency.

Every result's upper is the distortion of its witness.  An `exact`
result is d_GH itself: its value equals L*, or the search completed.  A
`branch-bound` result (node budget exhausted) has lower = L*, a proven
bound never below the value-set bound.  `gh_lower_bounds` and the greedy
result's lower are the cheap value-set bound alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .causet import Causet, find_isometries

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
    # gh_exact's search counters (see gh_exact), empty for greedy results;
    # not part of to_json
    stats: MappingProxyType = field(
        default_factory=lambda: MappingProxyType({}))

    def to_json(self) -> dict:
        out = {"lower": self.lower, "upper": self.upper, "method": self.method,
               "witness_pairs": self.witness.to_json() if self.witness else None}
        if self.exact is not None:
            out["exact"] = self.exact
        return out


def _checked(c: Causet, name: str) -> np.ndarray:
    """c.as_float(); a ValueError names c (a or b) if empty or refused."""
    if c.n == 0:
        raise ValueError(f"causet {name} has no points")
    try:
        return c.as_float()
    except ValueError:
        raise ValueError(f"causet {name} has a non-finite entry at "
                         f"{c._image[3]}") from None


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

    Profiles are padded at the front with zeros to a common length k and
    stored coordinate first, so the sup runs over the leading axis; the
    gaps are taken a few rows x at a time, so memory stays
    O(m n + (m + n) k).
    """
    m, n = len(da), len(db)
    k = max(m, n)

    def profiles(d):  # column x: the sorted row, then the sorted column
        p = np.zeros((2, k, len(d)))
        p[0, k - len(d):] = np.sort(d, axis=1).T
        p[1, k - len(d):] = np.sort(d, axis=0)
        return p.reshape(2 * k, len(d))

    pa, pb = profiles(da), profiles(db)
    out = np.empty((m, n))
    # rows x per chunk: at most max(m n + (m + n) k, 2**15) + 2 n k gaps
    step = max(1, max(m * n + (m + n) * k, 2**15) // (2 * n * k))
    for s in range(0, m, step):
        gap = pa[:, s:s + step, None] - pb[:, None]
        np.abs(gap, out=gap)
        gap.max(axis=0, out=out[s:s + step])
    return out


def _variance_order(d: np.ndarray) -> list:
    return list(np.argsort(-d.var(axis=1), kind="stable"))


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


def _pair_rows(da, db, x, y) -> np.ndarray:
    """Distortion between the pair (x, y) and every pair: w[x n + y, x' n + y']
    is the larger of |da[x, x'] - db[y, y']| and |da[x', x] - db[y', y]|.

    x and y are indices or equal-length index arrays (one row per pair);
    the diagonal entry w[P, P] is the self term |da[x, x] - db[y, y]|.
    Peak memory is twice the rows.
    """
    def gap(a, b):  # |a[x, x'] - b[y, y']| at [..., x', y']
        g = a[x, :, None] - b[y, None, :]
        return np.abs(g, out=g)

    w = gap(da, db)
    np.maximum(w, gap(da.T, db.T), out=w)
    return w.reshape(*np.shape(x), len(da) * len(db))


def _pair_table(da, db) -> np.ndarray:
    """_pair_rows of every pair, 8 (m n)^2 bytes: the searches that revisit
    pairs read it instead of recomputing their rows."""
    return _pair_rows(da, db, *np.divmod(np.arange(len(da) * len(db)),
                                         len(db)))


def _slot_pairs(m, n, k, p):
    """Table rows of the pairs slot k can hold: (p, q) for an x slot k < m,
    (q, p) for a y slot, over every image q."""
    return slice(p * n, p * n + n, 1) if k < m else slice(p, m * n, n)


def _greedy_once(da, db, x_order, y_order, mismatch, table):
    """One greedy construction of (f, g), then first-improvement polish if
    the pair table is given.

    Slot k < m holds the pair (k, f(k)) and slot m + y the pair (g(y), y).
    reach[P] is the largest pair distortion between P and the filled slots
    or P itself (_branch_and_bound's reach without the root bound); each
    filled slot adds its row, read from the table if there is one, else
    from _pair_rows.
    """
    m, n = len(da), len(db)
    xs = np.concatenate([np.arange(m), np.zeros(n, dtype=int)])
    ys = np.concatenate([np.zeros(m, dtype=int), np.arange(n)])
    sides = ((xs, ys, mismatch), (ys, xs, mismatch.T))  # fixed, free point
    selfw = reach = np.abs(da.diagonal()[:, None] - db.diagonal()).ravel()

    # each slot takes the image of least reach; ties go to the smaller
    # profile mismatch, then the smaller index
    for k in np.concatenate([x_order, np.add(y_order, m)]).tolist():
        fixed, free, mis = sides[k >= m]
        cost = reach[_slot_pairs(m, n, k, fixed[k])]
        free[k] = np.lexsort((mis[fixed[k]], cost))[0]
        row = _pair_rows(da, db, xs[k], ys[k]) if table is None \
            else table[xs[k] * n + ys[k]]
        reach = np.maximum(reach, row)

    # local search: re-pick one slot at a time while it helps; the score
    # of every image for slot k is the distortion with slot k set to it,
    # the largest of its table entries against the other slots, its self
    # term and the distortion among the other slots
    best = _dis(da, db, xs, ys)
    if table is None:
        return best, ys[:m].tolist(), xs[m:].tolist()
    pairs = xs * n + ys
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
            fixed, free, _ = sides[k >= m]
            cand = _slot_pairs(m, n, k, fixed[k])
            score = np.maximum(table[cand][:, rest].max(axis=1), selfw[cand])
            score = np.maximum(score, table[rest][:, rest].max())
            cur = free[k]
            for q, v in enumerate(score.tolist()):
                if q != cur and v < best - 1e-15:
                    best, cur = score[q] or 0.0, q
                    improved = True
            free[k] = cur
            pairs[k] = xs[k] * n + ys[k]
        if not improved:
            break
    return best, ys[:m].tolist(), xs[m:].tolist()


def _function_pair_correspondence(m, n, f, g) -> Correspondence:
    pairs = {(x, f[x]) for x in range(m)} | {(g[y], y) for y in range(n)}
    return Correspondence(m, n, tuple(pairs))


def _greedy_runs(da, db, mismatch, orders, seed, table):
    """(distortion, f, g) of _greedy_once without end: the first run in the
    given orders, each later one in a seeded shuffle."""
    m, n = len(da), len(db)
    rng = np.random.default_rng(seed)
    xo, yo = orders
    while True:
        yield _greedy_once(da, db, xo, yo, mismatch, table)
        xo, yo = rng.permutation(m), rng.permutation(n)


def _best_run(runs, count, floor, best=None):
    """Least (distortion, f, g) of best and the next count runs; stops at a
    distortion <= floor, a proven lower bound."""
    for val, f, g in itertools.islice(runs, count):
        if best is None or val < best[0]:
            best = (val, f, g)
        if best[0] <= floor:
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
    if m * n > 10000:
        restarts = min(restarts, 2)
    runs = _greedy_runs(da, db, _profile_mismatch(da, db), orders, seed, table)
    val, f, g = _best_run(runs, max(1, restarts), 0.0)
    return GHResult(lower=_lower_bound(da, db), upper=val, exact=None,
                    witness=_function_pair_correspondence(m, n, f, g),
                    method="greedy")


def _root_bound(table, m, n) -> np.ndarray:
    """Per pair P = (x, y), a lower bound on the distortion of every
    correspondence R that holds P: the self term w[P, P], and
    H(P) = max(max_x' min_y' w[P, (x', y')], max_y' min_x' w[P, (x', y')]),
    since R relates every x' and every y' to something (the local spectrum
    bound of Memoli 2012)."""
    w = table.reshape(-1, m, n)
    h = np.maximum(w.min(axis=2).max(axis=1), w.min(axis=1).max(axis=1))
    return np.maximum(h, table.diagonal())


def _consistent(table, root, t, m, n) -> np.ndarray:
    """Pairs that arc consistency (Mackworth 1977) keeps at threshold t.

    A pair P survives while root[P] <= t and, for every x' and every y',
    some surviving pair Q on that point has w[P, Q] <= t.  The pairs of a
    correspondence with distortion <= t all survive, so an empty result
    proves d_GH > t.
    """
    ok = table <= t
    alive = root <= t
    while alive.any():
        s = (ok[alive] & alive).reshape(-1, m, n)
        keep = s.any(axis=2).all(axis=1) & s.any(axis=1).all(axis=1)
        if keep.all():
            break
        alive[np.flatnonzero(alive)[~keep]] = False
    return alive


def _lstar(table, root, m, n) -> float:
    """L*, the least table value at which arc consistency keeps a pair: a
    lower bound on d_GH (itself a table value), found by binary search
    since the surviving set only grows with t."""
    values = np.unique(table)
    r = root.reshape(m, n)
    lo = int(np.searchsorted(values, max(r.min(axis=1).max(),
                                         r.min(axis=0).max())))
    hi = len(values) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _consistent(table, root, values[mid], m, n).any():
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def _branch_and_bound(x_order, y_order, mismatch, table, root, floor,
                      incumbent, inc_fg, node_budget):
    """DFS over f then g assignments, pruning at the incumbent distortion.

    Returns (value, (f, g), completed, nodes_used).  The partial
    distortion only grows as pairs are added, so any node at or above the
    incumbent is cut.  Depth t assigns the pair (xs[t], ys[t]); reach[P]
    is the largest table entry between the pair P and the assigned pairs,
    or root[P], a lower bound on any correspondence holding P.  A y that f
    already covers takes a preimage as g(y) without branching: the pair
    is already in the relation, and every other choice only adds pairs.
    The search stops once the incumbent reaches floor, a lower bound.
    """
    m, n = mismatch.shape
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
    y_at = ys.tolist()
    best, fg, nodes, over, pre = incumbent, inc_fg, 0, False, {}

    def dfs(t, current, reach):
        nonlocal best, fg, nodes, over, pre
        if over or best <= floor:
            return
        if node_budget is not None and nodes >= node_budget:
            over = True
            return
        nodes += 1
        if t == m:
            pre = dict(zip(ys[:m].tolist(), xs[:m].tolist()))
        while m <= t < m + n and y_at[t] in pre:
            xs[t] = pre[y_at[t]]
            t += 1
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

    dfs(0, 0.0, root)
    return best, fg, not over, nodes


def gh_exact(a: Causet, b: Causet, max_exact_size: int = 6,
             node_budget: int | None = None) -> GHResult:
    """Exact d_GH by branch and bound over function pairs, certified by L*.

    L* is the arc-consistency lower bound (see _consistent).  A greedy
    warm start that reaches L* is exact without search; otherwise branch
    and bound, with points assigned in decreasing row-variance order,
    either completes (exact) or stops at the node budget.  Then the
    result is `branch-bound`: upper is the best distortion found, at most
    gh_upper_greedy's on the same input, and lower = L* is a proven lower
    bound, never below the value-set bound (each value of a pair arc
    consistency keeps has a partner within L*).  Instances with max(m, n)
    beyond `max_exact_size`, or m + n beyond TABLE_MAX_POINTS, return
    gh_upper_greedy's bounds.  `stats` holds the node count, whether the
    budget ran out, L*, and what certified an exact value ("lstar" when
    upper == L*, "search" for a completed search, else None).
    """
    m, n = a.n, b.n
    if max(m, n) > max_exact_size or m + n > TABLE_MAX_POINTS:
        return gh_upper_greedy(a, b)

    da, db = _checked(a, "a"), _checked(b, "b")
    mismatch = _profile_mismatch(da, db)
    orders = (_variance_order(da), _variance_order(db))
    table = _pair_table(da, db)
    root = _root_bound(table, m, n)
    lstar = _lstar(table, root, m, n)
    # the warm start's own (f, g) is the incumbent, so the witness of an
    # unimproved search has the distortion reported as its upper bound
    runs = _greedy_runs(da, db, mismatch, orders, 0, table)
    upper, f, g = _best_run(runs, 8, lstar)
    nodes, completed = 0, True
    if upper > lstar:
        # a pair arc consistency drops below the incumbent is in no
        # better correspondence: give it an infinite root bound
        alive = _consistent(table, root, table[table < upper].max(), m, n)
        upper, (f, g), completed, nodes = _branch_and_bound(
            *orders, mismatch, table, np.where(alive, root, np.inf), lstar,
            upper, (f, g), node_budget)
        if not completed:
            # gh_upper_greedy's 32 restarts, so upper never exceeds its bound
            upper, f, g = _best_run(runs, 24, lstar, (upper, f, g))
    certified = "lstar" if upper == lstar else "search" if completed else None
    stats = MappingProxyType({"nodes": nodes, "budget_exhausted": not completed,
                              "lstar": lstar, "certified_by": certified})
    witness = _function_pair_correspondence(m, n, f, g)
    if certified:
        return GHResult(lower=upper, upper=upper, exact=upper,
                        witness=witness, method="exact", stats=stats)
    return GHResult(lower=lstar, upper=upper,
                    exact=None, witness=witness, method="branch-bound",
                    stats=stats)


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
