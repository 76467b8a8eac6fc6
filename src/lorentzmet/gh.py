"""Gromov-Hausdorff distance between finite Lorentzian distance matrices.

d_GH(X, Y) is the infimum of the distortion

    dis R = sup |d_X(x, x') - d_Y(y, y')|   over (x, y), (x', y') in R

over correspondences R, i.e. relations covering both factors.  For finite
spaces it is attained, so it is one of the mismatches between two pairs.
The exact solver decides, one such value t at a time, whether some R has
dis R <= t, by a search that maintains arc consistency, and bisects the
values from L*, the arc-consistency lower bound.

Every result's upper is the distortion of its witness.  An `exact`
result is d_GH itself.  A `branch-bound` result (node budget exhausted)
has a proven lower bound, at least L* and never below the value-set bound.
`gh_lower_bounds` and the greedy result's lower are the cheap value-set
bound alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import _PUBLIC
from .causet import Causet, _integer, _isometries, _profile_mismatch

__all__ = list(_PUBLIC["gh"])


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

    def to_json(self) -> list[list[int]]:
        return [[x, y] for x, y in self.pairs]


def distortion(r: Correspondence, a: Causet, b: Causet) -> float:
    """Largest distance mismatch over ordered pairs of related pairs."""
    if r.m != a.n or r.n != b.n:
        raise ValueError("correspondence shape does not match the causets")
    xs, ys = np.array(r.pairs, dtype=int).reshape(-1, 2).T
    return float(_dis(a.as_float(), b.as_float(), xs, ys))


@dataclass(frozen=True, eq=False)
class GHResult:
    lower: float
    upper: float
    exact: float | None
    witness: Correspondence | None
    method: str  # exact | greedy | branch-bound: the budget stopped search
    # search counters (see gh_exact and gh_upper_greedy); not part of to_json
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


def _greedy_once(da, db, x_order, y_order, mismatch, table, stats):
    """One greedy construction of (f, g), then first-improvement local
    search if the pair table is given; stats counts its rounds and moves.

    Slot x < m holds the pair (x, f[x]) and slot m + y the pair (g[y], y).
    reach[P] is the largest pair distortion between P and the filled slots
    or P itself; each filled slot adds its row, read from the table if
    there is one, else from _pair_rows.  Local search keeps M, the table
    among the slots' pairs, whose largest entry is the distortion best.
    Slot k's score for an image is the distortion with slot k set to it,
    so if an entry outside row and column k of M reaches best, no image
    scores below best: only the other slots are re-scored, which keeps the
    first-improvement search over every slot, in slot order, as it was.
    """
    m, n = len(da), len(db)
    f, g = [0] * m, [0] * n
    selfw = np.abs(da.diagonal()[:, None] - db.diagonal()).ravel()
    reach = selfw.copy()

    # each slot takes the image of least reach; ties go to the smaller
    # profile mismatch, then the smaller index
    for k in np.concatenate([x_order, np.add(y_order, m)]).tolist():
        p = k if k < m else k - m
        cost = reach[_slot_pairs(m, n, k, p)].tolist()
        q = cost.index(least := min(cost))
        if cost.count(least) > 1:
            mis = mismatch[p] if k < m else mismatch[:, p]
            q = int(np.lexsort((mis, cost))[0])
        (f if k < m else g)[p] = q
        x, y = (p, q) if k < m else (q, p)
        np.maximum(reach, _pair_rows(da, db, x, y) if table is None
                   else table[x * n + y], out=reach)

    if table is None:
        return _dis(da, db, list(range(m)) + g, f + list(range(n))), f, g
    pairs = np.array([x * n + y for x, y in enumerate(f)] +
                     [x * n + y for y, x in enumerate(g)])
    M = table[pairs][:, pairs]
    best = M.max() or 0.0

    def lowering(after):  # slots past `after` whose row and column hold
        can = set(range(after + 1, m + n))  # every entry that reaches best
        for h in (M.ravel() == best).nonzero()[0].tolist():
            can &= set(divmod(h, m + n))
            if not can:
                break
        return sorted(can)

    for _ in range(8):
        stats["rounds"] += 1
        improved, todo = False, lowering(-1)
        while todo:
            k = todo.pop(0)
            p, fv = (k, f) if k < m else (k - m, g)
            cand = _slot_pairs(m, n, k, p)
            w = table[cand, pairs]  # every image against every slot,
            w[:, k] = selfw[cand]  # and against itself in slot k
            rest = np.arange(m + n) != k
            score = np.maximum(w.max(axis=1), M[rest][:, rest].max())
            cur = fv[p]
            for q, v in enumerate(score.tolist()):
                if q != cur and v < best - 1e-15:
                    best, cur = score[q] or 0.0, q
            if cur != fv[p]:
                fv[p] = cur
                pairs[k] = p * n + cur if k < m else cur * n + p
                M[k] = M[:, k] = table[pairs[k], pairs]
                improved = True
                stats["moves"] += 1
                todo = lowering(k)
        if not improved:
            break
    return best, f, g


def _function_pair_correspondence(m, n, f, g) -> Correspondence:
    pairs = {(x, f[x]) for x in range(m)} | {(g[y], y) for y in range(n)}
    return Correspondence(m, n, tuple(pairs))


def _greedy_runs(da, db, seed, table, stats):
    """(distortion, f, g) of _greedy_once without end: the first run in
    decreasing row-variance order, each later one in a seeded shuffle.
    stats counts the runs, and _greedy_once's rounds and moves."""
    m, n = len(da), len(db)
    rng = np.random.default_rng(seed)
    mismatch = _profile_mismatch(da, db)
    xo, yo = (np.argsort(-d.var(axis=1), kind="stable") for d in (da, db))
    while True:
        stats["runs"] += 1
        yield _greedy_once(da, db, xo, yo, mismatch, table, stats)
        xo, yo = rng.permutation(m), rng.permutation(n)


def _best_run(runs, count, floor):
    """Least (distortion, f, g) of the next count runs; stops at a
    distortion <= floor, a proven lower bound."""
    best = None
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
    Local search runs only for m + n <= TABLE_MAX_POINTS.  When m n >
    10000, `restarts` is silently capped at 2.  `stats` holds the runs
    made (they stop at distortion 0), the local-search rounds and the
    accepted moves (slots given a new image).
    """
    restarts, seed = _integer(restarts, "restarts"), _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    da, db = _checked(a, "a"), _checked(b, "b")
    m, n = len(da), len(db)
    table = _pair_table(da, db) if m + n <= TABLE_MAX_POINTS else None
    if m * n > 10000:
        restarts = min(restarts, 2)
    stats = dict.fromkeys(("runs", "rounds", "moves"), 0)
    val, f, g = _best_run(_greedy_runs(da, db, seed, table, stats),
                          max(1, restarts), 0.0)
    return GHResult(lower=_lower_bound(da, db), upper=val, exact=None,
                    witness=_function_pair_correspondence(m, n, f, g),
                    method="greedy", stats=MappingProxyType(stats))


def _root_bound(table, m, n) -> np.ndarray:
    """Per pair P = (x, y), a lower bound on the distortion of every
    correspondence R that holds P: the self term w[P, P], and
    H(P) = max(max_x' min_y' w[P, (x', y')], max_y' min_x' w[P, (x', y')]),
    since R relates every x' and every y' to something (the local spectrum
    bound of Memoli 2012)."""
    w = table.reshape(-1, m, n)
    h = np.maximum(w.min(axis=2).max(axis=1), w.min(axis=1).max(axis=1))
    return np.maximum(h, table.diagonal())


def _consistent(ok, alive, m, n) -> np.ndarray:
    """The pairs of alive that arc consistency (Mackworth 1977) keeps, in
    place: it drops pairs until every alive P has, on every x' and every
    y', an alive Q with ok[P, Q].  With ok = table <= t and alive = root <=
    t, the pairs of a correspondence with distortion <= t all survive, so
    an empty result proves d_GH > t."""
    while alive.any():
        s = (ok[alive] & alive).reshape(-1, m, n)
        keep = s.any(axis=2).all(axis=1) & s.any(axis=1).all(axis=1)
        if keep.all():
            break
        alive[np.flatnonzero(alive)[~keep]] = False
    return alive


def _bisect(lo, hi, test, mid=None):
    """(lo, hi) of a binary search for the least index that passes test,
    given that hi and every index past a passing one pass.  The first
    probe is mid, if given.  If test returns None the search stops, and
    lo is the least index not yet refuted."""
    while lo < hi:
        mid = (lo + hi) // 2 if mid is None else mid
        passed = test(mid)
        if passed is None:
            break
        lo, hi = (lo, mid) if passed else (mid + 1, hi)
        mid = None
    return lo, hi


def _lstar(table, root, values, m, n) -> int:
    """Index in values (the sorted table values) of L*, the least value at
    which arc consistency keeps a pair: a lower bound on d_GH, which is
    itself a table value."""
    r = root.reshape(m, n)
    lo = int(np.searchsorted(values, max(r.min(axis=1).max(),
                                         r.min(axis=0).max())))
    return _bisect(lo, len(values) - 1, lambda i: bool(_consistent(
        table <= values[i], root <= values[i], m, n).any()))[0]


def _decide(table, root, t, m, n, budget):
    """(pairs, nodes): the pair indices of a correspondence with distortion
    <= t, False if there is none, or None once `budget` nodes are spent.

    Maintains arc consistency (Sabin & Freuder 1994): each node branches on
    the uncovered point with the fewest alive pairs (fail first), and each
    alive pair P on it keeps alive only the pairs Q with table[P, Q] <= t,
    which loses no pair of a correspondence within t that holds P.
    """
    ok = table <= t
    nodes = 0

    def node(alive, chosen):
        nonlocal nodes
        covered = [p // n for p in chosen] + [m + p % n for p in chosen]
        if len(set(covered)) == m + n:
            return chosen
        if nodes >= budget:
            return None
        nodes += 1
        a = alive.reshape(m, n)
        counts = np.concatenate([a.sum(axis=1), a.sum(axis=0)])
        counts[covered] = m * n + 1
        k = int(np.argmin(counts))
        cand = np.arange(m * n)[_slot_pairs(m, n, k, k if k < m else k - m)]
        for p in cand[alive[cand]].tolist():
            narrowed = _consistent(ok, alive & ok[p], m, n)
            found = node(narrowed, chosen + [p]) if narrowed[p] else False
            if found is not False:
                return found
        return False

    return node(_consistent(ok, root <= t, m, n), []), nodes


def gh_exact(a: Causet, b: Causet, max_exact_size: int = 6,
             node_budget: int | None = None) -> GHResult:
    """Exact d_GH by decision search over the table values, from L*.

    L* is the arc-consistency lower bound (see _consistent).  A greedy
    warm start that reaches L* is exact without search; otherwise _decide
    runs at L*, then at the table values that binary search picks below
    the warm start's distortion.  Once `node_budget` decision nodes are
    spent, the result is `branch-bound`: upper is the best distortion
    found, at most gh_upper_greedy's, and lower the least table value no
    completed decision refuted, at least L* and so at least the value-set
    bound.  Past `max_exact_size` points on a side, or TABLE_MAX_POINTS in
    all, it returns gh_upper_greedy's result, its stats included.
    Otherwise `stats` holds the node count, whether the budget ran out, L*
    and what certified an exact value ("lstar" when upper == L*, "search"
    when decisions did, else None).  The witness is any correspondence of
    distortion upper.  `node_budget` is an integer or None.
    """
    if node_budget is not None:
        node_budget = _integer(node_budget, "node_budget")
    m, n = a.n, b.n
    if max(m, n) > max_exact_size or m + n > TABLE_MAX_POINTS:
        return gh_upper_greedy(a, b)

    da, db = _checked(a, "a"), _checked(b, "b")
    table = _pair_table(da, db)
    root = _root_bound(table, m, n)
    values = np.unique(table)
    lo = _lstar(table, root, values, m, n)
    lstar = float(values[lo])
    runs = _greedy_runs(da, db, 0, table, Counter())
    upper, f, g = _best_run(runs, 8, lstar)
    witness = _function_pair_correspondence(m, n, f, g)
    budget, nodes = np.inf if node_budget is None else node_budget, 0

    def test(i):  # decide values[i], keeping any better witness it finds
        nonlocal upper, witness, nodes
        found, used = _decide(table, root, values[i], m, n, budget - nodes)
        nodes += used
        if found:
            xs, ys = np.divmod(found, n)
            if (dis := _dis(da, db, xs, ys)) < upper:
                upper = dis
                witness = Correspondence(m, n, tuple(zip(xs, ys)))
        return None if found is None else bool(found)

    lo, hi = _bisect(lo, int(np.searchsorted(values, upper)), test, mid=lo)
    if upper > values[lo]:  # the budget ran out
        # gh_upper_greedy's 32 restarts, so upper never exceeds its bound
        val, f, g = _best_run(runs, 24, values[lo])
        if val < upper:
            upper, witness = val, _function_pair_correspondence(m, n, f, g)
    certified = "lstar" if upper == lstar else \
        "search" if upper == values[lo] else None
    stats = MappingProxyType({"nodes": nodes, "budget_exhausted": lo < hi,
                              "lstar": lstar, "certified_by": certified})
    return GHResult(lower=upper if certified else float(values[lo]),
                    upper=upper, exact=upper if certified else None,
                    witness=witness, method="exact" if certified
                    else "branch-bound", stats=stats)


def gh_zero_is_isometry(a: Causet, b: Causet, tol: float = 1e-9) -> bool:
    """Whether the spaces are isometric (the d_GH = 0 case).

    Both causets must agree on having a boundary point; mixing a space
    that contains its zero-profile point with one that does not is an
    error, and the caller should first apply adjoin_boundary to the
    smaller space.  A NaN tol raises ValueError.
    """
    if (a.boundary is None) != (b.boundary is None):
        raise ValueError(
            "one causet has a boundary point and the other does not; "
            "apply adjoin_boundary before comparing")
    return next(_isometries(a, b, tol), None) is not None
