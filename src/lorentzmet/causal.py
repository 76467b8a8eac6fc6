"""Causal relation, time functions, and chains.

The extended causal relation

J = {(x, y) : d(p, y) >= d(p, x) and d(x, p) >= d(y, p) for every p}

is a reflexive partial order containing the chronological relation
I = {d > 0}, and composing the two lands back in I.  It is computed
exactly: a 0/1 matrix-product filter drops the pairs that the sign
pattern of d rules out, the causet's cached slack floors put in J every
light-cone pair of two points whose reverse triangle inequalities hold
strictly, and the few pairs left get both tests directly.  Weighted sums of
distance profiles give time functions: 1-Lipschitz with respect to the
distinction metric and strictly increasing along strict J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from . import _PUBLIC
from .causet import Causet, _check_tol, _ordering, _points

__all__ = list(_PUBLIC["causal"])


@dataclass(frozen=True, eq=False)
class CausalRelation:
    """Boolean matrix view of J with set-style access."""

    matrix: np.ndarray

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((int(i), int(j)) for i, j in np.argwhere(self.matrix))

    def contains(self, x: int, y: int) -> bool:
        return bool(self.matrix[x, y])

    def future(self, x: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.matrix[x]))

    def past(self, x: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.matrix[:, x]))


def _in_j(d: np.ndarray, x: np.ndarray, y: np.ndarray, tol: float
          ) -> np.ndarray:
    """Mask of the pairs (x[k], y[k]) in J, each by both profile tests over
    every p, in chunks of about 2**15 entries so they stay in cache."""
    dT, step = np.ascontiguousarray(d.T), max(1, 2**15 // max(len(d), 1))
    return np.concatenate([np.zeros(0, dtype=bool)] + [
        (dT[y[s:s + step]] >= dT[x[s:s + step]] - tol).all(axis=1)
        & (d[x[s:s + step]] >= d[y[s:s + step]] - tol).all(axis=1)
        for s in range(0, len(x), step)])


def causal_relation(c: Causet, tol: float = 0.0) -> CausalRelation:
    """Compute J by comparing distance profiles pointwise, within tol.

    x <= y holds when d(p, y) >= d(p, x) - tol (the past test) and
    d(x, p) >= d(y, p) - tol (the future test) for every p, each side
    rounded as written.  J is that of the full O(n^3) comparison, bit for
    bit, found in two stages:

    - A filter.  Where d(p, x) > tol, the past test needs d(p, y) >=
      fl(d(p, x) - tol) > 0; where d(y, p) > tol, the future test needs
      d(x, p) > 0.  Two 0/1 matrix products count the p breaking either
      rule; a pair with a nonzero count is not in J.  The counts are
      integers below 2**24 in float32, so they are exact in any order.
    - Clean cone pairs, or the direct test.  At tol >= 0, J reads the
      causet's slack floors (see `validate`), filling them by one cone
      walk if no call has yet, and calls a point clean when its floor is
      at least the image's error bound E and its row and column hold no
      negative entry.  A pair (x, y) with both ends clean and d(x, y) >
      tol, or x = y, is in J.  In the past test a p with d(p, x) <= tol
      has fl(d(p, x) - tol) <= 0 <= d(p, y); any other p is in x's strict
      past and y in its strict future, so x's floor gives
      fl(d(p, y) - d(p, x)) > d(x, y) > 0.  The future test holds likewise
      through y's floor and x's row, and x = y passes both.  Every other
      pair the filter leaves gets both tests directly, over every p.

    A NaN tol raises ValueError.
    """
    _check_tol(tol)
    d = c.as_float()
    n = len(d)
    over = d > tol
    a, z = over.astype(np.float32), (d <= 0).astype(np.float32)
    maybe = (a.T @ z == 0) & (z @ a.T == 0)
    del a, z  # so that they are not held through the floor walk
    clean = np.zeros(n, dtype=bool)  # no point is clean at tol < 0
    if tol >= 0:
        neg = d < 0
        clean = (c._floors() >= c._image[1]) & ~neg.any(axis=0) \
            & ~neg.any(axis=1)
    j = (over | np.eye(n, dtype=bool)) & clean & clean[:, None]
    x, y = np.divmod(np.flatnonzero(maybe & ~j), max(n, 1))
    j[x, y] = _in_j(d, x, y, tol)
    return CausalRelation(j)


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """tau(x) = (1/2) [sum_n w_n d(s_n, x) - sum_n w_n d(x, s_n)]

    with weights w_n = 2^-n over a point ordering (s_1, s_2, ...).
    """

    values: np.ndarray
    weights: np.ndarray
    ordering: tuple[int, ...]

    def as_dict(self, labels: Sequence[str]) -> dict[str, float]:
        return {labels[i]: float(self.values[i]) for i in range(len(self.values))}


def time_function(c: Causet, ordering: Sequence[int] | None = None
                  ) -> TimeFunction:
    """Time function from geometrically weighted distance profiles.

    Strictly increasing along strict J and 1-Lipschitz with respect to the
    distinction metric.  A Fraction payload is exact: each point sums its
    nonzero terms (read from the causet's sign pattern) as ints over the
    lcm L of their denominators, the weights 2^-n as shifts, and builds
    one Fraction over L 2^(n+1).
    """
    n, ordering = c.n, tuple(_ordering(c.n, ordering))
    s = np.array(ordering, dtype=int)
    if not c.is_rational:
        w = 0.5 ** np.arange(1, n + 1)
        d = c.as_float()
        # sum_n w_n d(s_n, x) - sum_n w_n d(x, s_n), halved
        base = (w @ d[s, :] - d[:, s] @ w) / 2
    else:
        w = np.array([Fraction(1, 2 ** k) for k in range(1, n + 1)],
                     dtype=object)
        # d(i, j) = a / b gives point j the term W_i a / b and point i the
        # term -W_j a / b, W_p = 2^-(rank(p) + 2) = 2^(n - 1 - rank(p)) /
        # 2^(n + 1); each point sums its terms over the lcm of their b
        shift = (n - 1 - np.argsort(s)).astype(object)
        i, j = np.nonzero(c._image[2])
        a, b = np.array([v.as_integer_ratio() for v in c.d[i, j]],
                        dtype=object).reshape(-1, 2).T
        point = np.concatenate([j, i])
        order = np.argsort(point)
        point, num, den = point[order], np.concatenate(
            [a << shift[i], -a << shift[j]])[order], np.tile(b, 2)[order]
        first = np.flatnonzero(np.diff(point, prepend=-1))
        count = np.diff(first, append=len(point))
        lcm = np.array([math.lcm(*den[k:k + m]) for k, m in
                        zip(first, count)], dtype=object)
        total = np.add.reduceat(num * (lcm.repeat(count) // den), first)
        base = np.full(n, Fraction(0), dtype=object)
        base[point[first]] = [Fraction(v, m << (n + 1))
                              for v, m in zip(total, lcm)]
    return TimeFunction(base, w, ordering)


@dataclass(frozen=True)
class Chain:
    """Finite sequence of points strictly increasing in J."""

    points: tuple[int, ...]
    is_isochronal: bool

    def __len__(self) -> int:
        return len(self.points)

    def to_json(self) -> list[int]:
        return list(self.points)


def is_chain(c: Causet, points: Sequence[int], tol: float = 0.0
             ) -> Union[Chain, tuple[int, int]]:
    """Return a Chain when the points strictly increase in J.

    On failure the first violating ordered pair is returned instead.
    Duplicated points violate strictness, so a repeated index is returned
    as a pair with itself.
    """
    pts = _chain_points(c, points)
    if not pts:
        raise ValueError("a chain needs at least one point")
    _check_tol(tol)
    d = c.as_float()
    seen: set[int] = set()
    for p in pts:
        if p in seen:
            return (p, p)
        seen.add(p)
    i, k = np.triu_indices(len(pts), 1)  # the later pairs, row by row
    x, y = np.array(pts)[[i, k]]
    bad = np.flatnonzero(~_in_j(d, x, y, tol))
    if len(bad):  # the first in row-major order, as a pair loop finds it
        return int(x[bad[0]]), int(y[bad[0]])
    return Chain(tuple(pts), bool((d[x, y] > 0).all()))


def _chain_points(c: Causet, chain: Union[Chain, Sequence[int]]
                  ) -> list[int]:
    """The chain's point indices, each checked to be a point of c."""
    return _points(c.n, chain.points if isinstance(chain, Chain) else chain)


def chain_length(c: Causet, chain: Union[Chain, Sequence[int]]) -> float:
    """Sum of consecutive distances, the length of the finest partition."""
    pts = _chain_points(c, chain)
    d = c.as_float()
    return float(sum(d[pts[i], pts[i + 1]] for i in range(len(pts) - 1)))


def is_maximal(c: Causet, chain: Union[Chain, Sequence[int]],
               tol: float = 1e-9) -> bool:
    """Whether d is additive along every triple of the chain, within tol;
    a NaN tol raises ValueError."""
    pts = _chain_points(c, chain)
    _check_tol(tol)
    d = c.as_float()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for k in range(j + 1, len(pts)):
                a, b, e = pts[i], pts[j], pts[k]
                if abs(d[a, b] + d[b, e] - d[a, e]) > tol:
                    return False
    return True


def longest_chain(c: Causet, x: int, y: int) -> Chain:
    """Chain from x to y in I maximizing the sum of consecutive distances.

    Dynamic program over the chronological interval between x and y; the
    interval is sorted by distance from x, which is a topological order.
    The returned sum never exceeds d(x, y) by the reverse triangle
    inequality.
    """
    x, y = _points(c.n, (x, y))
    d = c.as_float()
    if d[x, y] <= 0:
        raise ValueError(f"points {x} and {y} are not chronologically related")

    inner = np.flatnonzero((d[x, :] > 0) & (d[:, y] > 0))
    inner = inner[(inner != x) & (inner != y)]
    nodes = np.concatenate(([x], inner[np.argsort(d[x, inner], kind="stable")], [y]))

    k = len(nodes)
    sub = d[np.ix_(nodes, nodes)]
    best = np.full(k, -np.inf)
    best[0] = 0.0
    parent = np.full(k, -1)
    for i in range(k - 1):
        if best[i] == -np.inf:
            continue
        row = sub[i]
        cand = best[i] + row
        # ties go to the later predecessor, so equal-length chains come
        # out at their finest partition
        improve = (row > 0) & (cand >= best)
        improve[: i + 1] = False
        best[improve] = cand[improve]
        parent[improve] = i

    path = [k - 1]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    pts = tuple(int(nodes[i]) for i in path)
    return Chain(pts, True)
