"""Causal relation, time functions, and chains.

The extended causal relation

J = {(x, y) : d(p, y) >= d(p, x) and d(x, p) >= d(y, p) for every p}

is a reflexive partial order containing the chronological relation
I = {d > 0}, and composing the two lands back in I.  Weighted sums of
distance profiles give time functions: 1-Lipschitz with respect to the
distinction metric and strictly increasing along strict J.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .causet import Causet, _check_tol, _ordering

__all__ = [
    "CausalRelation",
    "TimeFunction",
    "Chain",
    "causal_relation",
    "time_function",
    "time_function_normalized",
    "is_chain",
    "chain_length",
    "is_maximal",
    "longest_chain",
]


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


def _j_among(d: np.ndarray, pts: np.ndarray | None, tol: float) -> np.ndarray:
    """J on pts x pts (every point when pts is None), over the light cones."""
    _check_tol(tol)
    dT = np.ascontiguousarray(d.T)
    neg = d < 0
    past = (dT > tol) | neg.any(axis=1)  # past[x]: the past cone of x
    fut = (d > tol) | neg.any(axis=0)    # fut[y]: the future cone of y
    cols = slice(None) if pts is None else pts
    pts = np.arange(len(d)) if pts is None else pts
    ok = np.empty((2, len(pts), len(pts)), dtype=bool)  # [x, y], [y, x]
    for k, (cone, m, t) in enumerate(((past, d, dT), (fut, dT, d))):
        for a, x in enumerate(pts):
            p = np.flatnonzero(cone[x])
            ok[k, a] = (m[p][:, cols] >= t[x, p, None] - tol).all(axis=0)
    return ok[0] & ok[1].T


def causal_relation(c: Causet, tol: float = 0.0) -> CausalRelation:
    """Compute J by comparing distance profiles pointwise, within tol.

    A p with d(p, x) <= tol and a nonnegative row passes the past test
    d(p, y) >= d(p, x) - tol for every y, and likewise for columns and the
    future test.  So for each x only the rows of its past cone
    {p : d(p, x) > tol, or row p holds a negative entry} are compared, and
    for each y the columns of its future cone; J is identical to the full
    O(n^3) comparison.  A NaN tol raises ValueError.
    """
    return CausalRelation(_j_among(c.as_float(), None, tol))


@dataclass(frozen=True, eq=False)
class TimeFunction:
    """tau(x) = alpha * (1/2) [sum_n w_n d(s_n, x) - sum_n w_n d(x, s_n)] + beta

    with weights w_n = 2^-n over a point ordering (s_1, s_2, ...).
    """

    values: np.ndarray
    weights: np.ndarray
    alpha: float
    beta: float
    ordering: tuple[int, ...]

    def value(self, x: int) -> float:
        return self.values[x]

    def as_dict(self, labels: Sequence[str]) -> dict[str, float]:
        return {labels[i]: float(self.values[i]) for i in range(len(self.values))}


def _tau_base(c: Causet, ordering: Sequence[int] | None):
    n, ordering = c.n, _ordering(c.n, ordering)
    # exact weights on a Fraction payload, so object arithmetic stays exact
    w = np.array([Fraction(1, 2 ** k) for k in range(1, n + 1)], dtype=object) \
        if c.is_rational else 0.5 ** np.arange(1, n + 1)
    d = c.d if c.is_rational else c.as_float()
    s = np.array(ordering, dtype=int)
    # sum_n w_n d(s_n, x) - sum_n w_n d(x, s_n), halved
    return (w @ d[s, :] - d[:, s] @ w) / 2, w, tuple(ordering)


def time_function(c: Causet, ordering: Sequence[int] | None = None,
                  alpha=1, beta=0) -> TimeFunction:
    """Time function from geometrically weighted distance profiles.

    Strictly increasing along strict J and, at alpha = 1, 1-Lipschitz with
    respect to the distinction metric.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    base, w, ordering = _tau_base(c, ordering)
    return TimeFunction(alpha * base + beta, w, alpha, beta, ordering)


def time_function_normalized(c: Causet, x: int, y: int,
                             ordering: Sequence[int] | None = None
                             ) -> TimeFunction:
    """Rescale so tau(x) = 0 and tau(y) = 1 for a pair with x strictly below y."""
    base, w, ordering = _tau_base(c, ordering)
    gap = base[y] - base[x]
    if gap <= 0:
        raise ValueError(
            f"points {x} and {y} are not strictly ordered (tau gap {gap})")
    # (base - base[x]) / gap hits 0 and 1 exactly at the anchor points
    return TimeFunction((base - base[x]) / gap, w,
                        1 / gap, -base[x] / gap, ordering)


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
    pts = [int(p) for p in points]
    if not pts:
        raise ValueError("a chain needs at least one point")
    _check_tol(tol)
    d = c.as_float()
    seen: set[int] = set()
    for p in pts:
        if not 0 <= p < c.n:
            raise ValueError(f"point index {p} out of range")
        if p in seen:
            return (p, p)
        seen.add(p)
    later = np.triu(np.ones((len(pts), len(pts)), dtype=bool), 1)
    bad = np.argwhere(later & ~_j_among(d, np.array(pts), tol))
    if len(bad):  # the first in row-major order, as a pair loop finds it
        return tuple(pts[i] for i in bad[0])
    return Chain(tuple(pts), bool((d[np.ix_(pts, pts)] > 0)[later].all()))


def _chain_points(chain: Union[Chain, Sequence[int]]) -> list[int]:
    if isinstance(chain, Chain):
        return list(chain.points)
    return [int(p) for p in chain]


def chain_length(c: Causet, chain: Union[Chain, Sequence[int]]) -> float:
    """Sum of consecutive distances, the length of the finest partition."""
    pts = _chain_points(chain)
    d = c.as_float()
    return float(sum(d[pts[i], pts[i + 1]] for i in range(len(pts) - 1)))


def is_maximal(c: Causet, chain: Union[Chain, Sequence[int]],
               tol: float = 1e-9) -> bool:
    """Whether d is additive along every triple of the chain."""
    pts = _chain_points(chain)
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
    d = c.as_float()
    n = c.n
    if not (0 <= x < n and 0 <= y < n):
        raise ValueError("endpoint index out of range")
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
