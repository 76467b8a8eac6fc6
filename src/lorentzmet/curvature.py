"""Timelike triangle comparison against the flat 1+1 model space.

A timelike triangle x << y << z has side lengths a = d(x, y), b = d(y, z),
c = d(x, z) with c >= a + b.  When a + b < c strictly (and c < pi/sqrt(k)
for k > 0) the triple is realizable in the model of curvature k; only the
flat model k = 0 is implemented.  There the comparison triangle has
vertices

    xbar = (0, 0),  zbar = (c, 0),  ybar = (t*, x*)
    t* = (c^2 + a^2 - b^2) / (2c),  x* = sqrt(t*^2 - a^2)

in (t, x) coordinates with distance sqrt(dt^2 - dx^2) on causal pairs.
A point p is on side xy when d(x,p) + d(p,y) = d(x,y), with parameter
alpha = d(x,p)/d(x,y); sides yz and xz are parametrized the same way
from y and from x respectively.  Curvature bounded below (above) by 0
demands some admissible pair with d(p,q) at most (at least) the model
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple, Sequence

import numpy as np

from . import _PUBLIC
from .causet import Causet, _check_tol, _integer

__all__ = list(_PUBLIC["curvature"])

# each side's two ends, as positions in the vertex triple (x, y, z); the
# side lengths a, b, c are d at these ends, in table order
_SIDES = {"xy": (0, 1), "yz": (1, 2), "xz": (0, 2)}


class SidePoint(NamedTuple):
    """A perimeter position: which side, and the distance parameter on it."""

    side: str
    t: float


@dataclass(frozen=True)
class SideParams:
    """A pair of perimeter positions to compare against the model."""

    d1: SidePoint
    d2: SidePoint

    def __post_init__(self):
        for sp in (self.d1, self.d2):
            if sp.side not in _SIDES:
                raise ValueError(f"unknown side '{sp.side}'")
            if not 0.0 <= sp.t <= 1.0:
                raise ValueError(f"side parameter {sp.t} outside [0, 1]")


def realizable(a: float, b: float, c: float, k: float) -> bool:
    """Whether the side triple embeds in the curvature-k model.

    Needs a + b < c strictly, and c < pi/sqrt(k) when k > 0 (no size
    restriction for k <= 0).
    """
    if a <= 0 or b <= 0 or c <= 0:
        raise ValueError("side lengths must be positive")
    if not a + b < c:
        return False
    if k > 0:
        return c < math.pi / math.sqrt(k)
    return True


def _model(a, b, c) -> tuple[tuple, tuple, tuple]:
    """Flat-model vertices (xbar, ybar, zbar) of realizable side lengths:
    floats, or arrays holding one triangle per entry."""
    t_star = (c * c + a * a - b * b) / (2 * c)
    # x*^2 = (t* - a)(t* + a) > 0, but rounding can leave it just below 0
    x_star = np.sqrt(np.maximum(t_star * t_star - a * a, 0.0))
    return ((0.0, 0.0), (t_star, x_star), (c, 0.0))


def comparison_triangle_m0(a: float, b: float, c: float
                           ) -> tuple[tuple[float, float], ...]:
    """Flat-model vertices (xbar, ybar, zbar) in (t, x) coordinates."""
    if not realizable(a, b, c, 0.0):
        raise ValueError(
            f"sides ({a}, {b}, {c}) are not realizable in the flat model")
    xbar, (t_star, x_star), zbar = _model(a, b, c)
    return (xbar, (t_star, float(x_star)), zbar)


def _place(model, sp: SidePoint) -> tuple[float, float]:
    """The point at parameter sp.t along side sp.side of the model triangle."""
    o, e = (model[i] for i in _SIDES[sp.side])
    return (o[0] + sp.t * (e[0] - o[0]), o[1] + sp.t * (e[1] - o[1]))


def _model_distance(a, b, c, d1: SidePoint, d2: SidePoint):
    """comparison_distance_m0 without its checks, on realizable side
    lengths: floats, or arrays holding one triangle per entry (a vertex
    pair off every side then gives the scalar 0.0)."""
    v1, v2 = (_SIDES[sp.side][int(sp.t)] if sp.t in (0.0, 1.0) else None
              for sp in (d1, d2))
    if v1 is not None and v2 is not None:
        return dict(zip(_SIDES.values(), (a, b, c))).get((v1, v2), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        (t1, x1), (t2, x2) = (_place(_model(a, b, c), sp) for sp in (d1, d2))
        dt, dx = t2 - t1, x2 - x1
        return np.where(dt >= abs(dx), np.sqrt(dt * dt - dx * dx), 0.0)


def comparison_distance_m0(a: float, b: float, c: float,
                           d1: SidePoint, d2: SidePoint) -> float:
    """Model distance between perimeter points at the given parameters.

    Straight sides are affine in the distance parameter, so placement is
    linear interpolation; the result is 0 for non-causal placements.
    Parameters landing on shared vertices return side lengths exactly.
    """
    d1, d2 = SidePoint(*d1), SidePoint(*d2)
    SideParams(d1, d2)  # validates both
    if not realizable(a, b, c, 0.0):
        raise ValueError(
            f"sides ({a}, {b}, {c}) are not realizable in the flat model")
    out = _model_distance(a, b, c, d1, d2)
    return out.item() if isinstance(out, np.ndarray) else out


@dataclass(frozen=True)
class CheckRecord:
    d1: SidePoint
    d2: SidePoint
    status: str  # ok | violation | vacuous
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"d1": list(self.d1), "d2": list(self.d2), "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass(frozen=True)
class TriangleRecord:
    vertices: tuple[int, int, int]
    sides: tuple[float, float, float]
    checks: tuple[CheckRecord, ...]

    def to_json(self) -> dict:
        return {"vertices": list(self.vertices), "sides": list(self.sides),
                "checks": [c.to_json() for c in self.checks]}


@dataclass(frozen=True)
class CurvatureReport:
    k: float
    bound: str
    tol: float
    records: tuple[TriangleRecord, ...]
    # the triangle search's counters (see check_curvature_bound); not part
    # of to_json
    stats: MappingProxyType = field(
        default_factory=lambda: MappingProxyType({}))

    def _count(self, status: str) -> int:
        return sum(ch.status == status for r in self.records for ch in r.checks)

    @property
    def n_violations(self) -> int:
        return self._count("violation")

    @property
    def n_vacuous(self) -> int:
        return self._count("vacuous")

    @property
    def n_ok(self) -> int:
        return self._count("ok")

    def to_json(self) -> dict:
        return {"k": self.k, "bound": self.bound, "tol": self.tol,
                "records": [r.to_json() for r in self.records]}


_DEFAULT_PARAMS = (
    SideParams(SidePoint("xy", 0.5), SidePoint("yz", 0.5)),
    SideParams(SidePoint("xy", 0.5), SidePoint("xz", 0.5)),
    SideParams(SidePoint("xz", 0.5), SidePoint("yz", 0.5)),
    SideParams(SidePoint("xz", 0.25), SidePoint("xz", 0.75)),
    SideParams(SidePoint("xy", 0.25), SidePoint("yz", 0.75)),
    SideParams(SidePoint("xy", 0.75), SidePoint("xz", 0.25)),
)


def _on_side(d: np.ndarray, tri: np.ndarray, sp: SidePoint,
             tol: float) -> np.ndarray:
    """Mask of the host points on the requested side at the requested
    parameter, one row per vertex triple in tri.

    A point at parameter t on a side of length L satisfies d(o, p) = t L
    and d(p, e) = (1 - t) L, and that pair of equalities pins p to the
    geodesic (equality case of the reverse triangle inequality).  Both
    fractional positions must match within tol; measuring from the far
    endpoint too keeps points from drifting off-side along null
    directions, which one-sided additivity slack would admit.
    """
    o, e = (tri[:, i] for i in _SIDES[sp.side])
    length = d[o, e][:, None]
    # a ratio past the float range is +inf and fails <= tol, as it would
    # exactly
    with np.errstate(over="ignore"):
        from_o = np.abs(d[o] / length - sp.t) <= tol
        from_e = np.abs(d[:, e].T / length - (1.0 - sp.t)) <= tol
    return from_o & from_e


def _pair_minima(d: np.ndarray, sign: float, m1: np.ndarray, m2: np.ndarray,
                 limit: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row r of the candidate masks m1, m2: the least sign * d[p, q]
    over p in m1[r], q in m2[r] (+inf when either is empty), and, where it
    is not <= limit[r], the flat index p * n + q of the first pair reaching
    it in row-major order: the pair np.argmin picks on the block
    sign * d[np.ix_(c1, c2)].

    Pairs are expanded for whole (r, p) entries, at most cap of them at a
    time when cap >= n, so memory stays O(cap) whatever the masks hold; a
    row split over two chunks keeps the earlier of two equal minima.
    """
    n = d.shape[0]
    n2 = np.count_nonzero(m2, axis=1)
    q_of = np.nonzero(m2)[1]  # the q lists of all rows, one after another
    q_start = np.cumsum(n2) - n2
    entry = np.flatnonzero(m1 & (n2 > 0)[:, None])  # r * n + p per entry
    end = np.cumsum(n2[entry // n])  # pairs up to each entry's last
    best = np.full(len(m1), np.inf)
    arg = np.zeros(len(m1), dtype=np.intp)
    k = lo = 0
    while k < len(entry):
        stop = max(k + 1, int(np.searchsorted(end, lo + cap, "right")))
        r, p = np.divmod(entry[k:stop], n)
        c = n2[r]
        # pair j (counted over the chunk's entries) reads
        # q_of[j - (its entry's first pair) + (its row's first q)]
        at = np.arange(lo, end[stop - 1])
        at -= np.repeat(end[k:stop] - c - q_start[r], c)
        flat = np.repeat(p * n, c)
        flat += q_of[at]
        vals = d.take(flat)
        vals *= sign
        first = np.concatenate(([0], np.flatnonzero(r[1:] != r[:-1]) + 1))
        starts = (end[k:stop] - c)[first] - lo  # each row's first pair
        mins = np.minimum.reduceat(vals, starts)
        r, stops = r[first], np.append(starts[1:], len(vals))
        new = mins < best[r]
        best[r[new]] = mins[new]
        for i in np.flatnonzero(new & ~(mins <= limit[r])).tolist():
            seg = slice(starts[i], stops[i])
            arg[r[i]] = flat[seg][np.argmin(vals[seg])]
        k, lo = stop, end[stop - 1]
    return best, arg


_BATCH = 8192
_STATUS = ("vacuous", "ok", "violation")  # check_curvature_bound's codes


def _qualifying(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                min_sides: tuple[float, float, float]) -> np.ndarray:
    """Mask of side triples that pass the filter O of check_curvature_bound."""
    a_min, b_min, gap_min = min_sides
    return ((a > 0) & (b > 0) & (a >= a_min) & (b >= b_min)
            & (c - a - b > gap_min) & (a + b < c))


def check_curvature_bound(host: Causet, k: float = 0.0, bound: str = "lower",
                          tol: float = 0.05,
                          side_params: Sequence[SideParams] | None = None,
                          min_sides: tuple[float, float, float] = (0.0, 0.0, 0.0),
                          max_triangles: int | None = 200,
                          seed: int = 0) -> CurvatureReport:
    """Test the (O, F) curvature bound on every sampled timelike triangle.

    O restricts attention to triangles with a >= min a, b >= min b, and
    strictness gap c - a - b > min gap; at most `max_triangles` triangles
    are kept (seeded subsample when more qualify).  For each triangle and
    each side-parameter pair, host points on the two sides are collected;
    with no candidates the check is vacuous.  A lower curvature bound asks
    for some pair with d(p, q) <= model + tol, an upper bound for some
    pair with d(p, q) >= model - tol.  A NaN tol raises ValueError, as
    do a negative `seed` or `max_triangles` and a `min_sides` that is not
    three numbers or holds a NaN; a non-integer `seed` or `max_triangles`
    is a TypeError.

    Hosts of more than 64 points with a `max_triangles` cap are sampled by
    seeded rejection over index triples, within a budget of
    max(200000, 400 * max_triangles) draws.  Draws are made in batches
    of 8192 triples and tested together; numpy's bounded integers give a
    batch the same values as the same number of single-triple draws, so
    the triangles found are those of a one-triple-per-draw sampler.

    `stats` holds `attempts` (n**3 triples examined, or the draws up to
    the one that completed the set), `requested` (max_triangles), `found`
    and `exhaustive`; found < requested when sampled is a shortfall.
    """
    if k != 0.0:
        raise ValueError("only the flat model k = 0 is implemented")
    if bound not in ("lower", "upper"):
        raise ValueError(f"bound must be 'lower' or 'upper', got '{bound}'")
    _check_tol(tol)
    if max_triangles is not None:
        max_triangles = _integer(max_triangles, "max_triangles")
        if max_triangles < 0:
            raise ValueError(f"max_triangles must be nonnegative, got "
                             f"{max_triangles}")
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if len(min_sides) != 3 or any(v != v for v in min_sides):
        raise ValueError(f"min_sides must be three numbers, none NaN, got "
                         f"{min_sides!r}")
    params = tuple(side_params) if side_params is not None else _DEFAULT_PARAMS
    d = host.as_float()
    n = host.n

    triangles: list[tuple[int, int, int]] = []
    exhaustive = max_triangles is None or n <= 64
    if exhaustive:
        attempts = n ** 3
        # lexicographic (x, y, z) order, one (y, z) block per x
        for x in range(n):
            ok = _qualifying(d[x, :, None], d, d[x, None, :], min_sides)
            for y, z in zip(*np.nonzero(ok)):
                triangles.append((x, int(y), int(z)))
        if max_triangles is not None and len(triangles) > max_triangles:
            rng = np.random.default_rng(seed)
            keep = rng.choice(len(triangles), size=max_triangles, replace=False)
            triangles = [triangles[i] for i in sorted(keep)]
    else:
        # large host: seeded rejection sampling over index triples, which is
        # uniform over qualifying triangles without materializing them all
        rng = np.random.default_rng(seed)
        seen: set[tuple[int, int, int]] = set()
        attempts = 0
        budget = max(200_000, 400 * max_triangles)
        while len(triangles) < max_triangles and attempts < budget:
            m = min(_BATCH, budget - attempts)
            attempts += m
            draws = rng.integers(0, n, size=(m, 3))
            x, y, z = draws.T
            # sides b and c only for the draws whose side a can qualify
            a = d.take(x * n + y)
            live = np.flatnonzero((a > 0) & (a >= min_sides[0]))
            x, y, z = x[live], y[live], z[live]
            ok = _qualifying(a[live], d.take(y * n + z), d.take(x * n + z),
                             min_sides)
            for row in live[ok]:
                key = tuple(int(v) for v in draws[row])
                if key in seen:
                    continue
                seen.add(key)
                triangles.append(key)
                if len(triangles) == max_triangles:
                    attempts -= m - 1 - int(row)  # draws past this one
                    break

    # a lower bound asks for min d(p, q) <= model + tol, an upper one for
    # max d(p, q) >= model - tol: the same test on -d, negation being exact
    sign = 1.0 if bound == "lower" else -1.0
    points = dict.fromkeys(pt for sp in params for pt in (sp.d1, sp.d2))
    o, e = np.array(list(_SIDES.values())).T
    # candidate pairs expanded at once: O(n^2) memory even when tol = inf
    # makes every host point a candidate
    cap = max(n * n // 4, 1 << 14)
    records = []
    for lo in range(0, len(triangles), max(n, 1)):  # n x n masks per block
        tri = np.array(triangles[lo:lo + n], dtype=np.intp)
        sides = d[tri[:, o], tri[:, e]]  # a, b, c per row
        mask = {pt: _on_side(d, tri, pt, tol) for pt in points}
        checks = []
        for sp in params:
            model = np.broadcast_to(
                _model_distance(*sides.T, sp.d1, sp.d2), len(tri))
            with np.errstate(invalid="ignore"):
                limit = sign * model + tol
            best, arg = _pair_minima(d, sign, mask[sp.d1], mask[sp.d2],
                                     limit, cap)
            # host entries are finite: only a check without candidates
            # keeps best = +inf
            status = np.where(best == np.inf, 0,
                              np.where(best <= limit, 1, 2))
            checks.append(zip(*(col.tolist() for col in (
                status, *np.divmod(arg, n), d.take(arg), model))))
        for vertices, sd, *row in zip(triangles[lo:lo + n], sides.tolist(),
                                      *checks):
            records.append(TriangleRecord(vertices, tuple(sd), tuple(
                CheckRecord(sp.d1, sp.d2, "violation",
                            {"p": p, "q": q, "d": dv, "model": mv})
                if st == 2 else CheckRecord(sp.d1, sp.d2, _STATUS[st])
                for sp, (st, p, q, dv, mv) in zip(params, row))))
    stats = MappingProxyType({"attempts": attempts,
                              "requested": max_triangles,
                              "found": len(records),
                              "exhaustive": exhaustive})
    return CurvatureReport(k, bound, float(tol), tuple(records), stats)
