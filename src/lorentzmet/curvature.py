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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .causet import Causet, _check_tol

__all__ = [
    "SidePoint",
    "SideParams",
    "TimelikeTriangle",
    "CheckRecord",
    "TriangleRecord",
    "CurvatureReport",
    "realizable",
    "comparison_triangle_m0",
    "comparison_distance_m0",
    "check_curvature_bound",
]

_SIDES = ("xy", "yz", "xz")


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


@dataclass(frozen=True)
class TimelikeTriangle:
    """Vertex indices x << y << z with their three side lengths."""

    x: int
    y: int
    z: int
    a: float  # d(x, y)
    b: float  # d(y, z)
    c: float  # d(x, z)


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


def comparison_triangle_m0(a: float, b: float, c: float
                           ) -> tuple[tuple[float, float], ...]:
    """Flat-model vertices (xbar, ybar, zbar) in (t, x) coordinates."""
    if not realizable(a, b, c, 0.0):
        raise ValueError(
            f"sides ({a}, {b}, {c}) are not realizable in the flat model")
    t_star = (c * c + a * a - b * b) / (2 * c)
    x_star = math.sqrt(t_star * t_star - a * a)
    return ((0.0, 0.0), (t_star, x_star), (c, 0.0))


def _lorentz_distance(p: tuple[float, float], q: tuple[float, float]) -> float:
    dt = q[0] - p[0]
    dx = q[1] - p[1]
    if dt >= abs(dx):
        return math.sqrt(dt * dt - dx * dx)
    return 0.0


def _place(side: str, t: float, xbar, ybar, zbar) -> tuple[float, float]:
    if side == "xy":
        o, e = xbar, ybar
    elif side == "yz":
        o, e = ybar, zbar
    else:
        o, e = xbar, zbar
    return (o[0] + t * (e[0] - o[0]), o[1] + t * (e[1] - o[1]))


_SIDE_ENDS = {"xy": ("x", "y"), "yz": ("y", "z"), "xz": ("x", "z")}


def _vertex_of(sp: SidePoint) -> str | None:
    lo, hi = _SIDE_ENDS[sp[0]]
    if sp[1] == 0.0:
        return lo
    if sp[1] == 1.0:
        return hi
    return None


def comparison_distance_m0(a: float, b: float, c: float,
                           d1: SidePoint, d2: SidePoint) -> float:
    """Model distance between perimeter points at the given parameters.

    Straight sides are affine in the distance parameter, so placement is
    linear interpolation; the result is 0 for non-causal placements.
    Parameters landing on shared vertices return side lengths exactly.
    """
    SideParams(SidePoint(*d1), SidePoint(*d2))  # validates both
    v1, v2 = _vertex_of(d1), _vertex_of(d2)
    if v1 is not None and v2 is not None:
        if not realizable(a, b, c, 0.0):
            raise ValueError(
                f"sides ({a}, {b}, {c}) are not realizable in the flat model")
        if "xyz".index(v1) >= "xyz".index(v2):
            return 0.0
        return {("x", "y"): a, ("y", "z"): b, ("x", "z"): c}[(v1, v2)]
    xbar, ybar, zbar = comparison_triangle_m0(a, b, c)
    p = _place(d1[0], d1[1], xbar, ybar, zbar)
    q = _place(d2[0], d2[1], xbar, ybar, zbar)
    return _lorentz_distance(p, q)


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

    @property
    def n_violations(self) -> int:
        return sum(1 for r in self.records for ch in r.checks
                   if ch.status == "violation")

    @property
    def n_vacuous(self) -> int:
        return sum(1 for r in self.records for ch in r.checks
                   if ch.status == "vacuous")

    @property
    def n_ok(self) -> int:
        return sum(1 for r in self.records for ch in r.checks
                   if ch.status == "ok")

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


def _side_candidates(d: np.ndarray, tri: TimelikeTriangle, sp: SidePoint,
                     tol: float) -> np.ndarray:
    """Host points lying on the requested side at the requested parameter.

    A point at parameter t on a side of length L satisfies d(o, p) = t L
    and d(p, e) = (1 - t) L, and that pair of equalities pins p to the
    geodesic (equality case of the reverse triangle inequality).  Both
    fractional positions must match within tol; measuring from the far
    endpoint too keeps points from drifting off-side along null
    directions, which one-sided additivity slack would admit.
    """
    if sp.side == "xy":
        o, e, length = tri.x, tri.y, tri.a
    elif sp.side == "yz":
        o, e, length = tri.y, tri.z, tri.b
    else:
        o, e, length = tri.x, tri.z, tri.c
    from_o = np.abs(d[o, :] / length - sp.t) <= tol
    from_e = np.abs(d[:, e] / length - (1.0 - sp.t)) <= tol
    return np.flatnonzero(from_o & from_e)


_BATCH = 8192


def _qualifying(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                min_sides: tuple[float, float, float]) -> np.ndarray:
    """Mask of side triples that pass the filter O of check_curvature_bound."""
    a_min, b_min, gap_min = min_sides
    return ((a > 0) & (b > 0) & (a >= a_min) & (b >= b_min)
            & (c - a - b > gap_min) & (a + b < c))


def _triangle(d: np.ndarray, x: int, y: int, z: int) -> TimelikeTriangle:
    return TimelikeTriangle(x, y, z, float(d[x, y]), float(d[y, z]),
                            float(d[x, z]))


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
    pair with d(p, q) >= model - tol.  A NaN tol raises ValueError.

    Hosts of more than 64 points with a `max_triangles` cap are sampled by
    seeded rejection over index triples, within a budget of
    max(200000, 400 * max_triangles) draws.  Draws are made in batches
    of 8192 triples and tested together; numpy's bounded integers give a
    batch the same values as the same number of single-triple draws, so
    the triangles found are those of a one-triple-per-draw sampler.
    """
    if k != 0.0:
        raise ValueError("only the flat model k = 0 is implemented")
    if bound not in ("lower", "upper"):
        raise ValueError(f"bound must be 'lower' or 'upper', got '{bound}'")
    _check_tol(tol)
    params = tuple(side_params) if side_params is not None else _DEFAULT_PARAMS
    d = host.as_float()
    n = host.n

    triangles: list[TimelikeTriangle] = []
    if max_triangles is None or n <= 64:
        # lexicographic (x, y, z) order, one (y, z) block per x
        for x in range(n):
            ok = _qualifying(d[x, :, None], d, d[x, None, :], min_sides)
            for y, z in zip(*np.nonzero(ok)):
                triangles.append(_triangle(d, x, int(y), int(z)))
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
            ok = _qualifying(d[x, y], d[y, z], d[x, z], min_sides)
            for row in np.flatnonzero(ok):
                key = tuple(int(v) for v in draws[row])
                if key in seen:
                    continue
                seen.add(key)
                triangles.append(_triangle(d, *key))
                if len(triangles) == max_triangles:
                    break

    records = []
    for tri in triangles:
        checks = []
        for sp in params:
            cand1 = _side_candidates(d, tri, sp.d1, tol)
            cand2 = _side_candidates(d, tri, sp.d2, tol)
            if len(cand1) == 0 or len(cand2) == 0:
                checks.append(CheckRecord(sp.d1, sp.d2, "vacuous"))
                continue
            model = comparison_distance_m0(tri.a, tri.b, tri.c, sp.d1, sp.d2)
            vals = d[np.ix_(cand1, cand2)]
            if bound == "lower":
                best = float(vals.min())
                hit = best <= model + tol
            else:
                best = float(vals.max())
                hit = best >= model - tol
            if hit:
                checks.append(CheckRecord(sp.d1, sp.d2, "ok"))
            else:
                flat = int(np.argmin(vals) if bound == "lower"
                           else np.argmax(vals))
                p = int(cand1[flat // len(cand2)])
                q = int(cand2[flat % len(cand2)])
                checks.append(CheckRecord(
                    sp.d1, sp.d2, "violation",
                    {"p": p, "q": q, "d": float(d[p, q]), "model": model}))
        records.append(TriangleRecord((tri.x, tri.y, tri.z),
                                      (tri.a, tri.b, tri.c), tuple(checks)))
    return CurvatureReport(k, bound, float(tol), tuple(records))
