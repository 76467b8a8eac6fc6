"""The unit causal diamond in lightcone coordinates, with exact formulas.

Points live in [0, 1]^2 with the Lorentzian distance

    d(x, y) = sqrt((y1 - x1)(y2 - x2))   if x <= y componentwise, else 0.

The corners (1, 0) and (0, 1) share the all-zero distance profile and are
identified; the merged point is the boundary point i0.  The distinction
metric has a closed form through four boundary probes:

    z1 = (min(x1, y1), 0)    z2 = (1, max(x2, y2))
    z3 = (max(x1, y1), 1)    z4 = (0, min(x2, y2))

    gamma(x, y) = max_i max(d(x, zi), d(y, zi), d(zi, x), d(zi, y)).

Along causal directions gamma scales like the square root of coordinate
separation, which the scaling-exponent fit recovers as 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _PUBLIC
from .causet import Causet, distance_quotient, adjoin_boundary

__all__ = list(_PUBLIC["diamond"])

Point = tuple[float, float]


def _check_point(p: Sequence[float]) -> Point:
    x1, x2 = float(p[0]), float(p[1])
    if not (0.0 <= x1 <= 1.0 and 0.0 <= x2 <= 1.0):
        raise ValueError(f"point {(x1, x2)} outside the unit diamond")
    return (x1, x2)


def diamond_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Lorentzian distance in lightcone coordinates."""
    x1, x2 = _check_point(p)
    y1, y2 = _check_point(q)
    if x1 <= y1 and x2 <= y2:
        return math.sqrt((y1 - x1) * (y2 - x2))
    return 0.0


def diamond_gamma(p: Sequence[float], q: Sequence[float]) -> float:
    """Distinction metric via the four boundary probe points."""
    x1, x2 = _check_point(p)
    y1, y2 = _check_point(q)
    probes = ((min(x1, y1), 0.0), (1.0, max(x2, y2)),
              (max(x1, y1), 1.0), (0.0, min(x2, y2)))
    best = 0.0
    for z in probes:
        for v in (diamond_distance(p, z), diamond_distance(q, z),
                  diamond_distance(z, p), diamond_distance(z, q)):
            if v > best:
                best = v
    return best


def _pairwise_distances(pts: np.ndarray) -> np.ndarray:
    u = pts[:, 0]
    v = pts[:, 1]
    du = u[None, :] - u[:, None]
    dv = v[None, :] - v[:, None]
    ordered = (du >= 0) & (dv >= 0)
    return np.where(ordered, np.sqrt(np.clip(du * dv, 0.0, None)), 0.0)


def causet_from_points(pts: Sequence[Sequence[float]],
                       include_boundary_point: bool = False,
                       meta: dict | None = None) -> Causet:
    """Causet of diamond points: exact distances, then distance quotient.

    Coincident distance profiles (the two spacelike corners, duplicated
    points) merge; a boundary point is adjoined afterwards on request
    unless the quotient already produced one.
    """
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise ValueError("points must lie inside the unit diamond")
    d = _pairwise_distances(arr)
    c = Causet.from_matrix(d, meta=meta)
    c, _ = distance_quotient(c)
    if include_boundary_point:
        if c.boundary is None:
            c = adjoin_boundary(c)
    elif c.boundary is not None:
        from .causet import strip_boundary
        c = strip_boundary(c)
    return c


@dataclass(frozen=True)
class DiamondSpace:
    """The unit diamond, the space `sample_causet` draws from; its formulas
    are `diamond_distance` and `diamond_gamma`."""


@dataclass(frozen=True)
class SampleSpec:
    """How to draw a finite sample: grid or seeded uniform points."""

    count: int
    seed: int = 0
    mode: str = "uniform"  # uniform | grid
    include_boundary_point: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.mode not in ("uniform", "grid"):
            raise ValueError(f"unknown sample mode '{self.mode}'")
        if self.mode == "grid" and math.isqrt(self.count) ** 2 != self.count:
            raise ValueError("grid mode needs a perfect-square count")

    def to_json(self) -> dict:
        return {"count": self.count, "seed": self.seed, "mode": self.mode,
                "include_boundary_point": self.include_boundary_point}


def sample_causet(space: DiamondSpace, spec: SampleSpec) -> Causet:
    """Sampled causet; deterministic for a fixed spec."""
    if spec.mode == "grid":
        k = math.isqrt(spec.count)
        axis = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.5])
        pts = np.array([(u, v) for u in axis for v in axis])
    else:
        rng = np.random.default_rng(spec.seed)
        pts = rng.uniform(0.0, 1.0, size=(spec.count, 2))
    meta = {"space": "diamond", "spec": spec.to_json()}
    return causet_from_points(pts, spec.include_boundary_point, meta=meta)


def gamma_scaling_exponent(space: DiamondSpace, base_point: Sequence[float],
                           direction: Sequence[float],
                           radii: Sequence[float]) -> float:
    """Log-log slope of gamma against coordinate separation along a ray.

    Causal directions give 0.5; no direction exceeds 1 (gamma is at most
    Lipschitz in position).
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise ValueError("need at least three radii for a fit")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    base = _check_point(base_point)
    dvec = np.asarray(direction, dtype=float)
    norm = float(np.hypot(dvec[0], dvec[1]))
    if norm == 0:
        raise ValueError("direction must be nonzero")
    dvec = dvec / norm

    dists = []
    gammas = []
    for r in radii:
        p = (base[0] + r * dvec[0], base[1] + r * dvec[1])
        p = _check_point(p)  # raises when the ray leaves the diamond
        g = diamond_gamma(base, p)
        if g <= 0:
            raise ValueError(f"gamma vanished at radius {r}")
        dists.append(r)
        gammas.append(g)
    slope, _ = np.polyfit(np.log(dists), np.log(gammas), 1)
    return float(slope)
