"""The distinction metric gamma and the sup-norm function-space embedding.

gamma(x, y) = max( sup_z |d(x,z) - d(y,z)|, sup_z |d(z,x) - d(z,y)| )

is a genuine metric on a distinguishing space and coincides with the
Noldus strong metric

D(x, y) = sup_z |d(z,x) + d(x,z) - d(z,y) - d(y,z)|.

Mapping each point to its pair of distance profiles (row, column) is an
isometry onto a subset of a sup-normed function space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .causet import Causet, _chebyshev_gaps, _ordering

__all__ = [
    "GammaMatrix",
    "KuratowskiVector",
    "gamma",
    "kuratowski_embed",
    "kuratowski_distance",
    "gamma_ball",
    "hausdorff_gamma",
]


@dataclass(frozen=True, eq=False)
class GammaMatrix:
    """Symmetric nonnegative matrix of pairwise distinction distances."""

    labels: tuple[str, ...]
    g: np.ndarray

    def __post_init__(self):
        if self.g.ndim != 2 or self.g.shape[0] != self.g.shape[1]:
            raise ValueError(f"gamma matrix must be square, got {self.g.shape}")
        if len(self.labels) != self.g.shape[0]:
            raise ValueError("label count does not match matrix size")

    @property
    def n(self) -> int:
        return self.g.shape[0]

    def diameter(self) -> float:
        return float(self.g.max()) if self.n else 0.0

    def to_json(self) -> dict:
        return {"kind": "gamma", "n": self.n, "labels": list(self.labels),
                "d": [[float(v) for v in row] for row in self.g],
                "boundary": None}


def gamma(c: Causet) -> GammaMatrix:
    """Distinction metric of every pair, by direct sup enumeration.

    Each unordered pair is visited once, over every row and column
    coordinate, and mirrored, so g is exactly symmetric with a zero
    diagonal; the bytes are those of the full ordered-pair comparison.
    """
    return GammaMatrix(c.labels, np.maximum(*_chebyshev_gaps(c.as_float())))


@dataclass(frozen=True, eq=False)
class KuratowskiVector:
    """Distance profiles of one point over a reference ordering."""

    point: int
    out_profile: np.ndarray  # d(point, s) for s in the ordering
    in_profile: np.ndarray   # d(s, point) for s in the ordering


def kuratowski_distance(u: KuratowskiVector, v: KuratowskiVector) -> float:
    """Sup-norm distance between two embedded points."""
    return float(max(np.abs(u.out_profile - v.out_profile).max(),
                     np.abs(u.in_profile - v.in_profile).max()))


def kuratowski_embed(c: Causet, ordering: Sequence[int] | None = None
                     ) -> list[KuratowskiVector]:
    """Embed every point by its distance profiles along a point ordering.

    The sup-norm distance between images equals gamma on the source.
    """
    d, s = c.as_float(), np.array(_ordering(c.n, ordering), dtype=int)
    return [KuratowskiVector(x, d[x, s].copy(), d[s, x].copy())
            for x in range(c.n)]


def gamma_ball(c: Causet, center: int, r: float, closed: bool = True,
               g: GammaMatrix | None = None) -> tuple[int, ...]:
    """Indices within distinction distance r of the center point."""
    if not 0 <= center < c.n:
        raise ValueError(f"center index {center} out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    gm = g if g is not None else gamma(c)
    row = gm.g[center]
    mask = row <= r if closed else row < r
    return tuple(int(i) for i in np.flatnonzero(mask))


def hausdorff_gamma(c: Causet, a_set: Iterable[int], b_set: Iterable[int],
                    g: GammaMatrix | None = None) -> float:
    """Hausdorff distance between two point sets under gamma."""
    a = list(a_set)
    b = list(b_set)
    if not a or not b:
        raise ValueError("hausdorff_gamma needs nonempty sets")
    gm = g if g is not None else gamma(c)
    sub = gm.g[np.ix_(a, b)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))
