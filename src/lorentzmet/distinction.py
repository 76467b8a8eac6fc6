"""The distinction metric gamma.

gamma(x, y) = max( sup_z |d(x,z) - d(y,z)|, sup_z |d(z,x) - d(z,y)| )

is a genuine metric on a distinguishing space and coincides with the
Noldus strong metric

D(x, y) = sup_z |d(z,x) + d(x,z) - d(z,y) - d(y,z)|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import _PUBLIC
from .causet import Causet, _points, _sup_gaps

__all__ = list(_PUBLIC["distinction"])


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

    gamma is the sup-norm distance between the rows of np.hstack([d, d.T]),
    each point's pair of distance profiles (d(x, .), d(., x)): mapping x
    to its row is the Kuratowski embedding, an isometry of (X, gamma) onto
    a subset of a sup-normed function space.

    Each unordered pair is visited once, over every row and column
    coordinate, and mirrored, so g is exactly symmetric with a zero
    diagonal; the bytes are those of the full ordered-pair comparison.
    Up to `causet.SUP_GAPS_NUMPY_MAX` points the gaps come from numpy,
    past it from scipy's pdist, imported on the first such call.
    """
    f = c.as_float()
    return GammaMatrix(c.labels, _sup_gaps(np.hstack([f, f.T])))


def _gamma_of(c: Causet, g: GammaMatrix | None) -> GammaMatrix:
    """g, checked to be a distinction matrix of c's points, or gamma(c)."""
    if g is None:
        return gamma(c)
    if tuple(g.labels) != tuple(c.labels):
        raise ValueError(f"the distinction matrix g ({g.n} points) is of "
                         f"another causet: its labels are not those of the "
                         f"{c.n}-point causet")
    return g


def gamma_ball(c: Causet, center: int, r: float, closed: bool = True,
               g: GammaMatrix | None = None) -> tuple[int, ...]:
    """Indices within distinction distance r of the center point."""
    center, = _points(c.n, [center])
    if not r >= 0:  # NaN too
        raise ValueError(f"radius r must be nonnegative, got {r}")
    row = _gamma_of(c, g).g[center]
    mask = row <= r if closed else row < r
    return tuple(int(i) for i in np.flatnonzero(mask))


def hausdorff_gamma(c: Causet, a_set: Iterable[int], b_set: Iterable[int],
                    g: GammaMatrix | None = None) -> float:
    """Hausdorff distance between two point sets under gamma."""
    a, b = _points(c.n, a_set), _points(c.n, b_set)
    if not a or not b:
        raise ValueError("hausdorff_gamma needs nonempty sets")
    sub = _gamma_of(c, g).g[np.ix_(a, b)]
    return float(max(sub.min(axis=1).max(), sub.min(axis=0).max()))
